#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

    python3 perfbench/selftest.py            # tiny runs, about two minutes
    python3 perfbench/selftest.py --stress   # also full-length traced runs

At a tiny run length, for every workload: the untraced run prints every
end-to-end metric of BENCHMARK.json with its unit, the traced run prints
every per-layer metric with its unit, and the traced run's spans (setup,
step self time, extern time) cover at least 95% of its wall time. A
corrupted golden digest must fail the run; FACILE_JIT in the environment
and a directory without the simulator sources must be refused.

--stress checks at full length that each workload stresses the layer it
was chosen for (NOTES.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

TINY = "0.05"
SEED = "1"


def bench(workload, trace, *extra, env=None, cwd=REPO):
    cmd = ["python3", os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env,
                       stdin=subprocess.DEVNULL, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stderr


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)
    print(f"ok: {msg}")


def check_metrics(result, specs, what):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result has exactly the four keys")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{what}: correct, none failed")
    want = {m["name"]: m["unit"] for m in specs}
    got = result["metrics"]
    check(set(got) == set(want), f"{what}: prints exactly the named metrics")
    for name, unit in want.items():
        v = got[name]["value"]
        if (got[name]["unit"] != unit or isinstance(v, bool)
                or not isinstance(v, (int, float))):
            check(False, f"{what}: {name} is a number in {unit}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--stress", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json names the workloads run.py defines")

    for w in run.WORKLOADS:
        rc, result, err = bench(w, 0, "--scale", TINY)
        check(rc == 0 and result is not None, f"{w}: untraced run exits 0"
              + ("" if rc == 0 else f"\n{err}"))
        check_metrics(result, spec["end_to_end"], f"{w} untraced")
        rc, result, err = bench(w, 1, "--scale", TINY)
        check(rc == 0 and result is not None, f"{w}: traced run exits 0"
              + ("" if rc == 0 else f"\n{err}"))
        check_metrics(result, spec["per_layer"], f"{w} traced")
        coverage = result["metrics"]["trace.coverage_pct"]["value"]
        check(coverage >= 95, f"{w}: spans cover {coverage:.2f}% >= 95% of "
              "the traced run")

    # A wrong golden digest must fail the run.
    w = "mgrid-cold"
    instrs = int(run.WORKLOADS[w]["instrs"] * float(TINY))
    key = run.golden_key(w, instrs, int(SEED))
    computed = run.load_json(os.path.join(run.BUILD, "golden-computed.json"))
    check(key in computed, f"{w}: golden reference computed for {key}")
    bad = dict(computed[key])
    bad["digest"] = "%016x" % (int(bad["digest"], 16) ^ 1)
    bad_path = os.path.join(run.BUILD, "selftest-golden.json")
    run.atomic_write_json(bad_path, {key: bad})
    rc, result, _ = bench(w, 0, "--scale", TINY, "--golden", bad_path)
    check(rc != 0 and result is not None and result["correct"] is False
          and result["failed"] >= 1, f"{w}: a corrupted golden digest fails "
          "the run")

    env = dict(os.environ, FACILE_JIT="off")
    rc, result, _ = bench(w, 0, "--scale", TINY, env=env)
    check(rc != 0 and result is None, "FACILE_JIT in the environment is "
          "refused")

    bare = os.path.join(run.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    rc, result, _ = bench(w, 0, cwd=bare)
    shutil.rmtree(bare)
    check(rc != 0 and result is None, "a directory without the simulator "
          "sources is refused")

    if not args.stress:
        return
    for w, stressed in STRESS.items():
        rc, result, err = bench(w, 1)
        check(rc == 0 and result is not None, f"{w}: full-length traced run "
              "exits 0" + ("" if rc == 0 else f"\n{err}"))
        m = {k: v["value"] for k, v in result["metrics"].items()}
        for what, cond in stressed:
            check(cond(m), f"{w}: {what}")


# What each workload must exercise, from its traced run at full length.
STRESS = {
    "gcc-cold": [
        ("the action cache is cleared at least once",
         lambda m: m["runtime.cache.clears"] >= 1),
        ("slow steps take over half of the run",
         lambda m: m["runtime.slow_s"] > m["trace.run_s"] / 2),
    ],
    "mgrid-cold": [
        ("the action cache is never cleared",
         lambda m: m["runtime.cache.clears"] == 0),
        ("fast steps take over half of the run",
         lambda m: m["runtime.fast_s"] > m["trace.run_s"] / 2),
    ],
    "li-warm": [
        ("every instruction is fast-forwarded",
         lambda m: m["runtime.ff_pct"] == 100),
        ("snapshot load takes over half of set-up",
         lambda m: m["snapshot.load_s"] > m["trace.setup_s"] / 2),
    ],
}

if __name__ == "__main__":
    main()
