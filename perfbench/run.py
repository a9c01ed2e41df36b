#!/usr/bin/env python3
"""Benchmark of the memoizing out-of-order Facile simulator.

Run from the repository root:

    python3 perfbench/run.py --workload gcc-cold --seed 1 --seconds 20 --trace 0

Builds perfbench/facile_bench against ../src into .bench_build/perfbench,
makes sure the workload has a golden reference for the seed (and, for the
warm workload, an action-cache snapshot), then measures fresh processes
back to back for --seconds seconds. Every measured run is checked against
the golden reference. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: kips over all the runs' step
loops together, and the medians of set-up time and peak RSS.
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of the traced run with the median step-loop time, plus the tracing
overhead. NOTES.md says what each workload and metric is for.

Exit status: 0 when every run matched its golden reference, 1 when one did
not (the result line is still printed), 2 on bad usage, a refused
environment or a failed build (no result line).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "facile_bench")
BUILD_TYPE = "RelWithDebInfo"

# Run lengths are retired target instructions. gcc-cold must fill the
# 256 MB action cache at least once; 130.li's working set is complete after
# the 1.5M-instruction builder, so its warm run replays without recording.
WORKLOADS = {
    "gcc-cold": {"spec": "126.gcc", "instrs": 600_000},
    "mgrid-cold": {"spec": "107.mgrid", "instrs": 1_000_000},
    "li-warm": {"spec": "130.li", "instrs": 2_000_000,
                "builder_instrs": 1_500_000},
}

END_TO_END_UNITS = {"kips": "kips", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "facile.compile_s": "s",
    "runtime.construct_s": "s",
    "workload.generate_s": "s",
    "facile.plan_insts": "count",
    "runtime.steps": "count",
    "runtime.fast_steps": "count",
    "runtime.slow_steps": "count",
    "runtime.recovered_steps": "count",
    "runtime.bypassed_steps": "count",
    "runtime.ff_pct": "%",
    "runtime.slow_s": "s",
    "runtime.slow_step_p50_ns": "ns",
    "runtime.slow_step_p99_ns": "ns",
    "runtime.recover_s": "s",
    "runtime.recover_step_p50_ns": "ns",
    "runtime.recover_step_p99_ns": "ns",
    "runtime.fast_s": "s",
    "runtime.fast_step_p50_ns": "ns",
    "runtime.fast_step_p99_ns": "ns",
    "runtime.cache.lookups": "count",
    "runtime.cache.hit_pct": "%",
    "runtime.cache.entries_created": "count",
    "runtime.cache.probe_mean": "probes",
    "runtime.cache.probe_max": "probes",
    "runtime.cache.key_bytes": "B",
    "runtime.cache.placeholder_words": "words",
    "runtime.cache.clears": "count",
    "runtime.cache.evict_s": "s",
    "runtime.cache.peak_mb": "MB",
    "runtime.cache.key_pool_mb": "MB",
    "jit.compiled_actions": "count",
    "jit.compiled_blocks": "count",
    "jit.compiled_traces": "count",
    "jit.exec_step_pct": "%",
    "jit.trace_step_pct": "%",
    "jit.bailouts": "count",
    "jit.code_kb": "KB",
    "uarch.bp_calls": "count",
    "uarch.icache_calls": "count",
    "uarch.dcache_calls": "count",
    "uarch.extern_s": "s",
    "uarch.extern_ns_per_call": "ns",
    "snapshot.load_s": "s",
    "snapshot.mb": "MB",
    "snapshot.entries_loaded": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    "trace.setup_s": "s",
    "trace.run_s": "s",
}

# Variables that change what Backend::Auto resolves to between two
# checkouts; a result measured under them would not compare.
REFUSED_ENV = ("FACILE_JIT", "FACILE_JIT_THRESHOLD")

RUN_TIMEOUT_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {REPO}/src; run from a full "
             "checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", BUILD, "--target", "facile_bench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: .bench_build/perfbench/build.log)")


def invoke(mode, w, seed, instrs, *extra):
    """Runs facile_bench once. Returns (spawn time in ns, parsed output or
    None, error text)."""
    cmd = [BINARY, mode, w["spec"], str(seed), str(instrs)] + list(extra)
    spawn_ns = time.monotonic_ns()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return spawn_ns, None, f"{mode} run timed out"
    if p.returncode != 0:
        return spawn_ns, None, p.stderr.strip()[-2000:]
    try:
        return spawn_ns, json.loads(p.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return spawn_ns, None, f"{mode} run printed no result"


def atomic_write_json(path, value):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(value, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


GOLDEN_FIELDS = ("digest", "retired", "cycles")


def golden_key(name, instrs, seed):
    return f"{name}/{instrs}/{seed}"


def golden(name, w, seed, instrs, golden_file):
    """The memo-off interpreter reference for this workload, seed and
    length: from the committed table, else computed once (untimed) and
    kept under .bench_build."""
    key = golden_key(name, instrs, seed)
    stored = load_json(golden_file).get(key)
    if stored:
        return stored
    cache_path = os.path.join(BUILD, "golden-computed.json")
    computed = load_json(cache_path)
    if key in computed:
        return computed[key]
    print(f"perfbench: computing the golden reference for {key} "
          "(memo off, interpreter)", file=sys.stderr)
    _, out, err = invoke("golden", w, seed, instrs)
    if out is None or out["faulted"]:
        fail(f"golden run for {key} failed: {err or out['fault']}")
    computed = load_json(cache_path)
    computed[key] = {k: out[k] for k in GOLDEN_FIELDS}
    atomic_write_json(cache_path, computed)
    return computed[key]


def warm_snapshot(name, w, seed):
    """Builds the warm workload's action-cache file in its own process, so
    the measured process only loads it. One file is kept (they are large),
    named after the binary's build so a rebuilt simulator never loads a
    stale one."""
    instrs = w["builder_instrs"]
    built = os.stat(BINARY).st_mtime_ns
    snap_dir = os.path.join(BUILD, "snapshots")
    path = os.path.join(snap_dir, f"{name}-{seed}-{instrs}-{built}.cache")
    if os.path.isfile(path):
        return path
    os.makedirs(snap_dir, exist_ok=True)
    for old in os.listdir(snap_dir):
        os.unlink(os.path.join(snap_dir, old))
    tmp = f"{path}.tmp.{os.getpid()}"
    _, out, err = invoke("snapshot", w, seed, instrs, f"--out={tmp}")
    if out is None:
        fail(f"snapshot build for {name} seed {seed} failed: {err}")
    if out["cache_clears"] != 0:
        os.unlink(tmp)
        fail(f"{name} seed {seed}: the builder cleared its action cache, "
             "so the warm run would record; the workload is misconfigured")
    os.replace(tmp, path)
    return path


def measured_run(mode, w, seed, instrs, ref, extra):
    """One measured process. Returns (result dict or None, failure text)."""
    spawn_ns, out, err = invoke(mode, w, seed, instrs, *extra)
    if out is None:
        return None, err
    out["setup_s"] = (out["first_step_ns"] - spawn_ns) * 1e-9
    if out["faulted"]:
        return out, f"SimFault {out['fault']}"
    wrong = [k for k in GOLDEN_FIELDS if out[k] != ref[k]]
    if wrong:
        return out, "differs from the golden reference in " + ", ".join(
            f"{k} ({out[k]} vs {ref[k]})" for k in wrong)
    return out, ""


def kips(runs):
    """Retired instructions per host second over all the runs' step loops
    together. Host speed drifts over tens of seconds with the neighbours'
    use of the shared last-level cache; pooling the runs weights each
    stretch of the window by its length, where a median of per-run rates
    jumps between the fast and the slow stretches (NOTES.md, Noise)."""
    return sum(r["retired"] for r in runs) / sum(r["run_s"] for r in runs) / 1e3


def median_by(runs, key):
    """The run whose `key` is the (lower) median."""
    ordered = sorted(runs, key=lambda r: r[key])
    return ordered[(len(ordered) - 1) // 2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies the run lengths (the self-test uses "
                    "tiny runs); results at other scales do not compare")
    ap.add_argument("--golden", default=os.path.join(HERE, "golden.json"),
                    help="golden reference table (default: "
                    "perfbench/golden.json)")
    args = ap.parse_args()
    # A SIGTERM becomes SystemExit in the main thread, so subprocess.run
    # kills and waits for the child it is waiting on instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        fail("--seed must be >= 0, --seconds and --scale > 0")
    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        fail(f"refusing to run with {', '.join(refused)} set: it changes "
             "what the default backend measures")

    build()
    name = args.workload
    w = dict(WORKLOADS[name])
    instrs = max(1, int(w["instrs"] * args.scale))
    if "builder_instrs" in w:
        w["builder_instrs"] = max(1, int(w["builder_instrs"] * args.scale))
    ref = golden(name, w, args.seed, instrs, args.golden)
    extra = []
    if "builder_instrs" in w:
        extra.append(f"--cache={warm_snapshot(name, w, args.seed)}")
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    untraced, traced, failures = [], [], []
    attempted = 0
    deadline = time.monotonic() + args.seconds
    while True:
        have_all = untraced and (traced or not args.trace)
        if time.monotonic() >= deadline and (have_all or failures):
            break
        mode = "traced" if args.trace and len(traced) < len(untraced) \
            else "timed"
        run_extra = list(extra)
        if mode == "traced":
            spans = os.path.join(trace_dir, f"{name}-{args.seed}-"
                                 f"{len(traced)}.jsonl")
            run_extra.append(f"--spans={spans}")
        attempted += 1
        out, why = measured_run(mode, w, args.seed, instrs, ref, run_extra)
        if why:
            failures.append(f"run {attempted} ({mode}): {why}")
            print(f"perfbench: {failures[-1]}", file=sys.stderr)
        if out is None:
            continue
        if mode == "traced":
            out["spans_file"] = spans
            traced.append(out)
        else:
            untraced.append(out)

    first = (untraced or traced or [None])[0]
    if first is None:
        print("perfbench: no run produced a result", file=sys.stderr)
        sys.exit(1)
    provenance = {
        "workload": name, "spec": w["spec"], "seed": args.seed,
        "instrs": instrs, "builder_instrs": w.get("builder_instrs"),
        "scale": args.scale, "seconds": args.seconds, "trace": args.trace,
        "backend": first["backend"],
        "jit_compiled_actions": first["jit_compiled_actions"],
        "build_type": first["build_type"], "nproc": os.cpu_count(),
        "untraced_runs": len(untraced), "traced_runs": len(traced),
    }

    if args.trace == 0:
        values = {
            "kips": kips(untraced),
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(
                r["peak_rss_kb"] / 1024 for r in untraced),
        }
        units = END_TO_END_UNITS
    elif traced:
        pick = median_by(traced, "run_s")
        values = dict(pick["layers"])
        values["trace.setup_s"] = pick["setup_s"]
        values["trace.overhead_pct"] = 100 * (
            kips(untraced) / kips(traced) - 1)
        units = PER_LAYER_UNITS
        # Keep the spans of the run the layer numbers come from.
        os.replace(pick["spans_file"],
                   os.path.join(trace_dir, f"{name}-{args.seed}.jsonl"))
        for r in traced:
            if r is not pick and os.path.exists(r["spans_file"]):
                os.unlink(r["spans_file"])
        provenance["spans"] = os.path.relpath(
            os.path.join(trace_dir, f"{name}-{args.seed}.jsonl"), REPO)
    else:
        values, units = {}, PER_LAYER_UNITS
    missing = sorted(set(units) - set(values))
    problems = list(failures)
    if missing:
        problems.append("metrics missing: " + ", ".join(missing))
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in units if k in values}

    print(json.dumps({"provenance": provenance, "problems": problems}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
