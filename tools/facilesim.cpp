//===- facilesim.cpp - Run a Facile simulator with snapshot support ----------===//
//
// Command-line driver for the compiled simulators in src/sims/: pick a
// simulator and a synthetic workload, run to an instruction budget, and
// save or restore snapshot containers (checkpoints and persistent action
// caches) around the run. This is the user-facing surface of the snapshot
// subsystem: a long simulation can be stopped and resumed bit-identically,
// or a later run warm-started from a previous run's action cache.
//
//   facilesim --sim=ooo --workload=gcc --instrs=2000000
//             --save-checkpoint=gcc.ckpt --save-cache=gcc.acache
//   facilesim --sim=ooo --workload=gcc --instrs=4000000
//             --load-checkpoint=gcc.ckpt --load-cache=gcc.acache --json
//
// Failed loads (missing file, corruption, stale compatibility key) print a
// diagnostic and fall back to a cold start; they are not fatal. --require-warm
// upgrades a cold fallback to exit status 1 for CI smoke tests.
//
//===----------------------------------------------------------------------===//

#include "src/inject/FaultInjector.h"
#include "src/sims/SimHarness.h"
#include "src/store/CacheStore.h"
#include "src/support/ArgParse.h"
#include "src/telemetry/Metrics.h"
#include "src/telemetry/Profiler.h"
#include "src/telemetry/Trace.h"
#include "src/workload/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace facile;
using namespace facile::sims;

int main(int Argc, char **Argv) {
  std::string SimName = "ooo", WorkloadName = "compress";
  uint64_t Instrs = 1'000'000;
  rt::Simulation::Options Opts;
  std::string SaveCkpt, LoadCkpt, SaveCache, LoadCache;
  std::string CacheStorePath;
  std::string TraceFile, MetricsFile;
  uint64_t TraceBuffer = 1u << 16;
  uint64_t TopActions = 0, ProfilePeriod = 1;
  bool Json = false, RequireWarm = false;
  bool StorePromote = false, PrintDigest = false;
  bool StoreGc = false;
  uint64_t StoreGcKeep = 1;
  bool Injecting = false;
  inject::InjectSpec InjSpec;

  support::ArgParse P("facilesim");
  P.choice("sim", SimName, {"functional", "inorder", "ooo"},
           "simulator to run (default ooo)");
  P.str("workload", WorkloadName, "<name>",
        "suite entry, e.g. gcc or 126.gcc\n(default compress)");
  P.u64("instrs", Instrs, "<n>",
        "total retired-instruction target,\nincluding instructions restored "
        "from\na checkpoint (default 1000000)");
  P.custom("cache-budget-mb", "<n>",
           "action-cache byte budget (default 256)",
           [&Opts](const std::string &V, std::string &) {
             Opts.CacheBudgetBytes = std::strtoull(V.c_str(), nullptr, 10)
                                     << 20;
             return true;
           });
  bool NoMemo = false;
  P.flag("no-memo", NoMemo, "disable memoization (slow path only)");
  P.custom("jit", "on|off|auto",
           "memoized-replay execution backend:\non asks for the template "
           "JIT (degrades\nto the interpreter where unsupported),\noff "
           "forces the interpreter, auto picks\nthe JIT when the host "
           "supports it\n(default auto)",
           [&Opts](const std::string &V, std::string &Err) {
             if (V == "on")
               Opts.Backend = rt::BackendKind::Jit;
             else if (V == "off")
               Opts.Backend = rt::BackendKind::Interpret;
             else if (V == "auto")
               Opts.Backend = rt::BackendKind::Auto;
             else {
               Err = "--jit takes on, off or auto, not '" + V + "'";
               return false;
             }
             return true;
           });
  P.custom("jit-threshold", "<n>",
           "replays before an action is compiled\n(default 32)",
           [&Opts](const std::string &V, std::string &Err) {
             char *End = nullptr;
             uint64_t N = std::strtoull(V.c_str(), &End, 10);
             if (V.empty() || End != V.c_str() + V.size() || N == 0 ||
                 N > UINT32_MAX) {
               Err = "--jit-threshold takes a positive count, not '" + V +
                     "'";
               return false;
             }
             Opts.JitThreshold = static_cast<uint32_t>(N);
             return true;
           });
  P.str("save-checkpoint", SaveCkpt, "<file>",
        "write full state after the run");
  P.str("load-checkpoint", LoadCkpt, "<file>",
        "resume state before the run");
  P.str("save-cache", SaveCache, "<file>",
        "write the action cache after the run");
  P.str("load-cache", LoadCache, "<file>",
        "warm-start from a saved action cache");
  P.str("cache-store", CacheStorePath, "<dir>",
        "shared action-cache store: map the\nnewest compatible generation as "
        "a\nread-only base, record new work to a\nprivate overlay (miss = "
        "cold start)");
  P.flag("store-promote", StorePromote,
         "after the run, write base+overlay as\nthe next store generation "
         "(requires\n--cache-store)");
  P.optU64("store-gc", StoreGc, StoreGcKeep, "<keep>",
           "maintenance mode: unlink all but the\nnewest <keep> generations "
           "per compat\nkey (default 1) and exit without\nsimulating "
           "(requires --cache-store)",
           /*Min=*/1);
  P.flag("digest", PrintDigest,
         "print the final memory digest as\n'facilesim: digest <16 hex>'");
  P.flag("require-warm", RequireWarm,
         "exit 1 unless a cache was loaded and\nfast replay actually ran");
  P.u64("max-steps", Opts.StepLimit, "<n>",
        "step watchdog: fault (step-limit)\nafter n simulation steps "
        "(default off)");
  P.custom("mem-budget", "<mb>",
           "resident target-memory budget in MB;\nexceeding it faults "
           "(default off)",
           [&Opts](const std::string &V, std::string &) {
             Opts.MemPageBudget = static_cast<size_t>(
                 (std::strtoull(V.c_str(), nullptr, 10) << 20) /
                 TargetMemory::PageSize);
             return true;
           });
  P.custom("fault-inject", "<spec>",
           "seeded corruption campaign, e.g.\nseed:42,mem:0.01,cache:0.05,\n"
           "extern:0.001,plan:0.0001",
           [&InjSpec, &Injecting](const std::string &V, std::string &Err) {
             std::string E;
             if (!inject::InjectSpec::parse(V, InjSpec, E)) {
               Err = "bad --fault-inject spec: " + E;
               return false;
             }
             Injecting = true;
             return true;
           });
  P.flag("json", Json, "print the stats JSON line");
  P.str("metrics", MetricsFile, "<file>", "write the stats JSON to a file");
  P.str("trace", TraceFile, "<file>",
        "write a Chrome trace-event JSON of\nthe run (chrome://tracing, "
        "Perfetto)");
  P.u64("trace-buffer", TraceBuffer, "<n>",
        "trace ring capacity in events\n(default 65536; oldest dropped)");
  P.u64("top-actions", TopActions, "<n>",
        "profile replay and print the n\nhottest actions (default off)");
  P.u64("profile-period", ProfilePeriod, "<n>",
        "sample every n-th memoized step\n(default 1 with --top-actions)",
        /*Min=*/1);
  P.epilog("\nexit status: 0 ok, 1 save/require-warm failure, 2 bad usage,\n"
           "             3 structured simulation fault (see the "
           "diagnostic)\n");

  if (int Rc = P.parse(Argc, Argv); Rc != support::ArgParse::KeepGoing)
    return Rc;
  if (NoMemo)
    Opts.Memoize = false;

  if (StorePromote && CacheStorePath.empty()) {
    std::fprintf(stderr, "error: --store-promote requires --cache-store\n");
    return 2;
  }
  if (StoreGc) {
    if (CacheStorePath.empty()) {
      std::fprintf(stderr, "error: --store-gc requires --cache-store\n");
      return 2;
    }
    store::CacheStoreDir Dir(CacheStorePath);
    std::string Err;
    size_t Unlinked = Dir.gc(static_cast<size_t>(StoreGcKeep), &Err);
    if (!Err.empty()) {
      std::fprintf(stderr, "error: store gc: %s\n", Err.c_str());
      return 1;
    }
    std::printf("facilesim: store gc unlinked %zu generation%s (kept newest "
                "%llu per key)\n",
                Unlinked, Unlinked == 1 ? "" : "s",
                (unsigned long long)StoreGcKeep);
    return 0;
  }

  SimKind Kind;
  if (SimName == "functional")
    Kind = SimKind::Functional;
  else if (SimName == "inorder")
    Kind = SimKind::InOrder;
  else
    Kind = SimKind::OutOfOrder;

  const workload::WorkloadSpec *Spec = workload::findSpec(WorkloadName);
  if (!Spec) {
    std::fprintf(stderr, "error: unknown workload '%s'; suite entries:\n",
                 WorkloadName.c_str());
    for (const workload::WorkloadSpec &S : workload::spec95Suite())
      std::fprintf(stderr, "  %s\n", S.Name.c_str());
    return 2;
  }

  // A corruption campaign must terminate even if an undetected flip sends
  // the workload into an endless loop: give it a default step watchdog.
  if (Injecting && Opts.StepLimit == 0)
    Opts.StepLimit = Instrs * 16 + 1'000'000;

  // An effectively unbounded outer loop: runs stop on the --instrs budget.
  isa::TargetImage Image = workload::generate(*Spec, 1u << 30);
  FacileSim Sim(Kind, Image, Opts);
  inject::FaultInjector Inj(Sim.sim(), InjSpec);
  if (Injecting)
    Inj.arm();

  telemetry::EventTracer Tracer(static_cast<size_t>(TraceBuffer));
  if (!TraceFile.empty())
    Sim.setTracer(&Tracer);
  std::unique_ptr<telemetry::ActionProfiler> Prof;
  if (TopActions > 0) {
    Prof = std::make_unique<telemetry::ActionProfiler>(
        Sim.sim().actionCount(), static_cast<uint32_t>(ProfilePeriod));
    Sim.setProfiler(Prof.get());
    Sim.setTopActions(static_cast<size_t>(TopActions));
  }

  // Restore order matters: the checkpoint rewinds the simulation to a
  // saved point, then the action cache pre-populates memoized actions for
  // the run ahead. Failures fall back to a cold start (diagnostic on
  // stderr via the harness).
  if (!LoadCkpt.empty() && Sim.loadCheckpoint(LoadCkpt))
    std::fprintf(stderr, "facilesim: resumed from %s (%llu instrs retired)\n",
                 LoadCkpt.c_str(),
                 (unsigned long long)Sim.sim().stats().RetiredTotal);
  if (!LoadCache.empty() && Sim.loadCache(LoadCache))
    std::fprintf(stderr, "facilesim: warm-started from %s (%llu entries)\n",
                 LoadCache.c_str(),
                 (unsigned long long)Sim.snapshotStats().CacheEntriesLoaded);

  // The shared store maps read-only underneath any cache a --load-cache
  // already privatized, so only attach when the cache is still empty.
  std::unique_ptr<store::CacheStoreDir> StoreDir;
  if (!CacheStorePath.empty())
    StoreDir = std::make_unique<store::CacheStoreDir>(CacheStorePath);
  if (StoreDir && !Sim.snapshotStats().CacheLoaded &&
      Sim.attachStore(*StoreDir))
    std::fprintf(stderr,
                 "facilesim: attached cache store %s gen %llu (%llu entries)\n",
                 CacheStorePath.c_str(),
                 (unsigned long long)Sim.storeMapping()->generation(),
                 (unsigned long long)Sim.snapshotStats().CacheEntriesLoaded);

  uint64_t Before = Sim.sim().stats().RetiredTotal;
  if (Injecting) {
    // Interleave short run chunks with injection rolls so corruption lands
    // mid-run, against warm state, not just at the boundaries.
    while (!Sim.sim().halted() && !Sim.faulted() &&
           Sim.sim().stats().RetiredTotal < Instrs) {
      Sim.run(std::min(Instrs, Sim.sim().stats().RetiredTotal + 4096));
      Inj.inject();
    }
  } else if (Instrs > Before) {
    Sim.run(Instrs);
  }
  uint64_t Retired = Sim.sim().stats().RetiredTotal;

  std::string Err;
  if (!SaveCkpt.empty() && !Sim.saveCheckpoint(SaveCkpt, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (!SaveCache.empty() && !Sim.saveCache(SaveCache, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (StorePromote) {
    uint64_t Gen = 0;
    if (!Sim.promoteStore(*StoreDir, &Gen, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "facilesim: promoted action cache to %s gen %llu\n",
                 CacheStorePath.c_str(), (unsigned long long)Gen);
  }

  // Telemetry output: close the open step span so the buffered trace and
  // the exported metrics cover every simulated step.
  Sim.sim().flushTraceSpan();
  if (!TraceFile.empty() && !Tracer.writeFile(TraceFile, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (!MetricsFile.empty()) {
    std::string StatsLine = Sim.statsJson();
    std::FILE *F = std::fopen(MetricsFile.c_str(), "wb");
    bool Ok = F && std::fwrite(StatsLine.data(), 1, StatsLine.size(), F) ==
                       StatsLine.size() &&
              std::fputc('\n', F) != EOF;
    if (F)
      Ok = std::fclose(F) == 0 && Ok;
    if (!Ok) {
      std::fprintf(stderr, "error: cannot write metrics file '%s'\n",
                   MetricsFile.c_str());
      return 1;
    }
  }

  std::printf("facilesim: %s on %s: %llu instrs retired (%llu this run), "
              "%.3f%% fast-forwarded\n",
              SimName.c_str(), Spec->Name.c_str(),
              (unsigned long long)Retired,
              (unsigned long long)(Retired - Before),
              Sim.sim().stats().fastForwardedPct());
  if (PrintDigest)
    std::printf("facilesim: digest %016llx\n",
                (unsigned long long)Sim.sim().memory().digest());
  if (Json)
    std::printf("%s\n", Sim.statsJson().c_str());

  if (Prof) {
    std::printf("facilesim: top %llu actions by replayed instructions "
                "(%llu steps sampled, period %llu):\n",
                (unsigned long long)TopActions,
                (unsigned long long)Prof->sampledSteps(),
                (unsigned long long)ProfilePeriod);
    std::printf("  %5s %8s %12s %14s %14s\n", "rank", "action", "nodes",
                "instrs", "bytes");
    std::vector<telemetry::ActionProfiler::Entry> Top =
        Prof->top(static_cast<size_t>(TopActions));
    for (size_t I = 0; I != Top.size(); ++I)
      std::printf("  %5zu %8u %12llu %14llu %14llu\n", I, Top[I].ActionId,
                  (unsigned long long)Top[I].Nodes,
                  (unsigned long long)Top[I].Instrs,
                  (unsigned long long)Top[I].Bytes);
  }

  // A structured fault is a clean, diagnosable stop — never a crash. It
  // has its own exit status so harnesses can tell it from success (0) and
  // usage/IO errors (1, 2).
  if (Sim.faulted()) {
    const rt::SimFault &F = Sim.fault();
    std::fprintf(stderr,
                 "facilesim: fault: %s at step %llu (pc 0x%llx): %s\n",
                 rt::faultKindName(F.Kind), (unsigned long long)F.Step,
                 (unsigned long long)F.Pc, F.Detail.c_str());
    if (Injecting) {
      const inject::FaultInjector::Counters &IC = Inj.counters();
      std::fprintf(stderr,
                   "facilesim: injected: %llu mem, %llu node, %llu seal, "
                   "%llu pool, %llu extern, %llu plan\n",
                   (unsigned long long)IC.MemFlips,
                   (unsigned long long)IC.CacheNodeFlips,
                   (unsigned long long)IC.CacheSealFlips,
                   (unsigned long long)IC.CachePoolFlips,
                   (unsigned long long)IC.ExternFails,
                   (unsigned long long)IC.PlanTruncations);
    }
    return 3;
  }

  if (RequireWarm) {
    const FacileSim::SnapshotStats &SS = Sim.snapshotStats();
    if (!SS.CacheLoaded || SS.CacheEntriesLoaded == 0 ||
        Sim.sim().stats().FastSteps == 0) {
      std::fprintf(stderr,
                   "error: --require-warm: no warm start happened "
                   "(cache_loaded=%d entries=%llu fast_steps=%llu)\n",
                   SS.CacheLoaded ? 1 : 0,
                   (unsigned long long)SS.CacheEntriesLoaded,
                   (unsigned long long)Sim.sim().stats().FastSteps);
      return 1;
    }
  }
  return 0;
}
