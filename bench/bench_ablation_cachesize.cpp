//===- bench_ablation_cachesize.cpp - §6.1/§6.2 cache-budget ablation --------===//
//
// The paper limits the specialized action cache to a byte budget and
// clears it when full, reporting that "cache size can be reduced by a
// factor of ten, with little impact on memoized simulator performance"
// (§6.1), and that gcc suffers because its working set exceeds the 256 MB
// budget (§6.2). This harness sweeps the budget on a loop-dominated
// benchmark (tolerant) and a large-footprint benchmark (sensitive).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/sims/SimHarness.h"
#include "src/workload/Workloads.h"

using namespace facile;
using namespace facile::bench;
using namespace facile::sims;

int main(int Argc, char **Argv) {
  BenchArgs Args("bench_ablation_cachesize");
  if (int Rc = Args.parse(Argc, Argv); Rc != support::ArgParse::KeepGoing)
    return Rc;
  double Scale = Args.Scale;
  JsonSink Sink(Args);
  banner("Ablation — action-cache byte budget",
         "10x smaller cache costs little; gcc degrades when over budget",
         "speed and clear counts vs. budget under the paper's "
         "clear-on-full policy, Facile OOO simulator");

  std::printf("%-14s %12s %12s %10s %8s %10s %8s\n", "benchmark", "budget",
              "Kips", "ff %", "clears", "misses", "entries");

  for (const char *Name : {"mgrid", "gcc"}) {
    const workload::WorkloadSpec *Spec = workload::findSpec(Name);
    isa::TargetImage Image = workload::generate(*Spec, 1u << 30);
    uint64_t Budget = scaled(1'500'000, Scale);

    for (size_t CacheMB : {512, 256, 64, 16, 4}) {
      rt::Simulation::Options Opts;
      Opts.CacheBudgetBytes = CacheMB << 20;
      FacileSim Sim(SimKind::OutOfOrder, Image, Opts);
      double T = timeIt([&] { Sim.run(Budget); });
      const rt::Simulation::Stats &S = Sim.sim().stats();
      std::printf("%-14s %9zu MB %12.0f %9.3f%% %8llu %10llu %8zu\n",
                  Spec->Name.c_str(), CacheMB,
                  static_cast<double>(S.RetiredTotal) / T / 1e3,
                  S.fastForwardedPct(),
                  static_cast<unsigned long long>(
                      Sim.sim().cache().stats().Clears),
                  static_cast<unsigned long long>(S.Misses),
                  Sim.sim().cache().entryCount());
      Sink.begin()
          .field("bench", Spec->Name)
          .field("budget_mb", static_cast<uint64_t>(CacheMB))
          .rawField("stats", Sim.statsJson());
      Sink.commit();
    }
  }
  return 0;
}
