//===- bench_micro.cpp - google-benchmark microbenchmarks --------------------===//
//
// Microbenchmarks of the primitives underneath the tables: instruction
// decode, functional execution, cache/predictor probes, action-cache key
// hashing and interning, snapshot CRC throughput, and the per-step cost of
// the fast and slow Facile engines (the constant factors behind Figures
// 11/12).
//
//===----------------------------------------------------------------------===//

#include "src/fastsim/FastSim.h"
#include "src/isa/Assembler.h"
#include "src/sims/SimHarness.h"
#include "src/snapshot/Serializer.h"
#include "src/uarch/FunctionalCore.h"
#include "src/workload/Workloads.h"

#include <benchmark/benchmark.h>

#include <cstring>

using namespace facile;

namespace {

const isa::TargetImage &loopImage() {
  static const isa::TargetImage Image = *isa::assemble(R"(
    main:
      li r1, 1000000000
    loop:
      add r2, r2, r1
      xor r3, r3, r2
      slli r4, r2, 3
      and r5, r4, r3
      addi r1, r1, -1
      bne r1, r0, loop
      halt
  )");
  return Image;
}

void BM_Decode(benchmark::State &State) {
  uint32_t Word = isa::encodeR(isa::AluFunct::Add, 1, 2, 3);
  for (auto _ : State) {
    benchmark::DoNotOptimize(isa::decode(Word));
    Word += 1 << 11; // vary rs2 so the decoder isn't value-predictable
  }
}
BENCHMARK(BM_Decode);

void BM_FunctionalExecute(benchmark::State &State) {
  const isa::TargetImage &Image = loopImage();
  TargetMemory Mem;
  Mem.loadImage(Image);
  ArchState Arch = makeInitialState(Image);
  for (auto _ : State) {
    if (!Image.isTextAddr(Arch.Pc))
      Arch = makeInitialState(Image);
    isa::DecodedInst Inst = isa::decode(Image.fetch(Arch.Pc));
    executeInst(Inst, Arch, Mem);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FunctionalExecute);

void BM_CacheAccess(benchmark::State &State) {
  MemoryHierarchy MH;
  uint32_t Addr = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(MH.accessData(Addr, false));
    Addr += 64; // new line every access
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_PredictorResolve(benchmark::State &State) {
  BranchUnit BU;
  uint32_t Pc = 0x1000;
  bool Taken = false;
  for (auto _ : State) {
    benchmark::DoNotOptimize(BU.resolveDirection(Pc, Taken));
    Taken = !Taken;
    Pc = 0x1000 + ((Pc + 4) & 0xfff);
  }
}
BENCHMARK(BM_PredictorResolve);

void BM_PipelineKeyHash(benchmark::State &State) {
  fastsim::PipelineState Key;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Key.hash());
    ++Key.Pc;
  }
}
BENCHMARK(BM_PipelineKeyHash);

/// CRC-32 throughput over a snapshot-sized buffer: every section of a
/// FACSNAP2 file passes through it on load.
void BM_Crc32(benchmark::State &State) {
  std::vector<uint8_t> Buf(16 << 20);
  for (size_t I = 0; I != Buf.size(); ++I)
    Buf[I] = static_cast<uint8_t>(I * 131 + 17);
  for (auto _ : State)
    benchmark::DoNotOptimize(snapshot::crc32(Buf.data(), Buf.size()));
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Buf.size()));
}
BENCHMARK(BM_Crc32);

/// internKey on a real ooo.fac step key (the bytes serializeKeyInto
/// produced, read back from a warmed cache). miss:0 re-interns one key;
/// miss:1 interns a fresh key every iteration (hash, probe, pool append).
void BM_InternKeyOoo(benchmark::State &State) {
  sims::FacileSim Sim(sims::SimKind::OutOfOrder, loopImage());
  Sim.run(1'000);
  const rt::ActionCache &Warm = Sim.sim().cache();
  std::string Key(Warm.keyData(0), Warm.keyLen(0));
  const bool Miss = State.range(0) != 0;
  rt::ActionCache C(size_t(1) << 30);
  C.internKey(Key.data(), Key.size());
  uint64_t N = 0;
  for (auto _ : State) {
    if (Miss) {
      // Distinct keys; clear now and then so the pool stays bounded.
      if ((++N & 0x3fff) == 0) {
        State.PauseTiming();
        C.clear();
        State.ResumeTiming();
      }
      std::memcpy(Key.data(), &N, sizeof(N));
    }
    benchmark::DoNotOptimize(C.internKey(Key.data(), Key.size()));
  }
  State.SetItemsProcessed(State.iterations());
  State.counters["key_bytes"] = static_cast<double>(Key.size());
}
BENCHMARK(BM_InternKeyOoo)->ArgName("miss")->Arg(0)->Arg(1);

/// Per-step cost of the Facile engines on the steady-state loop above:
/// fast replay vs. slow (memoization off) — the constant factors behind
/// Figure 12.
void BM_FacileFastStep(benchmark::State &State) {
  sims::FacileSim Sim(sims::SimKind::OutOfOrder, loopImage());
  Sim.run(50'000); // warm the action cache
  for (auto _ : State)
    Sim.sim().step();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FacileFastStep);

void BM_FacileSlowStep(benchmark::State &State) {
  rt::Simulation::Options Off;
  Off.Memoize = false;
  sims::FacileSim Sim(sims::SimKind::OutOfOrder, loopImage(), Off);
  Sim.run(5'000);
  for (auto _ : State)
    Sim.sim().step();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FacileSlowStep);

void BM_FastSimCycleReplay(benchmark::State &State) {
  fastsim::FastSim Sim(loopImage());
  Sim.run(50'000);
  for (auto _ : State)
    Sim.stepCycle();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FastSimCycleReplay);

void BM_FastSimCycleSlow(benchmark::State &State) {
  fastsim::FastSim::Options Off;
  Off.Memoize = false;
  fastsim::FastSim Sim(loopImage(), Off);
  Sim.run(5'000);
  for (auto _ : State)
    Sim.stepCycle();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FastSimCycleSlow);

void BM_CompileOooSimulator(benchmark::State &State) {
  std::string Source = sims::simulatorSource(sims::SimKind::OutOfOrder);
  for (auto _ : State) {
    DiagnosticEngine Diag;
    auto P = compileFacile(Source, Diag);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_CompileOooSimulator);

void BM_WorkloadGenerate(benchmark::State &State) {
  const workload::WorkloadSpec &Spec = *workload::findSpec("compress");
  for (auto _ : State) {
    isa::TargetImage Image = workload::generate(Spec, 8);
    benchmark::DoNotOptimize(Image.Text.data());
  }
}
BENCHMARK(BM_WorkloadGenerate);

} // namespace

BENCHMARK_MAIN();
