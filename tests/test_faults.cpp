//===- test_faults.cpp - Integrity guards and fault-injection campaigns ---===//
//
// The robustness contract of the runtime's integrity guards: any corruption
// of target memory, action-cache arenas or the packed execution plan — and
// any resource exhaustion — ends in exactly one of three ways:
//
//   1. absorbed: the corrupt entry is detached and the step re-records cold
//      (counted in Stats::CorruptDropped), with state identical to an
//      uninjected run;
//   2. a structured SimFault (CacheCorrupt, PlanCorrupt, ExternFailure,
//      StepLimit, MemoryBudgetExceeded, DecodeError) that freezes the
//      simulation in a consistent, resumable state;
//   3. for corruptions of *simulated* state (memory bit flips), a run that
//      simply computes what the corrupted program computes.
//
// Never a crash, never a hang, never silent divergence of cached replay
// from slow execution. The campaigns below drive > 1000 seeded runs
// through inject::FaultInjector to hold that line.
//
//===----------------------------------------------------------------------===//

#include "src/facile/Compiler.h"
#include "src/inject/FaultInjector.h"
#include "src/isa/Assembler.h"
#include "src/jit/JitEmitter.h"
#include "src/runtime/Simulation.h"
#include "src/sims/SimHarness.h"
#include "src/support/Rng.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

using namespace facile;
using namespace facile::rt;

namespace {

CompiledProgram compileOk(const char *Source) {
  DiagnosticEngine Diag;
  auto P = compileFacile(Source, Diag);
  EXPECT_TRUE(P.has_value()) << Diag.str();
  if (!P)
    std::abort();
  return std::move(*P);
}

isa::TargetImage emptyImage() {
  auto I = isa::assemble("main:\n halt\n");
  return *I;
}

/// Campaign workload: four rt-static phases (placeholder data on every
/// path), two dynamic-result tests with period-15 path coverage, stores to
/// several pages and a self-advancing dynamic input.
const char *campaignSource() {
  return R"(
    init val phase = 0;
    val t = 0;
    fun main() {
      t = mem_ld(2097152);
      if (t % 3 == 0) mem_st(2097156, mem_ld(2097156) + phase * 3);
      else mem_st(2097160, mem_ld(2097160) + 7);
      if (t % 5 == 0) mem_st(2097164, mem_ld(2097164) + phase + 1);
      mem_st(2097152, t + 1);
      retire(1);
      phase = (phase + 1) % 4;
    }
  )";
}

struct ArchState {
  uint64_t MemDigest = 0;
  int64_t Phase = 0;
  int64_t T = 0;
  uint64_t Retired = 0;
  bool operator==(const ArchState &O) const {
    return MemDigest == O.MemDigest && Phase == O.Phase && T == O.T &&
           Retired == O.Retired;
  }
};

ArchState archState(const Simulation &Sim) {
  return {Sim.memory().digest(), Sim.getGlobal("phase"), Sim.getGlobal("t"),
          Sim.stats().RetiredTotal};
}

/// Runs the campaign program uninjected for \p Steps and returns the final
/// architectural state, the baseline the injected runs must match whenever
/// they complete without a fault.
ArchState referenceState(const CompiledProgram &P, const isa::TargetImage &Img,
                         Simulation::Options Opts, uint64_t Steps) {
  Simulation Sim(P, Img);
  (void)Opts;
  RunResult R = Sim.run(Steps);
  EXPECT_EQ(R.Status, RunStatus::Limit);
  return archState(Sim);
}

} // namespace

//===----------------------------------------------------------------------===//
// Seeded campaigns: > 1000 runs, zero crashes, zero silent divergence
//===----------------------------------------------------------------------===//

// Cache-arena corruption: node records, integrity seals and the data pool
// are flipped at random mid-run. Every run must end absorbed, faulted with
// a cache/plan fault, or bit-identical to the uninjected reference.
TEST(FaultCampaign, CacheCorruptionNeverDivergesSilently) {
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();
  const uint64_t Steps = 240;
  ArchState Ref = referenceState(P, Img, {}, Steps);

  uint64_t Clean = 0, Absorbed = 0, Faulted = 0;
  for (uint64_t Seed = 1; Seed <= 500; ++Seed) {
    Simulation Sim(P, Img);
    inject::InjectSpec Spec;
    Spec.Seed = Seed;
    Spec.CachePpm = 60'000; // ~6% of inject() calls flip a cache bit
    inject::FaultInjector Inj(Sim, Spec);
    Inj.arm();

    uint64_t Done = 0, Guard = 0;
    while (Done < Steps && !Sim.faulted() && ++Guard <= Steps * 4) {
      Done += Sim.run(std::min<uint64_t>(8, Steps - Done)).Steps;
      Inj.inject();
    }
    ASSERT_LE(Guard, Steps * 4) << "seed " << Seed << ": hang";

    if (Sim.faulted()) {
      ++Faulted;
      FaultKind K = Sim.fault().Kind;
      EXPECT_TRUE(K == FaultKind::CacheCorrupt || K == FaultKind::PlanCorrupt)
          << "seed " << Seed << ": " << faultKindName(K);
      // A fault freezes the simulation: stepping again is a no-op.
      uint64_t StepsAt = Sim.stats().Steps;
      EXPECT_EQ(Sim.step(), StepEngine::Faulted);
      EXPECT_EQ(Sim.stats().Steps, StepsAt);
    } else {
      EXPECT_TRUE(archState(Sim) == Ref)
          << "seed " << Seed << ": silent divergence after "
          << Inj.counters().total() << " injections";
      if (Sim.stats().CorruptDropped != 0)
        ++Absorbed;
      else
        ++Clean;
    }
  }
  // The campaign must exercise all three outcomes, or the rates are too
  // low to mean anything.
  EXPECT_GT(Clean, 0u);
  EXPECT_GT(Absorbed, 0u);
  EXPECT_GT(Faulted, 0u);
}

// Simulated-memory corruption: flips change what the program computes, so
// there is no reference to compare against — the contract is termination
// with either a normal stop or a structured fault.
TEST(FaultCampaign, MemoryFlipsTerminateCleanly) {
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();
  const uint64_t Steps = 240;

  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Simulation::Options Opts;
    Opts.StepLimit = Steps * 2; // watchdog backs up the loop guard
    Simulation Sim(P, Img, Opts);
    inject::InjectSpec Spec;
    Spec.Seed = Seed;
    Spec.MemPpm = 200'000;
    inject::FaultInjector Inj(Sim, Spec);

    uint64_t Done = 0, Guard = 0;
    while (Done < Steps && !Sim.faulted() && !Sim.halted() &&
           ++Guard <= Steps * 4) {
      Done += Sim.run(std::min<uint64_t>(8, Steps - Done)).Steps;
      Inj.inject();
    }
    ASSERT_LE(Guard, Steps * 4) << "seed " << Seed << ": hang";
    if (Sim.faulted())
      EXPECT_NE(Sim.fault().Kind, FaultKind::None) << "seed " << Seed;
  }
}

// Plan truncation: dropping tail instructions from the packed streams must
// surface as a PlanCorrupt fault on the next step — the shape check frames
// the plan before anything executes against it.
TEST(FaultCampaign, PlanTruncationFaultsStructurally) {
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();

  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    Simulation Sim(P, Img);
    Rng R(Seed);
    uint64_t Warm = 1 + R.below(60);
    EXPECT_EQ(Sim.run(Warm).Status, RunStatus::Limit);

    ExecPlan &Plan = Sim.mutablePlan();
    std::vector<XInst> &Stream = R.below(2) == 0 ? Plan.Code : Plan.Fast;
    ASSERT_FALSE(Stream.empty());
    Stream.resize(Stream.size() - 1 - R.below(std::min<size_t>(4, Stream.size())));

    RunResult Res = Sim.run(10);
    ASSERT_EQ(Res.Status, RunStatus::Faulted) << "seed " << Seed;
    EXPECT_EQ(Res.Fault.Kind, FaultKind::PlanCorrupt);
    EXPECT_EQ(Res.Steps, 0u); // caught before the step executed anything
    // Frozen, not crashed: the fault is sticky and stepping is inert.
    EXPECT_EQ(Sim.step(), StepEngine::Faulted);
  }
}

// Extern failure: a failing model hook raises ExternFailure; after
// clearFault() the simulation resumes and completes.
TEST(FaultCampaign, ExternFailureIsResumable) {
  CompiledProgram P = compileOk(R"(
    extern observe(int, int) : int;
    init val k = 0;
    val t = 0;
    fun main() {
      t = mem_ld(2097152);
      val r = observe(k, t);
      mem_st(2097252, r);
      mem_st(2097152, t + 1);
      k = (k + 1) % 3;
    }
  )");
  isa::TargetImage Img = emptyImage();
  const uint64_t Steps = 120;

  uint64_t FaultedRuns = 0;
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    Simulation Sim(P, Img);
    ASSERT_TRUE(Sim.registerExtern(
        "observe", [](const int64_t *A, size_t) { return A[0] * 10 + 1; }));
    inject::InjectSpec Spec;
    Spec.Seed = Seed;
    Spec.ExternPpm = 20'000; // ~2% of extern calls fail
    inject::FaultInjector Inj(Sim, Spec);
    Inj.arm();

    uint64_t Done = 0, Guard = 0;
    while (Done < Steps && ++Guard <= Steps * 4) {
      RunResult R = Sim.run(Steps - Done);
      Done += R.Steps;
      if (R.Status == RunStatus::Faulted) {
        ++FaultedRuns;
        ASSERT_EQ(R.Fault.Kind, FaultKind::ExternFailure) << "seed " << Seed;
        Sim.clearFault(); // the run loop owns the retry policy
      }
    }
    ASSERT_LE(Guard, Steps * 4) << "seed " << Seed << ": hang";
    EXPECT_EQ(Sim.stats().Steps, Steps + Sim.stats().Faults);
  }
  EXPECT_GT(FaultedRuns, 0u);
}

// Integration: the full harness (uarch models as externs, statsJson) under
// a mixed campaign. Exit must be a normal stop or a structured fault, and
// the stats line must carry the fault/guard/bypass blocks.
TEST(FaultCampaign, HarnessSurvivesMixedInjection) {
  const workload::WorkloadSpec *Spec = workload::findSpec("compress");
  ASSERT_NE(Spec, nullptr);
  isa::TargetImage Img = workload::generate(*Spec, 1u << 20);

  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    rt::Simulation::Options Opts;
    Opts.StepLimit = 400'000;
    sims::FacileSim Sim(sims::SimKind::OutOfOrder, Img, Opts);
    inject::InjectSpec IS;
    IS.Seed = Seed;
    IS.MemPpm = 50'000;
    IS.CachePpm = 50'000;
    IS.ExternPpm = 2'000;
    inject::FaultInjector Inj(Sim.sim(), IS);
    Inj.arm();

    uint64_t Guard = 0;
    while (!Sim.sim().halted() && !Sim.faulted() &&
           Sim.sim().stats().RetiredTotal < 60'000 && ++Guard <= 4'000) {
      Sim.run(Sim.sim().stats().RetiredTotal + 2'000);
      Inj.inject();
    }
    ASSERT_LE(Guard, 4'000u) << "seed " << Seed << ": hang";

    std::string Json = Sim.statsJson();
    EXPECT_NE(Json.find("\"fault\":{\"kind\":\""), std::string::npos);
    EXPECT_NE(Json.find("\"guard\":{\"faults\":"), std::string::npos);
    EXPECT_NE(Json.find("\"bypass\":{"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Deterministic guard-point checks
//===----------------------------------------------------------------------===//

// Corrupting a head node before it is replayed is detected before any
// dynamic instruction runs, so the step is absorbed: entry detached,
// re-recorded cold, no fault, architectural state unharmed.
TEST(Guards, PreExecutionCorruptionIsAbsorbed) {
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();
  ArchState Ref = referenceState(P, Img, {}, 40);

  Simulation Sim(P, Img);
  EXPECT_EQ(Sim.run(20).Status, RunStatus::Limit);
  ASSERT_GT(Sim.cache().nodeCount(), 0u);
  // Make every node's action id illegal: whichever entry the next step
  // replays, the pre-execution check trips first.
  ActionCache &C = Sim.mutableCache();
  for (uint32_t I = 0; I != C.nodeCount(); ++I)
    C.node(I).ActionId = 1 << 30;

  EXPECT_EQ(Sim.run(20).Status, RunStatus::Limit);
  EXPECT_FALSE(Sim.faulted());
  EXPECT_GT(Sim.stats().CorruptDropped, 0u);
  EXPECT_TRUE(archState(Sim) == Ref);
}

// Flipping placeholder data is caught by the seal sweep before the node
// executes. If no node of the step ran yet the step is absorbed (detach +
// cold re-record, state identical to an uninjected run); if an earlier
// node already executed, the step cannot be retried and must fault.
// Either way: detected, never silent.
TEST(Guards, PoolDataCorruptionIsDetected) {
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();
  ArchState Ref = referenceState(P, Img, {}, 120);

  Simulation Sim(P, Img);
  // Warm until replay happens and placeholders exist.
  EXPECT_EQ(Sim.run(80).Status, RunStatus::Limit);
  ASSERT_GT(Sim.stats().FastSteps, 0u);
  ActionCache &C = Sim.mutableCache();
  ASSERT_GT(C.dataSize(), 0u);
  for (uint32_t I = 0; I != C.dataSize(); ++I)
    C.mutableData()[I] ^= 1;

  RunResult R = Sim.run(40);
  if (R.Status == RunStatus::Faulted) {
    EXPECT_EQ(R.Fault.Kind, FaultKind::CacheCorrupt);
    EXPECT_NE(R.Fault.Detail.find("seal"), std::string::npos);
  } else {
    EXPECT_GT(Sim.stats().CorruptDropped, 0u);
    EXPECT_TRUE(archState(Sim) == Ref);
  }
}

// A flipped seal word with intact payload is also caught (the seal array
// itself is not trusted).
TEST(Guards, SealFlipIsCaught) {
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  EXPECT_EQ(Sim.run(80).Status, RunStatus::Limit);
  ActionCache &C = Sim.mutableCache();
  ASSERT_GT(C.nodeCount(), 0u);
  for (uint32_t I = 0; I != C.nodeCount(); ++I)
    C.mutableSeals()[I] ^= 0x8000'0000'0000'0000ULL;

  // Every replayed entry now fails verification. Head-node failures are
  // absorbed (no instruction ran yet); the run must stay correct.
  RunResult R = Sim.run(40);
  if (R.Status == RunStatus::Faulted)
    EXPECT_EQ(R.Fault.Kind, FaultKind::CacheCorrupt);
  else
    EXPECT_GT(Sim.stats().CorruptDropped, 0u);
}

TEST(Guards, StepLimitFaultsAndResumes) {
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();
  Simulation::Options Opts;
  Opts.StepLimit = 100;
  Simulation Sim(P, Img, Opts);

  RunResult R = Sim.run(1'000);
  ASSERT_EQ(R.Status, RunStatus::Faulted);
  EXPECT_EQ(R.Fault.Kind, FaultKind::StepLimit);
  EXPECT_EQ(Sim.stats().Steps, 100u);

  // The watchdog is a budget, not a corruption: raise it and resume.
  Sim.setStepLimit(0);
  Sim.clearFault();
  EXPECT_EQ(Sim.run(50).Status, RunStatus::Limit);
  EXPECT_EQ(Sim.stats().Steps, 150u);
}

TEST(Guards, DeadlineHookFaultsAndResumes) {
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);

  // An immediately-expired deadline is consulted on the very next step
  // (arming forces a check before the 64-step period elapses).
  Sim.setDeadlineHook([] { return true; });
  RunResult R = Sim.run(1'000);
  ASSERT_EQ(R.Status, RunStatus::Faulted);
  EXPECT_EQ(R.Fault.Kind, FaultKind::DeadlineExceeded);
  uint64_t StepsAtFault = Sim.stats().Steps;
  EXPECT_LT(StepsAtFault, Simulation::DeadlineCheckPeriod);

  // A deadline is a budget, not a corruption: drop the hook, clear the
  // fault, and the run continues from exactly where it stopped.
  Sim.setDeadlineHook(nullptr);
  Sim.clearFault();
  EXPECT_EQ(Sim.run(50).Status, RunStatus::Limit);
  EXPECT_EQ(Sim.stats().Steps, StepsAtFault + 50);

  // An unexpired deadline costs a check at most every DeadlineCheckPeriod
  // steps and never fires.
  uint64_t Calls = 0;
  Sim.setDeadlineHook([&Calls] {
    ++Calls;
    return false;
  });
  EXPECT_EQ(Sim.run(256).Status, RunStatus::Limit);
  EXPECT_GE(Calls, 1u);
  EXPECT_LE(Calls, 256 / Simulation::DeadlineCheckPeriod + 1);
  EXPECT_FALSE(Sim.faulted());
}

TEST(Guards, MemoryBudgetFaultsAndResumes) {
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();
  Simulation::Options Opts;
  Opts.MemPageBudget = 1; // the text page uses it up; stores need more
  Simulation Sim(P, Img, Opts);

  RunResult R = Sim.run(1'000);
  ASSERT_EQ(R.Status, RunStatus::Faulted);
  EXPECT_EQ(R.Fault.Kind, FaultKind::MemoryBudgetExceeded);

  // Lifting the budget makes the simulation resumable; the dropped writes
  // stay dropped (the fault said so), but execution continues.
  Sim.memory().setPageBudget(0);
  Sim.clearFault();
  EXPECT_EQ(Sim.run(50).Status, RunStatus::Limit);
}

TEST(Guards, UnregisteredExternFaultsInsteadOfAborting) {
  CompiledProgram P = compileOk(R"(
    extern probe(int) : int;
    init val k = 0;
    fun main() { val r = probe(k); mem_st(2097252, r); k = 1 - k; }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  RunResult R = Sim.run(10);
  ASSERT_EQ(R.Status, RunStatus::Faulted);
  EXPECT_EQ(R.Fault.Kind, FaultKind::ExternFailure);
  EXPECT_NE(R.Fault.Detail.find("unregistered"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Diagnosable host API (no aborts on bad names)
//===----------------------------------------------------------------------===//

TEST(HostApi, RegisterExternRejectsUnknownNames) {
  CompiledProgram P = compileOk(R"(
    extern known(int) : int;
    init val k = 0;
    fun main() { val r = known(k); k = 1 - k; }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  EXPECT_TRUE(
      Sim.registerExtern("known", [](const int64_t *, size_t) -> int64_t {
        return 0;
      }));
  EXPECT_FALSE(
      Sim.registerExtern("unknown", [](const int64_t *, size_t) -> int64_t {
        return 0;
      }));
}

TEST(HostApi, TryGlobalAccessorsReportUnknownNames) {
  CompiledProgram P = compileOk(R"(
    init val n = 7;
    fun main() { n = n + 1; }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  int64_t V = 0;
  EXPECT_TRUE(Sim.tryGetGlobal("n", V));
  EXPECT_EQ(V, 7);
  EXPECT_FALSE(Sim.tryGetGlobal("no_such_global", V));
  EXPECT_TRUE(Sim.trySetGlobal("n", 42));
  EXPECT_TRUE(Sim.tryGetGlobal("n", V));
  EXPECT_EQ(V, 42);
  EXPECT_FALSE(Sim.trySetGlobal("no_such_global", 1));
}

//===----------------------------------------------------------------------===//
// Recovery edges: miss position
//===----------------------------------------------------------------------===//

// Miss on the entry's FIRST Test node: the replayed prefix is empty and
// recovery must rebuild from the head.
TEST(RecoveryEdges, MissOnFirstTestNode) {
  CompiledProgram P = compileOk(R"(
    init val k = 0;
    val out = 0;
    fun main() {
      if (mem_ld(2097152) == 1) out = 111;
      else out = 222;
      mem_st(2097300, out);
      k = 1 - k;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  Sim.step(); // k=0: records the false arm
  Sim.step(); // k=1: records the false arm
  Sim.step(); // k=0: fast replay
  ASSERT_EQ(Sim.stats().FastSteps, 1u);
  Sim.memory().write32(2097152, 1);
  EXPECT_EQ(Sim.step(), StepEngine::FastThenSlow); // miss at the head Test
  EXPECT_EQ(Sim.stats().Misses, 1u);
  EXPECT_EQ(Sim.memory().read32(2097300), 111u);
  // Both arms recorded now: flipping back replays without a miss.
  Sim.memory().write32(2097152, 0);
  EXPECT_EQ(Sim.step(), StepEngine::Fast);
  EXPECT_EQ(Sim.memory().read32(2097300), 222u);
  EXPECT_EQ(Sim.stats().Misses, 1u);
  EXPECT_FALSE(Sim.faulted());
}

// Miss on the LAST Test before the End node: the whole prefix replays,
// recovery supplies only the tail.
TEST(RecoveryEdges, MissImmediatelyBeforeEnd) {
  CompiledProgram P = compileOk(R"(
    init val k = 0;
    val a = 0;
    val b = 0;
    fun main() {
      if (mem_ld(2097152) == 0) a = 1; else a = 2;
      if (mem_ld(2097156) == 0) b = 10; else b = 20;
      mem_st(2097300, a * 100 + b);
      k = 1 - k;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  Sim.step();
  Sim.step();
  Sim.step();
  ASSERT_EQ(Sim.stats().FastSteps, 1u);
  EXPECT_EQ(Sim.memory().read32(2097300), 110u);
  // First test unchanged, second flips: the miss is the final Test.
  Sim.memory().write32(2097156, 5);
  EXPECT_EQ(Sim.step(), StepEngine::FastThenSlow);
  EXPECT_EQ(Sim.stats().Misses, 1u);
  EXPECT_EQ(Sim.memory().read32(2097300), 120u);
  Sim.memory().write32(2097156, 0);
  EXPECT_EQ(Sim.step(), StepEngine::Fast);
  EXPECT_EQ(Sim.memory().read32(2097300), 110u);
  EXPECT_FALSE(Sim.faulted());
}

// Back-to-back misses on consecutive steps, covering all four path
// combinations; afterwards every combination replays fast.
TEST(RecoveryEdges, BackToBackMisses) {
  CompiledProgram P = compileOk(R"(
    init val k = 0;
    val a = 0;
    val b = 0;
    fun main() {
      if (mem_ld(2097152) == 0) a = 1; else a = 2;
      if (mem_ld(2097156) == 0) b = 10; else b = 20;
      mem_st(2097300, a * 100 + b);
      k = 0;
    }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  Sim.step(); // (0,0): cold record
  EXPECT_EQ(Sim.memory().read32(2097300), 110u);

  Sim.memory().write32(2097152, 1);
  EXPECT_EQ(Sim.step(), StepEngine::FastThenSlow); // (1,0): miss #1
  EXPECT_EQ(Sim.memory().read32(2097300), 210u);

  Sim.memory().write32(2097156, 1);
  EXPECT_EQ(Sim.step(), StepEngine::FastThenSlow); // (1,1): miss #2
  EXPECT_EQ(Sim.memory().read32(2097300), 220u);

  Sim.memory().write32(2097152, 0);
  EXPECT_EQ(Sim.step(), StepEngine::FastThenSlow); // (0,1): miss #3
  EXPECT_EQ(Sim.memory().read32(2097300), 120u);
  EXPECT_EQ(Sim.stats().Misses, 3u);

  // All four paths recorded: cycle them again, all fast, no new misses.
  const uint32_t Want[4][3] = {
      {0, 0, 110}, {1, 0, 210}, {1, 1, 220}, {0, 1, 120}};
  for (const auto &W : Want) {
    Sim.memory().write32(2097152, W[0]);
    Sim.memory().write32(2097156, W[1]);
    EXPECT_EQ(Sim.step(), StepEngine::Fast);
    EXPECT_EQ(Sim.memory().read32(2097300), W[2]);
  }
  EXPECT_EQ(Sim.stats().Misses, 3u);
  EXPECT_FALSE(Sim.faulted());
}

//===----------------------------------------------------------------------===//
// Adaptive memoization bypass
//===----------------------------------------------------------------------===//

// A key stream wide enough to thrash a tiny cache budget trips the bypass:
// record/replay shuts off, steps run slow-unrecorded, and after the
// cooldown memoization resumes. Uses the runtime's default observation
// window and cooldown.
TEST(Bypass, TripsUnderThrashingAndRecovers) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() { n = (n + 1) % 4096; retire(1); }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation::Options Opts;
  Opts.CacheBudgetBytes = 16 << 10; // thrashes: 4096 keys never fit
  Simulation Sim(P, Img, Opts);

  // Step until the bypass trips and then re-opens.
  uint64_t TripStep = 0, ResumeStep = 0;
  for (uint64_t I = 1; I <= 32'768 && ResumeStep == 0; ++I) {
    ASSERT_NE(Sim.step(), StepEngine::Faulted);
    if (TripStep == 0 && Sim.bypassActive())
      TripStep = I;
    else if (TripStep != 0 && !Sim.bypassActive())
      ResumeStep = I;
  }
  ASSERT_GT(TripStep, 0u) << "thrashing never tripped the bypass";
  ASSERT_GT(ResumeStep, TripStep) << "the bypass never re-opened";
  const Simulation::Stats &S = Sim.stats();
  EXPECT_EQ(S.BypassActivations, 1u);
  // Every step strictly between the trip and the resume ran unrecorded.
  EXPECT_EQ(S.BypassedSteps, ResumeStep - TripStep - 1);
  EXPECT_GT(Sim.cache().stats().Clears, 0u);

  // Recovered: the resumed steps go through the cache again.
  uint64_t Lookups = Sim.cache().stats().Lookups;
  EXPECT_EQ(Sim.run(64).Status, RunStatus::Limit);
  EXPECT_FALSE(Sim.bypassActive());
  EXPECT_EQ(Sim.cache().stats().Lookups, Lookups + 64);
  // Semantics are unchanged by the bypass.
  EXPECT_EQ(Sim.getGlobal("n"), int64_t((ResumeStep + 64) % 4096));
}

// A loop that fits its cache must never trip the bypass: misses during
// cold warm-up don't count without clears in the same window. The cold lap
// is 2048 all-slow steps, which covers the runtime's first two whole
// observation windows.
TEST(Bypass, DoesNotTripDuringWarmup) {
  CompiledProgram P = compileOk(R"(
    init val n = 0;
    fun main() { n = (n + 1) % 2048; retire(1); }
  )");
  isa::TargetImage Img = emptyImage();
  Simulation Sim(P, Img);
  EXPECT_EQ(Sim.run(3 * 2048).Status, RunStatus::Limit);
  EXPECT_EQ(Sim.stats().BypassActivations, 0u);
  EXPECT_EQ(Sim.stats().BypassedSteps, 0u);
  // Only the cold lap recorded; the two warm laps replayed in full.
  EXPECT_EQ(Sim.stats().FastSteps, 2u * 2048);
}

//===----------------------------------------------------------------------===//
// Fault injection with the template-JIT backend forced on
//===----------------------------------------------------------------------===//

// The cache-corruption campaign rerun with Backend=Jit at threshold 1, so
// compiled actions, block bodies and entry traces are live when arenas are
// flipped. The robustness contract does not weaken under native code: every
// run still ends clean (bit-identical to the uninjected interpreter
// reference), absorbed, or with a structured cache/plan fault — never a
// crash, hang, or silent divergence. Guard pages and the seal sweep have to
// catch corruption *before* compiled code replays it, and invalidation has
// to drop any trace or block baked over a rebuilt arena.
TEST(FaultCampaign, JitCacheCorruptionNeverDivergesSilently) {
  if (!facile::jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();
  const uint64_t Steps = 240;
  ArchState Ref = referenceState(P, Img, {}, Steps);

  Simulation::Options JitOpts;
  JitOpts.Backend = BackendKind::Jit;
  JitOpts.JitThreshold = 1;

  uint64_t Clean = 0, Absorbed = 0, Faulted = 0, CompiledRuns = 0;
  for (uint64_t Seed = 1; Seed <= 500; ++Seed) {
    Simulation Sim(P, Img, JitOpts);
    ASSERT_STREQ(Sim.backendName(), "jit");
    inject::InjectSpec Spec;
    Spec.Seed = Seed;
    Spec.CachePpm = 60'000;
    inject::FaultInjector Inj(Sim, Spec);
    Inj.arm();

    uint64_t Done = 0, Guard = 0;
    while (Done < Steps && !Sim.faulted() && ++Guard <= Steps * 4) {
      Done += Sim.run(std::min<uint64_t>(8, Steps - Done)).Steps;
      Inj.inject();
    }
    ASSERT_LE(Guard, Steps * 4) << "seed " << Seed << ": hang";
    if (Sim.jitCompiledActions() > 0)
      ++CompiledRuns;

    if (Sim.faulted()) {
      ++Faulted;
      FaultKind K = Sim.fault().Kind;
      EXPECT_TRUE(K == FaultKind::CacheCorrupt || K == FaultKind::PlanCorrupt)
          << "seed " << Seed << ": " << faultKindName(K);
      uint64_t StepsAt = Sim.stats().Steps;
      EXPECT_EQ(Sim.step(), StepEngine::Faulted);
      EXPECT_EQ(Sim.stats().Steps, StepsAt);
    } else {
      EXPECT_TRUE(archState(Sim) == Ref)
          << "seed " << Seed << ": silent divergence after "
          << Inj.counters().total() << " injections";
      if (Sim.stats().CorruptDropped != 0)
        ++Absorbed;
      else
        ++Clean;
    }
  }
  EXPECT_GT(Clean, 0u);
  EXPECT_GT(Absorbed, 0u);
  EXPECT_GT(Faulted, 0u);
  // The campaign is only meaningful if native code was actually on the
  // replay path in (nearly) every run.
  EXPECT_GT(CompiledRuns, 450u);
}

// Memory flips under the JIT: corrupted *simulated* state changes what the
// program computes, compiled traces included. Contract: termination with a
// normal stop or a structured fault, never a crash or hang.
TEST(FaultCampaign, JitMemoryFlipsTerminateCleanly) {
  if (!facile::jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();
  const uint64_t Steps = 240;

  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Simulation::Options Opts;
    Opts.Backend = BackendKind::Jit;
    Opts.JitThreshold = 1;
    Opts.StepLimit = Steps * 2;
    Simulation Sim(P, Img, Opts);
    inject::InjectSpec Spec;
    Spec.Seed = Seed;
    Spec.MemPpm = 200'000;
    inject::FaultInjector Inj(Sim, Spec);

    uint64_t Done = 0, Guard = 0;
    while (Done < Steps && !Sim.faulted() && !Sim.halted() &&
           ++Guard <= Steps * 4) {
      Done += Sim.run(std::min<uint64_t>(8, Steps - Done)).Steps;
      Inj.inject();
    }
    ASSERT_LE(Guard, Steps * 4) << "seed " << Seed << ": hang";
    if (Sim.faulted())
      EXPECT_NE(Sim.fault().Kind, FaultKind::None) << "seed " << Seed;
  }
}

// Plan truncation under the JIT: privatizing the plan (mutablePlan) disarms
// the JIT session, and the shape check still frames the truncated plan
// before anything executes against it.
TEST(FaultCampaign, JitPlanTruncationFaultsStructurally) {
  if (!facile::jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  CompiledProgram P = compileOk(campaignSource());
  isa::TargetImage Img = emptyImage();

  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    Simulation::Options Opts;
    Opts.Backend = BackendKind::Jit;
    Opts.JitThreshold = 1;
    Simulation Sim(P, Img, Opts);
    Rng R(Seed);
    uint64_t Warm = 1 + R.below(60);
    EXPECT_EQ(Sim.run(Warm).Status, RunStatus::Limit);

    ExecPlan &Plan = Sim.mutablePlan();
    std::vector<XInst> &Stream = R.below(2) == 0 ? Plan.Code : Plan.Fast;
    ASSERT_FALSE(Stream.empty());
    Stream.resize(Stream.size() - 1 -
                  R.below(std::min<size_t>(4, Stream.size())));

    RunResult Res = Sim.run(10);
    ASSERT_EQ(Res.Status, RunStatus::Faulted) << "seed " << Seed;
    EXPECT_EQ(Res.Fault.Kind, FaultKind::PlanCorrupt);
    EXPECT_EQ(Res.Steps, 0u);
    EXPECT_EQ(Sim.step(), StepEngine::Faulted);
  }
}
