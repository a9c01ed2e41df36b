//===- test_differential.cpp - Memoize-on/off differential oracle ------------===//
//
// The refactored action-cache data layer is only safe if the memoizing and
// non-memoizing engines stay bit-identical (the paper's §6.1 claim: fast-
// forwarding computes "exactly the same simulated cycle counts"). This
// suite runs every Facile-written simulator (functional, in-order,
// out-of-order) over each workload twice — Memoize=true vs Memoize=false —
// under roomy and tiny cache budgets, and asserts identical final
// architectural state: every global (scalars and arrays), the
// target-memory digest, RetiredTotal and Cycles. The memoized runs must
// also actually fast-forward (fastForwardedPct() > 0), or the comparison
// is vacuous.
//
// The same oracle covers the execution backends: JitMatchesInterpreter
// holds the template-JIT to bit-identical state and step accounting
// against the interpreting backend.
//
//===----------------------------------------------------------------------===//

#include "src/jit/JitEmitter.h"
#include "src/sims/SimHarness.h"
#include "src/store/CacheStore.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

#include <vector>

#include <dirent.h>
#include <unistd.h>

using namespace facile;
using namespace facile::sims;

namespace {

/// Everything the step function can observably compute.
struct FinalState {
  bool Halted = false;
  uint64_t RetiredTotal = 0;
  uint64_t Cycles = 0;
  uint64_t MemDigest = 0;
  std::vector<int64_t> Globals; ///< scalars and array elements, flattened
  double FfPct = 0.0;
  // Step accounting and backend probes — compared only where the runs are
  // expected to take the same engine path (e.g. JIT vs interpreter), never
  // in operator== (memo-on vs memo-off legitimately differ here).
  uint64_t Steps = 0;
  uint64_t FastSteps = 0;
  uint64_t Misses = 0;
  uint64_t CompiledActions = 0;
  std::string BackendName;

  bool operator==(const FinalState &O) const {
    return Halted == O.Halted && RetiredTotal == O.RetiredTotal &&
           Cycles == O.Cycles && MemDigest == O.MemDigest &&
           Globals == O.Globals;
  }
};

FinalState runOne(SimKind Kind, const isa::TargetImage &Image,
                  rt::Simulation::Options Opts, uint64_t MaxInstrs,
                  PassMode Mode = PassMode::Optimized) {
  FacileSim Sim(Kind, Image, Opts, Mode);
  Sim.run(MaxInstrs);
  FinalState F;
  F.Halted = Sim.sim().halted();
  F.RetiredTotal = Sim.sim().stats().RetiredTotal;
  F.Cycles = Sim.sim().stats().Cycles;
  F.MemDigest = Sim.sim().memory().digest();
  F.FfPct = Sim.sim().stats().fastForwardedPct();
  F.Steps = Sim.sim().stats().Steps;
  F.FastSteps = Sim.sim().stats().FastSteps;
  F.Misses = Sim.sim().stats().Misses;
  F.CompiledActions = Sim.sim().jitCompiledActions();
  F.BackendName = Sim.sim().backendName();
  const CompiledProgram &P = simulatorProgram(Kind, Mode);
  for (const ir::GlobalVar &G : P.Globals) {
    if (G.IsArray)
      for (uint32_t E = 0; E != G.Size; ++E)
        F.Globals.push_back(Sim.sim().getGlobalElem(G.Name, E));
    else
      F.Globals.push_back(Sim.sim().getGlobal(G.Name));
  }
  return F;
}

const char *kindName(SimKind Kind) {
  switch (Kind) {
  case SimKind::Functional:
    return "functional";
  case SimKind::InOrder:
    return "inorder";
  case SimKind::OutOfOrder:
    return "ooo";
  }
  return "?";
}

/// Memo-on (under \p BudgetBytes) vs memo-off over one workload for one
/// sim.
void expectEquivalent(SimKind Kind, const workload::WorkloadSpec &Spec,
                      size_t BudgetBytes, uint64_t MaxInstrs) {
  isa::TargetImage Image = workload::generate(Spec, 2);

  rt::Simulation::Options On;
  On.CacheBudgetBytes = BudgetBytes;
  rt::Simulation::Options Off;
  Off.Memoize = false;

  FinalState Memo = runOne(Kind, Image, On, MaxInstrs);
  FinalState Slow = runOne(Kind, Image, Off, MaxInstrs);

  SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name);
  EXPECT_EQ(Memo.Halted, Slow.Halted);
  EXPECT_EQ(Memo.RetiredTotal, Slow.RetiredTotal);
  EXPECT_EQ(Memo.Cycles, Slow.Cycles);
  EXPECT_EQ(Memo.MemDigest, Slow.MemDigest);
  EXPECT_EQ(Memo.Globals, Slow.Globals);
  // The memoized run must actually exercise the fast engine.
  EXPECT_GT(Memo.FfPct, 0.0);
  EXPECT_EQ(Slow.FfPct, 0.0);
}

/// A budget small enough to force clears mid-run for \p Kind, but big
/// enough that entries survive long enough to replay. The OOO simulator's
/// rt-static state (instruction window, scoreboards) makes its keys and
/// entries an order of magnitude larger than the functional simulator's.
size_t tinyBudget(SimKind Kind) {
  return Kind == SimKind::OutOfOrder ? 512u << 10 : 192u << 10;
}

std::vector<workload::WorkloadSpec> testWorkloads() {
  // One loop-dominated and one branchy/large-footprint workload, shrunk so
  // the unmemoized runs stay test-sized.
  workload::WorkloadSpec Loopy = *workload::findSpec("compress");
  Loopy.DataKWords = 2;
  workload::WorkloadSpec Branchy = *workload::findSpec("gcc");
  Branchy.DataKWords = 2;
  Branchy.NumKernels = 4;
  return {Loopy, Branchy};
}

} // namespace

TEST(Differential, FunctionalMemoOnOff) {
  for (const workload::WorkloadSpec &Spec : testWorkloads())
    expectEquivalent(SimKind::Functional, Spec, 256u << 20, 3'000'000);
}

TEST(Differential, InOrderMemoOnOff) {
  for (const workload::WorkloadSpec &Spec : testWorkloads())
    expectEquivalent(SimKind::InOrder, Spec, 256u << 20, 3'000'000);
}

TEST(Differential, OutOfOrderMemoOnOff) {
  for (const workload::WorkloadSpec &Spec : testWorkloads())
    expectEquivalent(SimKind::OutOfOrder, Spec, 256u << 20, 3'000'000);
}

TEST(Differential, ClearAllTinyBudgetPreservesResults) {
  // The paper's clear-on-full with a tiny budget: constant clears and
  // re-records must not perturb the architectural state.
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder})
    for (const workload::WorkloadSpec &Spec : testWorkloads())
      expectEquivalent(Kind, Spec, tinyBudget(Kind), 1'000'000);
}

TEST(Differential, WarmStartMatchesColdStart) {
  // Warm-starting from a persisted action cache is just more memoization:
  // a run that replays another process's recorded actions must compute the
  // same final architectural state as a cold run. The warm run must also
  // actually replay (FastSteps > 0 from entries it never recorded), or the
  // comparison is vacuous.
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (const workload::WorkloadSpec &Spec : testWorkloads()) {
      SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name);
      isa::TargetImage Image = workload::generate(Spec, 2);
      constexpr uint64_t MaxInstrs = 500'000;
      rt::Simulation::Options Opts;

      FinalState Cold = runOne(Kind, Image, Opts, MaxInstrs);

      FacileSim Builder(Kind, Image, Opts);
      Builder.run(MaxInstrs);
      std::vector<uint8_t> CacheSnap = Builder.cacheBytes();

      FacileSim Warm(Kind, Image, Opts);
      std::string Err;
      ASSERT_TRUE(Warm.loadCacheBytes(CacheSnap, &Err)) << Err;
      ASSERT_GT(Warm.snapshotStats().CacheEntriesLoaded, 0u);
      Warm.run(MaxInstrs);
      EXPECT_GT(Warm.sim().stats().FastSteps, 0u);

      FinalState W;
      W.Halted = Warm.sim().halted();
      W.RetiredTotal = Warm.sim().stats().RetiredTotal;
      W.Cycles = Warm.sim().stats().Cycles;
      W.MemDigest = Warm.sim().memory().digest();
      for (const ir::GlobalVar &G : simulatorProgram(Kind).Globals) {
        if (G.IsArray)
          for (uint32_t E = 0; E != G.Size; ++E)
            W.Globals.push_back(Warm.sim().getGlobalElem(G.Name, E));
        else
          W.Globals.push_back(Warm.sim().getGlobal(G.Name));
      }
      EXPECT_EQ(W, Cold);
    }
  }
}

TEST(Differential, PassesOnOffBitIdentical) {
  // The optimization pipeline must be invisible to the architecture: the
  // optimized program (memoized and not) computes the same final state as
  // the raw lowered IR (memoized and not), under a tiny cache budget.
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (const workload::WorkloadSpec &Spec : testWorkloads()) {
      isa::TargetImage Image = workload::generate(Spec, 2);
      constexpr uint64_t MaxInstrs = 1'000'000;

      rt::Simulation::Options Off;
      Off.Memoize = false;
      FinalState RawSlow =
          runOne(Kind, Image, Off, MaxInstrs, PassMode::Raw);
      FinalState OptSlow =
          runOne(Kind, Image, Off, MaxInstrs, PassMode::Optimized);

      SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name);
      EXPECT_EQ(OptSlow, RawSlow) << "passes changed unmemoized execution";

      rt::Simulation::Options On;
      On.CacheBudgetBytes = tinyBudget(Kind);
      FinalState RawMemo = runOne(Kind, Image, On, MaxInstrs, PassMode::Raw);
      FinalState OptMemo =
          runOne(Kind, Image, On, MaxInstrs, PassMode::Optimized);
      EXPECT_EQ(OptMemo, RawSlow) << "passes changed memoized execution";
      EXPECT_EQ(RawMemo, RawSlow) << "memoization broke on raw IR";
      EXPECT_GT(OptMemo.FfPct, 0.0);
      EXPECT_GT(RawMemo.FfPct, 0.0);
    }
  }
}

TEST(Differential, SharedPlanMatchesOwnedPlan) {
  // The facilesimd refactor lets many simulations reference one immutable
  // SharedProgram (program + image + pre-built ExecPlan) instead of each
  // building a private plan. Sharing must be invisible: a simulation over
  // the shared bundle computes exactly the final state of the legacy
  // owned-plan constructor, memoized and not — and stays on the shared
  // plan the whole run (no silent copy-on-write privatization).
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (const workload::WorkloadSpec &Spec : testWorkloads()) {
      isa::TargetImage Image = workload::generate(Spec, 2);
      constexpr uint64_t MaxInstrs = 1'000'000;
      rt::SharedProgram Shared(simulatorProgram(Kind),
                               workload::generate(Spec, 2));

      for (bool Memoize : {true, false}) {
        rt::Simulation::Options Opts;
        Opts.Memoize = Memoize;
        FinalState Owned = runOne(Kind, Image, Opts, MaxInstrs);

        FacileSim Sim(Kind, Shared, Opts);
        Sim.run(MaxInstrs);
        EXPECT_TRUE(Sim.sim().planShared());
        FinalState S;
        S.Halted = Sim.sim().halted();
        S.RetiredTotal = Sim.sim().stats().RetiredTotal;
        S.Cycles = Sim.sim().stats().Cycles;
        S.MemDigest = Sim.sim().memory().digest();
        for (const ir::GlobalVar &G : simulatorProgram(Kind).Globals) {
          if (G.IsArray)
            for (uint32_t E = 0; E != G.Size; ++E)
              S.Globals.push_back(Sim.sim().getGlobalElem(G.Name, E));
          else
            S.Globals.push_back(Sim.sim().getGlobal(G.Name));
        }
        SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name +
                     (Memoize ? " (memoized)" : " (slow)"));
        EXPECT_EQ(S, Owned);
        if (Memoize) {
          EXPECT_GT(Sim.sim().stats().fastForwardedPct(), 0.0);
        }
      }

      // mutablePlan() must privatize: mutating one sharer's plan leaves
      // the shared bundle (and new sharers) untouched.
      rt::Simulation Mutator(Shared, rt::Simulation::Options());
      EXPECT_TRUE(Mutator.planShared());
      Mutator.mutablePlan();
      EXPECT_FALSE(Mutator.planShared());
      rt::Simulation Fresh(Shared, rt::Simulation::Options());
      EXPECT_TRUE(Fresh.planShared());
    }
  }
}

TEST(Differential, StoreBackedMatchesOwnedCache) {
  // The mmap-shared store is a third way to reach the same cache contents:
  // a sim replaying through a read-only base mapping (with its private
  // copy-on-write overlay) must compute exactly what the private
  // deserialized copy computes, which in turn must equal the
  // no-memoization oracle. Both warm paths must actually replay
  // (FastSteps > 0), or the comparison is vacuous.
  std::string StoreDirPath = ::testing::TempDir() + "facile_diff_store";
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (const workload::WorkloadSpec &Spec : testWorkloads()) {
      SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name);
      isa::TargetImage Image = workload::generate(Spec, 2);
      constexpr uint64_t MaxInstrs = 500'000;

      rt::Simulation::Options Off;
      Off.Memoize = false;
      FinalState Oracle = runOne(Kind, Image, Off, MaxInstrs);

      FacileSim Builder(Kind, Image);
      Builder.run(MaxInstrs);
      std::vector<uint8_t> CacheSnap = Builder.cacheBytes();
      store::CacheStoreDir Store(StoreDirPath);
      std::string Err;
      ASSERT_TRUE(Builder.promoteStore(Store, nullptr, &Err)) << Err;

      auto capture = [&](FacileSim &Sim) {
        Sim.run(MaxInstrs);
        FinalState F;
        F.Halted = Sim.sim().halted();
        F.RetiredTotal = Sim.sim().stats().RetiredTotal;
        F.Cycles = Sim.sim().stats().Cycles;
        F.MemDigest = Sim.sim().memory().digest();
        for (const ir::GlobalVar &G : simulatorProgram(Kind).Globals) {
          if (G.IsArray)
            for (uint32_t E = 0; E != G.Size; ++E)
              F.Globals.push_back(Sim.sim().getGlobalElem(G.Name, E));
          else
            F.Globals.push_back(Sim.sim().getGlobal(G.Name));
        }
        return F;
      };

      FacileSim WarmOwned(Kind, Image);
      ASSERT_TRUE(WarmOwned.loadCacheBytes(CacheSnap, &Err)) << Err;
      FinalState Owned = capture(WarmOwned);
      EXPECT_GT(WarmOwned.sim().stats().FastSteps, 0u);
      EXPECT_EQ(Owned, Oracle);

      FacileSim WarmStore(Kind, Image);
      ASSERT_TRUE(WarmStore.attachStore(Store, &Err)) << Err;
      ASSERT_TRUE(WarmStore.sim().cacheBaseAttached());
      FinalState Mapped = capture(WarmStore);
      EXPECT_GT(WarmStore.sim().stats().FastSteps, 0u);
      EXPECT_EQ(Mapped, Oracle);
      EXPECT_EQ(Mapped.MemDigest, Owned.MemDigest);
    }
  }
  // Content addressing keyed every (simulator, workload) pair separately;
  // sweep the shared directory now that all of them are done.
  if (DIR *D = ::opendir(StoreDirPath.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        ::unlink((StoreDirPath + "/" + Name).c_str());
    }
    ::closedir(D);
  }
  ::rmdir(StoreDirPath.c_str());
}

TEST(Differential, JitMatchesInterpreter) {
  // The template-JIT backend is an execution strategy, not a semantics: a
  // run dispatched through compiled actions, block bodies and entry traces
  // must be bit-identical to the interpreting backend — same architectural
  // state, same memory digest, and the same step accounting (Steps,
  // FastSteps, Misses, RetiredTotal, Cycles), since the JIT sits below the
  // memoization layer and never changes which engine a step takes. Runs
  // every simulator over both workloads, memo on and off; memo-off also
  // proves that forcing Backend=Jit with nothing to compile degrades
  // cleanly instead of erroring.
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    for (const workload::WorkloadSpec &Spec : testWorkloads()) {
      isa::TargetImage Image = workload::generate(Spec, 2);
      constexpr uint64_t MaxInstrs = 1'000'000;
      for (bool Memo : {true, false}) {
        SCOPED_TRACE(std::string(kindName(Kind)) + " on " + Spec.Name +
                     (Memo ? " (memo on)" : " (memo off)"));
        rt::Simulation::Options Interp;
        Interp.Memoize = Memo;
        Interp.Backend = rt::BackendKind::Interpret;
        rt::Simulation::Options Jit = Interp;
        Jit.Backend = rt::BackendKind::Jit;
        Jit.JitThreshold = 1; // compile everything hot immediately

        FinalState I = runOne(Kind, Image, Interp, MaxInstrs);
        FinalState J = runOne(Kind, Image, Jit, MaxInstrs);

        EXPECT_EQ(I.BackendName, "interpret");
        EXPECT_EQ(J.BackendName, "jit");
        EXPECT_EQ(J.Halted, I.Halted);
        EXPECT_EQ(J.RetiredTotal, I.RetiredTotal);
        EXPECT_EQ(J.Cycles, I.Cycles);
        EXPECT_EQ(J.MemDigest, I.MemDigest);
        EXPECT_EQ(J.Globals, I.Globals);
        EXPECT_EQ(J.Steps, I.Steps);
        EXPECT_EQ(J.FastSteps, I.FastSteps);
        EXPECT_EQ(J.Misses, I.Misses);
        EXPECT_EQ(I.CompiledActions, 0u);
        if (Memo) {
          // The comparison is vacuous unless the JIT actually compiled
          // and the memoized path actually ran.
          EXPECT_GT(J.CompiledActions, 0u);
          EXPECT_GT(J.FastSteps, 0u);
        }
      }
    }
  }
}
