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
// holds the template-JIT to bit-identical state, step accounting and
// action-cache arenas against the interpreting backend, and
// JitRegionsMatchInterpreter does the same for a hand-written program
// shaped to exercise every way a slow-engine region can end.
//
//===----------------------------------------------------------------------===//

#include "src/facile/Compiler.h"
#include "src/isa/Assembler.h"
#include "src/jit/JitEmitter.h"
#include "src/sims/SimHarness.h"
#include "src/snapshot/Serializer.h"
#include "src/store/CacheStore.h"
#include "src/support/JsonValue.h"
#include "src/telemetry/Metrics.h"
#include "src/workload/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
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
  std::vector<uint8_t> CacheBytes; ///< cacheArenaBytes() of the run

  bool operator==(const FinalState &O) const {
    return Halted == O.Halted && RetiredTotal == O.RetiredTotal &&
           Cycles == O.Cycles && MemDigest == O.MemDigest &&
           Globals == O.Globals;
  }
};

/// The whole action cache in arena order: every key, entry and node
/// (reachable or detached) with its seal and placeholder span. A saved
/// cache (FacileSim::cacheBytes) is compacted to live entries, so this is
/// what a compare needs to also cover recordings a fault abandoned.
std::vector<uint8_t> cacheArenaBytes(const rt::ActionCache &C) {
  snapshot::Writer W;
  W.u64(C.keyCount());
  W.u64(C.entryCount());
  W.u64(C.nodeCount());
  for (rt::KeyId K = 0; K != C.keyCount(); ++K) {
    W.u32(C.keyLen(K));
    W.bytes(C.keyData(K), C.keyLen(K));
  }
  for (rt::EntryId E = 0; E != C.entryCount(); ++E) {
    W.u32(C.entry(E).Head);
    W.u32(C.entry(E).Key);
  }
  for (uint32_t I = 0; I != C.nodeCount(); ++I) {
    const rt::ActionNode &N = C.node(I);
    W.u32(static_cast<uint32_t>(N.ActionId));
    W.u8(static_cast<uint8_t>(N.K));
    W.u32(N.DataOfs);
    W.u32(N.DataLen);
    W.u32(N.Next);
    W.u32(N.OnValue[0]);
    W.u32(N.OnValue[1]);
    W.u32(N.NextKey);
    W.u64(C.nodeSeal(I));
    W.bytes(C.spanData(N.DataOfs), size_t(N.DataLen) * 8);
  }
  return W.take();
}

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
  F.CacheBytes = cacheArenaBytes(Sim.sim().cache());
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

TEST(Differential, StoreBackedMatchesLoadedCache) {
  // A saved cache reaches the runtime two ways, both attached in place as
  // the cache's read-only base: a loaded file's buffer and a mapped store
  // generation. Each must compute exactly what the no-memoization oracle
  // computes, and both warm paths must actually replay (FastSteps > 0),
  // or the comparison is vacuous. A third input loads an image under a
  // budget small enough to force clears: the image sits outside the
  // budget, so every clear resets the cache to it instead of emptying it.
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

      auto finalState = [&](const FacileSim &Sim) {
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

      FacileSim WarmLoaded(Kind, Image);
      ASSERT_TRUE(WarmLoaded.loadCacheBytes(CacheSnap, &Err)) << Err;
      ASSERT_TRUE(WarmLoaded.sim().cacheBaseAttached());
      WarmLoaded.run(MaxInstrs);
      FinalState Loaded = finalState(WarmLoaded);
      EXPECT_GT(WarmLoaded.sim().stats().FastSteps, 0u);
      EXPECT_EQ(Loaded, Oracle);

      FacileSim WarmStore(Kind, Image);
      ASSERT_TRUE(WarmStore.attachStore(Store, &Err)) << Err;
      ASSERT_TRUE(WarmStore.sim().cacheBaseAttached());
      WarmStore.run(MaxInstrs);
      FinalState Mapped = finalState(WarmStore);
      EXPECT_GT(WarmStore.sim().stats().FastSteps, 0u);
      EXPECT_EQ(Mapped, Oracle);
      EXPECT_EQ(Mapped.MemDigest, Loaded.MemDigest);

      // The budget is part of the compat key, so the tiny-budget image
      // comes from a builder under the same budget.
      rt::Simulation::Options Tiny;
      Tiny.CacheBudgetBytes = 16u << 10;
      // The builder may end just after a clear, so keep its latest
      // non-empty image.
      FacileSim TinyBuilder(Kind, Image, Tiny);
      std::vector<uint8_t> TinySnap;
      while (!TinyBuilder.sim().halted() && !TinyBuilder.faulted() &&
             TinyBuilder.sim().stats().RetiredTotal < MaxInstrs) {
        TinyBuilder.sim().run(256);
        if (TinyBuilder.sim().cache().entryCount() != 0)
          TinySnap = TinyBuilder.cacheBytes();
      }
      FacileSim WarmTiny(Kind, Image, Tiny);
      ASSERT_TRUE(WarmTiny.loadCacheBytes(TinySnap, &Err)) << Err;
      const rt::ActionCache &TinyCache = WarmTiny.sim().cache();
      size_t LoadedEntries = TinyCache.entryCount();
      ASSERT_GT(LoadedEntries, 0u);
      // FacileSim::run's 256-step batches, taken one step at a time so the
      // cache is inspected right after every budget clear.
      uint64_t ClearsSeen = 0, NotReset = 0;
      rt::Simulation &TinySim = WarmTiny.sim();
      while (!TinySim.halted() && !TinySim.faulted() &&
             TinySim.stats().RetiredTotal < MaxInstrs)
        for (int I = 0; I != 256 && !TinySim.halted() && !TinySim.faulted();
             ++I) {
          uint64_t Clears = TinyCache.stats().Clears;
          TinySim.run(1);
          if (TinyCache.stats().Clears != Clears) {
            ++ClearsSeen;
            NotReset += TinyCache.entryCount() != LoadedEntries;
          }
        }
      EXPECT_GT(ClearsSeen, 0u);
      EXPECT_EQ(NotReset, 0u);
      EXPECT_EQ(finalState(WarmTiny), Oracle);
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
  // run dispatched through compiled regions and entry traces must be
  // bit-identical to the interpreting backend — same architectural state,
  // same memory digest, and the same step accounting (Steps, FastSteps,
  // Misses, RetiredTotal, Cycles), since the JIT sits below the
  // memoization layer and never changes which engine a step takes — and
  // the same saved action cache, byte for byte, since compiled regions
  // must record exactly the nodes, placeholder data and seals the
  // interpreter records. Runs every simulator over both workloads, memo on
  // and off; memo-off runs only the record-side tier, since nothing is
  // ever replayed.
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
        EXPECT_FALSE(I.CacheBytes.empty());
        EXPECT_TRUE(J.CacheBytes == I.CacheBytes)
            << "action-cache arenas differ (" << J.CacheBytes.size()
            << " vs " << I.CacheBytes.size() << " bytes)";
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

namespace {

/// Reads counter \p Name of \p Sim's "jit" metrics group (0 when absent).
int64_t jitCounter(const rt::Simulation &Sim, const char *Name) {
  telemetry::MetricsRegistry R;
  Sim.registerMetrics(R);
  telemetry::JsonMetricSink Sink;
  R.exportTo(Sink);
  json::Value Root;
  std::string Err;
  const json::Value *C = nullptr;
  if (json::parse(Sink.finish(), Root, Err))
    if (const json::Value *Jit = Root.get("jit"))
      C = Jit->get(Name);
  return C ? C->intOr(0) : 0;
}

/// Every way a slow-engine region can end, between two dynamic blocks:
/// the action block opening each step (mem_ld) enters a region that runs a
/// static-bound loop (a native back edge), a static if/else, and a static
/// instruction fetch feeding another static if/else, before it returns at
/// the next action block (mem_st). The key is the fetch address; after
/// three laps over the text a dynamic test moves it past the text end, so
/// the last step faults inside a chained block, after the entry's node was
/// sealed. Laps 1 and 2 replay lap 0's entries, the third-lap exit test
/// misses and recovers.
constexpr const char *RegionShapesSource = R"(
  init val pc = 0;
  val lap = 0;
  fun main() {
    val x = mem_ld(2097152);
    val s = pc & 255;
    val i = 0;
    while (i < 6) {
      s = s + i * (pc & 15);
      i = i + 1;
    }
    if ((s & 1) == 1) {
      s = s * 3;
    } else {
      s = s + 7;
    }
    val w = pc?fetch();
    if ((w & 4) != 0) {
      s = s ^ w;
    } else {
      s = s + 1;
    }
    mem_st(2097156, x + s);
    retire(1);
    cycles(1 + (s & 3));
    if (pc + 4 >= text_end()) {
      lap = lap + 1;
      if (lap == 3) {
        pc = text_end();
      } else {
        pc = text_start();
      }
    } else {
      pc = pc + 4;
    }
  }
)";

struct RegionRun {
  rt::SimFault Fault;
  uint64_t Steps = 0, FastSteps = 0, Misses = 0;
  uint64_t Retired = 0, Cycles = 0;
  uint64_t MemDigest = 0;
  std::vector<uint8_t> Cache;
  int64_t RegionCalls = 0, CompiledRegions = 0;
};

RegionRun runRegionShapes(rt::BackendKind Backend) {
  DiagnosticEngine Diag;
  std::optional<CompiledProgram> Prog = compileFacile(RegionShapesSource, Diag);
  EXPECT_TRUE(Prog.has_value()) << Diag.str();
  if (!Prog)
    return {};
  std::string Text = "main:\n";
  for (int I = 0; I != 24; ++I)
    Text += "addi r" + std::to_string(1 + I % 7) + ", r0, " +
            std::to_string(I) + "\n";
  Text += "halt\n";
  isa::TargetImage Img = *isa::assemble(Text);
  rt::Simulation::Options Opts;
  Opts.Backend = Backend;
  Opts.JitThreshold = 1;
  rt::Simulation Sim(*Prog, Img, Opts);
  Sim.setGlobal("pc", Img.TextBase);
  Sim.memory().write32(2097152, 5);
  Sim.run(1000); // stops at the fault
  RegionRun R;
  R.Fault = Sim.fault();
  R.Steps = Sim.stats().Steps;
  R.FastSteps = Sim.stats().FastSteps;
  R.Misses = Sim.stats().Misses;
  R.Retired = Sim.stats().RetiredTotal;
  R.Cycles = Sim.stats().Cycles;
  R.MemDigest = Sim.memory().digest();
  R.Cache = cacheArenaBytes(Sim.cache());
  R.RegionCalls = jitCounter(Sim, "slow_region_calls");
  R.CompiledRegions = jitCounter(Sim, "compiled_blocks");
  return R;
}

} // namespace

TEST(Differential, JitRegionsMatchInterpreter) {
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  RegionRun I = runRegionShapes(rt::BackendKind::Interpret);
  RegionRun J = runRegionShapes(rt::BackendKind::Jit);

  // The run is shaped as intended: a fetch fault after three laps of 25
  // instructions, with replayed laps and a recovered exit test.
  EXPECT_EQ(I.Fault.Kind, rt::FaultKind::DecodeError);
  EXPECT_EQ(I.Fault.Detail, "instruction fetch outside the text segment");
  EXPECT_EQ(I.Steps, 3u * 25 + 1);
  EXPECT_EQ(I.FastSteps, 2u * 25 - 1);
  EXPECT_EQ(I.Misses, 1u);

  EXPECT_EQ(J.Fault.Kind, I.Fault.Kind);
  EXPECT_EQ(J.Fault.Detail, I.Fault.Detail);
  EXPECT_EQ(J.Steps, I.Steps);
  EXPECT_EQ(J.FastSteps, I.FastSteps);
  EXPECT_EQ(J.Misses, I.Misses);
  EXPECT_EQ(J.Retired, I.Retired);
  EXPECT_EQ(J.Cycles, I.Cycles);
  EXPECT_EQ(J.MemDigest, I.MemDigest);
  EXPECT_FALSE(I.Cache.empty());
  EXPECT_TRUE(J.Cache == I.Cache) << "action-cache arenas differ";

  // Regions ran, and ran whole stretches of blocks per call: every slow
  // step dispatches at least the six loop iterations as separate blocks in
  // the interpreter, while the regions return only at action blocks and
  // dynamic tests.
  EXPECT_EQ(I.RegionCalls, 0);
  EXPECT_GT(J.CompiledRegions, 0);
  const uint64_t SlowSteps = J.Steps - J.FastSteps;
  EXPECT_GT(J.RegionCalls, 0);
  EXPECT_LT(static_cast<uint64_t>(J.RegionCalls), SlowSteps * 6)
      << J.RegionCalls << " region calls over " << SlowSteps << " slow steps";
}

TEST(JitThreshold, ParsesOnlyPositiveDecimalCounts) {
  uint32_t T = 7;
  EXPECT_TRUE(rt::parseJitThreshold("1", T));
  EXPECT_EQ(T, 1u);
  EXPECT_TRUE(rt::parseJitThreshold("4294967295", T));
  EXPECT_EQ(T, 4294967295u);
  for (const char *Bad : {"", "0", "-1", "+5", " 5", "5 ", "abc", "12abc",
                          "4294967296", "99999999999999999999"}) {
    T = 7;
    EXPECT_FALSE(rt::parseJitThreshold(Bad, T)) << "'" << Bad << "'";
    EXPECT_EQ(T, 7u) << "'" << Bad << "'";
  }
}

// An unparsable FACILE_JIT_THRESHOLD is ignored, like an unparsable
// FACILE_JIT: "-1" must not wrap to a threshold no visit count reaches,
// which would leave a "jit" backend that never compiles anything.
TEST(JitThreshold, BadEnvironmentValueIsIgnored) {
  if (!jit::available())
    GTEST_SKIP() << "no template-JIT backend on this host";
  const char *Prev = std::getenv("FACILE_JIT_THRESHOLD");
  std::optional<std::string> Saved;
  if (Prev)
    Saved = Prev;
  isa::TargetImage Image = workload::generate(testWorkloads()[0], 2);
  rt::Simulation::Options Jit;
  Jit.Backend = rt::BackendKind::Jit; // default threshold: env consulted
  for (const char *Bad : {"-1", "abc", "0", "4294967296"}) {
    SCOPED_TRACE(Bad);
    ::setenv("FACILE_JIT_THRESHOLD", Bad, 1);
    FinalState J = runOne(SimKind::Functional, Image, Jit, 200'000);
    EXPECT_EQ(J.BackendName, "jit");
    EXPECT_GT(J.CompiledActions, 0u);
  }
  if (Saved)
    ::setenv("FACILE_JIT_THRESHOLD", Saved->c_str(), 1);
  else
    ::unsetenv("FACILE_JIT_THRESHOLD");
}
