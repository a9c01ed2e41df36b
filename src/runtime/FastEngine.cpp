//===- FastEngine.cpp - The fast / residual simulator ----------------------===//
//
// Replays recorded action nodes against the per-action dynamic-only
// streams of the ExecPlan: one packed instruction run per action, no
// rt-static skipping, no index-vector chasing. Rt-static operand values
// come from each node's placeholder span in the cache's data pool. On a
// missing Test successor the replayed prefix is handed to the slow engine
// for recovery (SlowEngine.cpp).
//
// The cache may be layered: an immutable base (a read-only mapped store
// file) below a private overlay. The loop resolves each global node id
// and data span against the split once per node — a predictable compare
// against the base extent — and then runs relative to a per-node span
// pointer, so the per-instruction cost is identical to the single-arena
// loop (and with no base attached the extents are zero and every compare
// folds to the overlay side). Successors recorded for base Test nodes
// live in a private patch table consulted only on the would-be miss path.
//
// The loop verifies each node BEFORE executing it: bounds-checks the link,
// action id, kind byte and data span against the arenas, then recomputes
// the node's integrity seal — xor of its placeholder span, folded with its
// identity fields and the link it was reached through — and compares it to
// the sealed value. Verification up front keeps the execution path as
// tight as the paper's trusting loop (the span sweep is a tight xor loop
// over words the execution is about to read anyway, and runs once per
// mutation epoch), so the guard cost is per-node, not per-instruction.
//
// Corruption detected before any node executed is absorbed: the entry is
// detached and the step re-records cold. Corruption detected after a node
// ran cannot be silently retried (the slow simulator would re-execute side
// effects), so it raises a CacheCorrupt fault instead.
//
//===----------------------------------------------------------------------===//

#include "src/runtime/Simulation.h"

#include "src/jit/JitCache.h"
#include "src/jit/JitTrace.h"
#include "src/telemetry/Profiler.h"

#include <cassert>
#include <cstdio>
#include <cstring>

using namespace facile;
using namespace facile::rt;
using namespace facile::ir;

template <bool Profiled>
Simulation::ReplayResult Simulation::runFastImpl(EntryId Entry, KeyId Key) {
  const ExecPlan &P = *Plan;
  ReplayedStep Rp;
  Rp.Entry = Entry;
  Rp.Key = Key;

  // Raw arena bases: replay never grows the cache, so these stay valid
  // until a miss hands the step to the slow simulator (after which they
  // are not touched again). Global ids resolve against the base extents:
  // [0, BaseN) in the mapping, the rest in the private overlay.
  const ActionNode *BNodes = Cache.baseNodes();
  const ActionNode *ONodes = Cache.overlayNodes();
  const uint32_t BaseN = Cache.baseNodeCount();
  const int64_t *BData = Cache.baseData();
  const int64_t *OData = Cache.overlayData();
  const uint64_t BaseD = Cache.baseDataWords();
  const uint32_t NumNodes = static_cast<uint32_t>(Cache.nodeCount());
  const uint32_t NumActions = static_cast<uint32_t>(P.ActionOfs.size() - 1);
  const uint64_t PoolSize = Cache.dataSize();

  uint32_t NodeIdx = Cache.entry(Entry).Head;
  uint64_t IncomingTag = ActionCache::headTag(Key);
  bool ExecutedAny = false;
  bool AnyNative = false; ///< >=1 node ran as compiled code this step
  uint32_t Walked = 0;
  uint64_t ProfNodes = 0; ///< nodes walked this step (Profiled only)
  int64_t ArgBuf[16];
  // Armed only by the Jit backend; hoisted so the per-node cost of the
  // Interpret backend is one dead pointer test.
  jit::JitSession *const Jit = JitCtx;

  // Routes a detected corruption: before any node executed the step can be
  // absorbed (re-recorded cold by the caller); afterwards the shared state
  // is partially mutated and re-execution would double side effects, so
  // the only honest outcome is a fault.
  auto corrupt = [&](const char *What) -> ReplayResult {
    if (!ExecutedAny)
      return ReplayResult::CorruptCold;
    raiseFault(FaultKind::CacheCorrupt, What);
    return ReplayResult::Faulted;
  };

  if (NodeIdx == ActionNode::NoNode)
    return ReplayResult::CorruptCold;

  // Trace dispatch: when the whole entry is compiled, the step is one
  // native call. Valid only while the cache's mutation epoch matches the
  // trace's compile epoch — any injected corruption bumps the epoch, so a
  // trace never runs over state the interpreter would have re-verified
  // (compilation itself verified every seal it baked). Profiled steps stay
  // interpreted so sampling still sees nodes.
  if (!Profiled && Jit && Jit->Traces) {
    if (jit::JitTraceCache::Trace *T =
            Jit->Traces->find(Entry, Cache.mutationEpoch())) {
      Jit->Frame.BaseData = BData;
      int64_t R = T->Fn(&Jit->Frame, OData);
      if (R < 0) {
        if (R == jit::BailFetchOob)
          raiseFault(FaultKind::DecodeError,
                     "instruction fetch outside the text segment");
        // BailExternFail: externCall already raised inside the thunk.
        return ReplayResult::Faulted;
      }
      const jit::JitTraceCache::Exit &X = T->Exits[static_cast<size_t>(R)];
      if (X.IsEnd) {
        PendingEndNode = X.Node;
        ++Jit->JitSteps;
        ++Jit->TraceSteps;
        return ReplayResult::Replayed;
      }
      // Side exit at Test node X.Node with outcome X.Value: that edge had
      // no successor at compile time. Reconstruct the replayed prefix the
      // interpreter would have built (the baked path ends with the exit
      // node's pair).
      ExecutedAny = true;
      AnyNative = true;
      Rp.Path.reserve(X.PathLen);
      for (uint32_t Pi = 0; Pi != X.PathLen; ++Pi) {
        const jit::JitTraceCache::PathItem &It = T->PathPool[X.PathOfs + Pi];
        Rp.Path.push_back({It.Node, It.Value});
      }
      uint32_t Succ = Cache.testSuccessor(X.Node, static_cast<int>(X.Value));
      if (Succ == ActionNode::NoNode) {
        // Genuine miss: hand recovery the prefix; the recording that
        // follows grows the entry past the compiled tree, so drop the
        // trace and let it re-trip with the new branch included.
        Rp.MissValue = X.Value;
        ++S.Misses;
        runSlow(Entry, &Rp);
        Jit->Traces->invalidate(Entry);
        return Fault ? ReplayResult::Faulted : ReplayResult::Recovered;
      }
      // Stale trace: the successor was recorded after compilation. Resume
      // the interpreted walk mid-chain and queue a recompile.
      Jit->Traces->invalidate(Entry);
      IncomingTag = ActionCache::edgeTag(X.Node, static_cast<int>(X.Value));
      NodeIdx = Succ;
    }
  }

  for (;;) {
    // Verify before executing: every field the execution below trusts is
    // checked here, so the execution itself needs no per-instruction check.
    if (NodeIdx >= NumNodes)
      return corrupt("node link outside the arena");
    if (++Walked > NumNodes)
      return corrupt("replay chain does not terminate");
    const ActionNode &N =
        NodeIdx < BaseN ? BNodes[NodeIdx] : ONodes[NodeIdx - BaseN];
    if (static_cast<uint32_t>(N.ActionId) >= NumActions)
      return corrupt("node action id outside the plan");
    if (static_cast<uint8_t>(N.K) >
        static_cast<uint8_t>(ActionNode::Kind::End))
      return corrupt("illegal node kind");
    const uint64_t Lo = N.DataOfs;
    const uint64_t Hi = Lo + N.DataLen;
    // Spans never straddle the base/overlay boundary: overlay nodes
    // allocate at the global end, and store validation pins base spans
    // below the base extent. A straddling span is corruption.
    if (Hi > PoolSize || (Lo < BaseD && Hi > BaseD))
      return corrupt("node data span outside the pool");
    // One span-base resolution per node; the instruction loop below runs
    // relative to it.
    const int64_t *Span = Lo < BaseD ? BData + Lo : OData + (Lo - BaseD);
    // The expensive part — xoring the whole placeholder span — runs once
    // per mutation epoch per (node, incoming link); arriving through a
    // flipped edge never matches the mark and forces the full sweep.
    if (!Cache.nodeVerified(NodeIdx, IncomingTag)) {
      uint64_t Xor = 0;
      for (uint32_t W = 0; W != N.DataLen; ++W)
        Xor ^= static_cast<uint64_t>(Span[W]);
      if ((Xor ^ ActionCache::identityMix(N) ^ IncomingTag) !=
          Cache.nodeSeal(NodeIdx))
        return corrupt("node integrity seal mismatch");
      Cache.markVerified(NodeIdx, IncomingTag);
    }
    size_t DataPos = 0;

    int64_t TestValue = 0;
    const XInst *IP = P.actionBegin(N.ActionId);
    const XInst *End = P.actionEnd(N.ActionId);
    if (IP != End)
      ExecutedAny = true;
    if (Profiled) {
      Profiler->noteNode(static_cast<uint32_t>(N.ActionId),
                         static_cast<uint64_t>(End - IP), N.DataLen);
      ++ProfNodes;
    }
    // Template-JIT dispatch: hot actions run as native code. The
    // structural precheck (the node's span is exactly the word count the
    // code was compiled for) is what lets compiled code index Span with
    // fixed displacements; a mismatch is a bailout to the interpreter
    // below, never a divergence. Negative returns are bails for
    // conditions that fault in the interpreter too (JitAbi.h), so a
    // bailed node is never re-run.
    bool Native = false;
    if (Jit && IP != End) {
      const uint32_t Action = static_cast<uint32_t>(N.ActionId);
      if (jit::JitFn Fn = Jit->Cache->fn(Action)) {
        if (N.DataLen == Jit->Cache->words(Action)) {
          int64_t R = Fn(&Jit->Frame, Span);
          if (R < 0) {
            if (R == jit::BailFetchOob)
              raiseFault(FaultKind::DecodeError,
                         "instruction fetch outside the text segment");
            // BailExternFail: externCall already raised inside the thunk.
            return ReplayResult::Faulted;
          }
          TestValue = R;
          DataPos = N.DataLen;
          Native = true;
          AnyNative = true;
        } else {
          ++Jit->Bailouts;
        }
      } else {
        Jit->Cache->noteVisit(Action, Jit->Threshold);
      }
    }
    if (!Native)
    for (; IP != End; ++IP) {
      const XInst &I = *IP;
      auto readOperand = [&](uint32_t Slot, unsigned Pos) -> int64_t {
        if (I.StaticOperands & (1u << Pos))
          return Span[DataPos++];
        return DynSlots[Slot];
      };

      switch (I.Opcode) {
      case XOp::Copy:
        DynSlots[I.Dst] = readOperand(I.A, 0);
        break;
      case XOp::Bin: {
        int64_t A = readOperand(I.A, 0);
        int64_t B = readOperand(I.B, 1);
        DynSlots[I.Dst] = evalBin(static_cast<ast::BinOp>(I.Kind), A, B);
        break;
      }
      case XOp::Un:
        DynSlots[I.Dst] =
            evalUn(static_cast<UnKind>(I.Kind), readOperand(I.A, 0), I.Imm);
        break;
      case XOp::LoadGlobal:
        DynSlots[I.Dst] = DynGlobals[I.Id];
        break;
      case XOp::StoreGlobal:
        DynGlobals[I.Id] = readOperand(I.A, 0);
        break;
      case XOp::LoadElem: {
        std::vector<int64_t> &Arr = DynArrays[I.Id];
        DynSlots[I.Dst] = Arr[wrapIndex(readOperand(I.A, 0), Arr.size())];
        break;
      }
      case XOp::StoreElem: {
        int64_t Idx = readOperand(I.A, 0);
        int64_t V = readOperand(I.B, 1);
        std::vector<int64_t> &Arr = DynArrays[I.Id];
        Arr[wrapIndex(Idx, Arr.size())] = V;
        break;
      }
      case XOp::LoadLocElem: {
        std::vector<int64_t> &Arr = DynLocalArrays[I.Id];
        DynSlots[I.Dst] = Arr[wrapIndex(readOperand(I.A, 0), Arr.size())];
        break;
      }
      case XOp::StoreLocElem: {
        int64_t Idx = readOperand(I.A, 0);
        int64_t V = readOperand(I.B, 1);
        std::vector<int64_t> &Arr = DynLocalArrays[I.Id];
        Arr[wrapIndex(Idx, Arr.size())] = V;
        break;
      }
      case XOp::InitLocArray:
        DynLocalArrays[I.Id].assign(DynLocalArrays[I.Id].size(),
                                    readOperand(I.A, 0));
        break;
      case XOp::Fetch: {
        uint32_t Addr = static_cast<uint32_t>(readOperand(I.A, 0));
        if (Addr < Image.TextBase || Addr >= Image.textEnd()) {
          raiseFault(FaultKind::DecodeError,
                     "instruction fetch outside the text segment");
          return ReplayResult::Faulted;
        }
        DynSlots[I.Dst] = Image.fetch(Addr);
        break;
      }
      case XOp::CallExtern: {
        if (I.ArgCount > 16 ||
            static_cast<uint64_t>(I.ArgOfs) + I.ArgCount > P.ArgPool.size()) {
          raiseFault(FaultKind::PlanCorrupt,
                     "extern argument span outside the plan's arg pool");
          return ReplayResult::Faulted;
        }
        for (unsigned A = 0; A != I.ArgCount; ++A)
          ArgBuf[A] = readOperand(P.ArgPool[I.ArgOfs + A], 2 + A);
        int64_t R = 0;
        if (!externCall(I, ArgBuf, R))
          return ReplayResult::Faulted;
        if (I.Dst != NoSlot)
          DynSlots[I.Dst] = R;
        break;
      }
      case XOp::MemLd:
        DynSlots[I.Dst] =
            Mem.read32(static_cast<uint32_t>(readOperand(I.A, 0)));
        break;
      case XOp::MemLd8:
        DynSlots[I.Dst] = Mem.read8(static_cast<uint32_t>(readOperand(I.A, 0)));
        break;
      case XOp::MemSt: {
        int64_t Addr = readOperand(I.A, 0);
        int64_t V = readOperand(I.B, 1);
        Mem.write32(static_cast<uint32_t>(Addr), static_cast<uint32_t>(V));
        break;
      }
      case XOp::MemSt8: {
        int64_t Addr = readOperand(I.A, 0);
        int64_t V = readOperand(I.B, 1);
        Mem.write8(static_cast<uint32_t>(Addr), static_cast<uint8_t>(V));
        break;
      }
      case XOp::SimHalt:
        HaltFlag = true;
        break;
      case XOp::Retire: {
        uint64_t V = static_cast<uint64_t>(readOperand(I.A, 0));
        S.RetiredTotal += V;
        S.RetiredFast += V;
        break;
      }
      case XOp::Cycles:
        S.Cycles += static_cast<uint64_t>(readOperand(I.A, 0));
        break;
      case XOp::TextStart:
        DynSlots[I.Dst] = Image.TextBase;
        break;
      case XOp::TextEnd:
        DynSlots[I.Dst] = Image.textEnd();
        break;
      case XOp::Print:
        std::printf("%lld\n", static_cast<long long>(readOperand(I.A, 0)));
        break;
      case XOp::SyncSlot:
        DynSlots[I.Dst] = Span[DataPos++];
        break;
      case XOp::SyncGlobal:
        DynGlobals[I.Id] = Span[DataPos++];
        break;
      case XOp::SyncArray: {
        std::vector<int64_t> &Dst = DynArrays[I.Id];
        std::memcpy(Dst.data(), Span + DataPos, Dst.size() * 8);
        DataPos += Dst.size();
        break;
      }
      case XOp::Branch:
        // Dynamic-result test: evaluate the predicate for verification.
        TestValue = DynSlots[I.A] != 0 ? 1 : 0;
        break;
      default:
        assert(false && "unexpected dynamic opcode in replay");
        raiseFault(FaultKind::PlanCorrupt,
                   "unexpected dynamic opcode in replay");
        return ReplayResult::Faulted;
      }
    }
    // The seal pinned the span to exactly what recording consumed, so a
    // leftover here means the plan and the record disagree on how many
    // placeholders this action reads (a mutated plan the shape check
    // cannot frame).
    if (DataPos != static_cast<size_t>(N.DataLen))
      return corrupt("placeholder stream desynced from the plan");

    switch (N.K) {
    case ActionNode::Kind::End:
      PendingEndNode = NodeIdx;
      if (Profiled)
        Profiler->noteStep(ProfNodes, /*Replayed=*/true);
      if (Jit && AnyNative)
        ++Jit->JitSteps;
      return ReplayResult::Replayed;
    case ActionNode::Kind::Plain:
      Rp.Path.push_back({NodeIdx, 0});
      if (N.Next == ActionNode::NoNode)
        return corrupt("plain node without a successor");
      IncomingTag = ActionCache::edgeTag(NodeIdx, -1);
      NodeIdx = N.Next;
      break;
    case ActionNode::Kind::Test: {
      uint32_t Succ = N.OnValue[TestValue];
      if (Succ == ActionNode::NoNode && NodeIdx < BaseN)
        // Base nodes are immutable: a successor recorded by this session
        // for a base test lives in the private patch table. Only this
        // would-be-miss path pays the lookup.
        Succ = Cache.patchedSuccessor(
            ActionCache::edgeTag(NodeIdx, static_cast<int>(TestValue)));
      if (Succ == ActionNode::NoNode) {
        // Action cache miss: this control path was never recorded. Hand
        // the replayed prefix to the slow simulator for recovery.
        Rp.Path.push_back({NodeIdx, TestValue});
        Rp.MissValue = TestValue;
        ++S.Misses;
        if (Profiled)
          Profiler->noteStep(ProfNodes, /*Replayed=*/false);
        runSlow(Entry, &Rp);
        return Fault ? ReplayResult::Faulted : ReplayResult::Recovered;
      }
      Rp.Path.push_back({NodeIdx, TestValue});
      IncomingTag = ActionCache::edgeTag(NodeIdx, static_cast<int>(TestValue));
      NodeIdx = Succ;
      break;
    }
    }
  }
}

Simulation::ReplayResult Simulation::runFast(EntryId Entry, KeyId Key) {
  // Two instantiations of one loop: profiling is a compile-time branch, so
  // the unprofiled loop carries zero profiler cost.
  return ProfArmed ? runFastImpl<true>(Entry, Key)
                   : runFastImpl<false>(Entry, Key);
}
