//===- SlowEngine.cpp - The slow / complete simulator ----------------------===//
//
// Executes the full per-block streams of the ExecPlan: rt-static
// instructions against the slow simulator's private state, dynamic
// instructions against the shared state while recording action nodes and
// placeholder data into the cache. Also implements miss recovery (paper
// §4.3): re-execute rt-static code only, take dynamic results from the
// replayed prefix handed over by the fast engine, then resume recording at
// the miss point.
//
// Every condition that used to be an assert but is reachable from user
// input — a corrupted recovery prefix, an illegal opcode in a loaded plan,
// a control-flow target outside the block table — raises a structured
// fault instead and abandons the step, detaching the entry being recorded
// so the cache never retains a half-recorded step.
//
//===----------------------------------------------------------------------===//

#include "src/runtime/Simulation.h"

#include "src/jit/JitCache.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <utility>

using namespace facile;
using namespace facile::rt;
using namespace facile::ir;

void Simulation::runSlow(EntryId Rec, const ReplayedStep *Recovery) {
  const ExecPlan &P = *Plan;
  const bool Record = Rec != NoId;
  const size_t NBlocks =
      std::min(P.BlockOfs.size() - 1, Prog.Actions.Blocks.size());
  bool Recovering = Recovery != nullptr;
  size_t RecoveryIdx = 0;

  // Where the next recorded node hangs: off the entry head, a plain node's
  // Next, or a test node's OnValue[PrevEdge].
  uint32_t PrevNode = ActionNode::NoNode;
  int PrevEdge = -1;

  // Abandons the step on a detected inconsistency. Anything recorded so
  // far becomes unreachable (the key maps to no entry again), so the next
  // visit of this key records from scratch.
  auto fail = [&](FaultKind Kind, const char *Detail) {
    if (Record)
      Cache.detachEntry(Rec);
    raiseFault(Kind, Detail);
  };

  if (Recovering) {
    assert(Rec == Recovery->Entry && "recovery must extend the missed entry");
    seedStaticFromKey(Recovery->Key);
  } else {
    copyInitDynToStatic();
  }

  // The link tag of the node currently being recorded (sealed with it).
  uint64_t NodeTag = 0;

  // Appends a new arena node linked at the current attach point. The
  // attach point may be a base node (miss recovery extends a mapped
  // entry's Test), so links go through the cache's setters: overlay
  // parents are written in place, base parents get an edge patch. The
  // seal tag is the same either way — tags are over global ids.
  auto appendNode = [&](int32_t ActionId) -> uint32_t {
    uint32_t Idx = Cache.appendNode(ActionId);
    if (PrevNode == ActionNode::NoNode) {
      assert(Cache.entry(Rec).Head == ActionNode::NoNode &&
             "entry already has a head");
      Cache.entry(Rec).Head = Idx;
      NodeTag = ActionCache::headTag(Cache.entry(Rec).Key);
    } else if (PrevEdge < 0) {
      Cache.setNext(PrevNode, Idx);
      NodeTag = ActionCache::edgeTag(PrevNode, -1);
    } else {
      Cache.setTestSuccessor(PrevNode, PrevEdge, Idx);
      NodeTag = ActionCache::edgeTag(PrevNode, PrevEdge);
    }
    PrevNode = Idx;
    PrevEdge = -1;
    return Idx;
  };

  uint32_t BB = 0;
  int64_t ArgBuf[16];
  for (;;) {
    const ActionBlockInfo &AI = Prog.Actions.Blocks[BB];

    uint32_t NodeIdx = ActionNode::NoNode;
    bool MissBlock = false;   ///< this block holds the missed test
    int64_t RecordedTest = 0; ///< recovery: the recorded test outcome

    if (AI.ActionId != ActionBlockInfo::NoAction) {
      if (Recovering) {
        if (RecoveryIdx >= Recovery->Path.size())
          return fail(FaultKind::CacheCorrupt,
                      "recovery walked past the recorded prefix");
        const ReplayedStep::Item &Item = Recovery->Path[RecoveryIdx];
        // Const access: the replayed prefix may run through base nodes.
        if (std::as_const(Cache).node(Item.Node).ActionId != AI.ActionId)
          return fail(FaultKind::CacheCorrupt,
                      "slow and fast simulators disagree on the control path");
        MissBlock = RecoveryIdx + 1 == Recovery->Path.size();
        RecordedTest = Item.Value;
        if (MissBlock) {
          // Attach new recording after the missed test.
          PrevNode = Item.Node;
        }
        ++RecoveryIdx;
      } else if (Record) {
        NodeIdx = appendNode(AI.ActionId);
      }
    }

    // Terminator bookkeeping shared by the native and interpreted paths.
    // Sealing closes the node's data span and integrity seal; the node's
    // kind must be final by then.
    auto sealNode = [&] {
      ActionNode &N = Cache.node(NodeIdx);
      N.DataLen = Cache.dataSize() - N.DataOfs;
      Cache.sealNode(NodeIdx, NodeTag);
    };

    // Execute the block. When the session's JIT is armed and the plan's
    // cache has the region rooted here compiled for the current recording
    // shape, it runs natively: the block body, and — when the terminator
    // is rt-static — the terminator and every rt-static block after it up
    // to the next action block. Those chained blocks capture nothing and
    // record no node, so only this block's node needs the dispatcher: the
    // recording variant captures every placeholder word to a scratch
    // buffer that is flushed through the cache afterwards, and the node is
    // sealed as the interpreter seals it at this block's terminator, so
    // data-pool contents, seal accumulation and peak accounting stay
    // bit-identical to the interpreter — including on a fault, where
    // exactly the words pushed before it are flushed. Recovery stays
    // interpreted (it replays statics only).
    const XInst *IP = P.blockBegin(BB);
    const XInst *Term = P.blockEnd(BB) - 1;
    if (jit::JitSession *const Jit = JitCtx; Jit && !Recovering) {
      jit::JitCache &JC = *Jit->Cache;
      const bool Capturing = NodeIdx != ActionNode::NoNode;
      jit::JitFn Fn = JC.regionFn(BB, Capturing);
      if (!Fn) {
        JC.noteEntryVisit(BB, Jit->Threshold);
        Fn = JC.regionFn(BB, Capturing);
      }
      if (Fn) {
        if (Capturing) {
          uint32_t W = JC.regionCaptureWords(BB);
          if (Jit->Capture.size() < W)
            Jit->Capture.resize(W);
          Jit->Frame.Capture = Jit->Capture.data();
        }
        int64_t R = Fn(&Jit->Frame, nullptr);
        if (Capturing) {
          const int64_t *Cap = Jit->Capture.data();
          const size_t N = static_cast<size_t>(Jit->Frame.CaptureEnd - Cap);
          Cache.pushDataSpan(Cap, N);
          S.PlaceholderWords += N;
        }
        ++Jit->SlowRegionCalls;
        if (R == jit::BailFetchOob)
          return fail(FaultKind::DecodeError,
                      "instruction fetch outside the text segment");
        if (R == jit::BailExternFail)
          return fail(FaultKind::ExternFailure, "extern call failed");
        if (R != jit::RegionAtTerminator) {
          // This block's rt-static terminator ran natively.
          if (NodeIdx != ActionNode::NoNode)
            sealNode();
          if (R == jit::BailChainedFetchOob)
            return fail(FaultKind::DecodeError,
                        "instruction fetch outside the text segment");
          if (static_cast<uint64_t>(R) >= NBlocks)
            return fail(FaultKind::PlanCorrupt,
                        "control transfer outside the block table");
          BB = static_cast<uint32_t>(R);
          continue;
        }
        IP = Term; // body done natively; the terminator is ours
      }
    }
    for (; IP != Term; ++IP) {
      const XInst &I = *IP;
      if (!I.Dynamic) {
        // Run-time static: executes on the slow simulator's private state.
        switch (I.Opcode) {
        case XOp::Const:
          StatSlots[I.Dst] = I.Imm;
          break;
        case XOp::Copy:
          StatSlots[I.Dst] = StatSlots[I.A];
          break;
        case XOp::Bin:
          StatSlots[I.Dst] = evalBin(static_cast<ast::BinOp>(I.Kind),
                                     StatSlots[I.A], StatSlots[I.B]);
          break;
        case XOp::Un:
          StatSlots[I.Dst] =
              evalUn(static_cast<UnKind>(I.Kind), StatSlots[I.A], I.Imm);
          break;
        case XOp::LoadGlobal:
          StatSlots[I.Dst] = StatGlobals[I.Id];
          break;
        case XOp::StoreGlobal:
          StatGlobals[I.Id] = StatSlots[I.A];
          break;
        case XOp::LoadElem: {
          const std::vector<int64_t> &Arr = StatArrays[I.Id];
          StatSlots[I.Dst] = Arr[wrapIndex(StatSlots[I.A], Arr.size())];
          break;
        }
        case XOp::StoreElem: {
          std::vector<int64_t> &Arr = StatArrays[I.Id];
          Arr[wrapIndex(StatSlots[I.A], Arr.size())] = StatSlots[I.B];
          break;
        }
        case XOp::LoadLocElem: {
          const std::vector<int64_t> &Arr = StatLocalArrays[I.Id];
          StatSlots[I.Dst] = Arr[wrapIndex(StatSlots[I.A], Arr.size())];
          break;
        }
        case XOp::StoreLocElem: {
          std::vector<int64_t> &Arr = StatLocalArrays[I.Id];
          Arr[wrapIndex(StatSlots[I.A], Arr.size())] = StatSlots[I.B];
          break;
        }
        case XOp::InitLocArray:
          StatLocalArrays[I.Id].assign(StatLocalArrays[I.Id].size(),
                                       StatSlots[I.A]);
          break;
        case XOp::Fetch: {
          uint32_t Addr = static_cast<uint32_t>(StatSlots[I.A]);
          if (Addr < Image.TextBase || Addr >= Image.textEnd())
            return fail(FaultKind::DecodeError,
                        "instruction fetch outside the text segment");
          StatSlots[I.Dst] = Image.fetch(Addr);
          break;
        }
        // Only pure builtins can be rt-static.
        case XOp::TextStart:
          StatSlots[I.Dst] = Image.TextBase;
          break;
        case XOp::TextEnd:
          StatSlots[I.Dst] = Image.textEnd();
          break;
        default:
          assert(false && "unexpected rt-static opcode");
          return fail(FaultKind::PlanCorrupt,
                      "unexpected rt-static opcode in the slow stream");
        }
        continue;
      }

      // Dynamic instruction.
      if (Recovering)
        continue; // already executed by the fast simulator

      // Operand fetch in placeholder order; rt-static operands come from
      // the slow simulator's state and are memoized.
      auto readOperand = [&](uint32_t Slot, unsigned Pos) -> int64_t {
        if (I.StaticOperands & (1u << Pos)) {
          int64_t V = StatSlots[Slot];
          if (NodeIdx != ActionNode::NoNode) {
            Cache.pushData(V);
            ++S.PlaceholderWords;
          }
          return V;
        }
        return DynSlots[Slot];
      };
      auto memoize = [&](int64_t V) {
        if (NodeIdx != ActionNode::NoNode) {
          Cache.pushData(V);
          ++S.PlaceholderWords;
        }
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
      case XOp::InitLocArray: {
        int64_t V = readOperand(I.A, 0);
        DynLocalArrays[I.Id].assign(DynLocalArrays[I.Id].size(), V);
        break;
      }
      case XOp::Fetch: {
        uint32_t Addr = static_cast<uint32_t>(readOperand(I.A, 0));
        if (Addr < Image.TextBase || Addr >= Image.textEnd())
          return fail(FaultKind::DecodeError,
                      "instruction fetch outside the text segment");
        DynSlots[I.Dst] = Image.fetch(Addr);
        break;
      }
      case XOp::CallExtern: {
        if (I.ArgCount > 16)
          return fail(FaultKind::PlanCorrupt, "extern arity limit exceeded");
        if (static_cast<uint64_t>(I.ArgOfs) + I.ArgCount > P.ArgPool.size())
          return fail(FaultKind::PlanCorrupt,
                      "extern argument span outside the plan's arg pool");
        for (unsigned A = 0; A != I.ArgCount; ++A)
          ArgBuf[A] = readOperand(P.ArgPool[I.ArgOfs + A], 2 + A);
        int64_t R = 0;
        if (!externCall(I, ArgBuf, R))
          return fail(FaultKind::ExternFailure, "extern call failed");
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
      case XOp::Retire:
        S.RetiredTotal += static_cast<uint64_t>(readOperand(I.A, 0));
        break;
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
      case XOp::SyncSlot: {
        int64_t V = StatSlots[I.Dst];
        memoize(V);
        DynSlots[I.Dst] = V;
        break;
      }
      case XOp::SyncGlobal: {
        int64_t V = StatGlobals[I.Id];
        memoize(V);
        DynGlobals[I.Id] = V;
        break;
      }
      case XOp::SyncArray: {
        const std::vector<int64_t> &Src = StatArrays[I.Id];
        std::vector<int64_t> &Dst = DynArrays[I.Id];
        for (size_t E = 0; E != Src.size(); ++E) {
          memoize(Src[E]);
          Dst[E] = Src[E];
        }
        break;
      }
      default:
        assert(false && "unexpected dynamic opcode");
        return fail(FaultKind::PlanCorrupt,
                    "unexpected dynamic opcode in the slow stream");
      }
    }

    // Terminator.
    const XInst &T = *Term;
    switch (T.Opcode) {
    case XOp::Jump:
      if (NodeIdx != ActionNode::NoNode)
        sealNode();
      BB = T.Target;
      break;
    case XOp::Branch: {
      bool Taken;
      if (!T.Dynamic) {
        Taken = StatSlots[T.A] != 0;
      } else if (Recovering) {
        // Dynamic-result tests take the value recorded by the fast
        // simulator; at the miss point, the newly computed value.
        Taken = (MissBlock ? Recovery->MissValue : RecordedTest) != 0;
        if (MissBlock) {
          PrevEdge = Taken ? 1 : 0;
          Recovering = false;
        }
      } else {
        Taken = DynSlots[T.A] != 0;
        if (NodeIdx != ActionNode::NoNode) {
          Cache.node(NodeIdx).K = ActionNode::Kind::Test;
          sealNode();
          PrevEdge = Taken ? 1 : 0;
        }
      }
      if (!T.Dynamic && NodeIdx != ActionNode::NoNode)
        sealNode();
      BB = Taken ? T.Target : T.Target2;
      break;
    }
    case XOp::Ret:
      if (Recovering)
        return fail(FaultKind::CacheCorrupt,
                    "step ended before reaching the miss point");
      if (NodeIdx != ActionNode::NoNode) {
        serializeKeyInto(KeyBuf);
        KeyId Next = Cache.internKey(KeyBuf.data(), KeyBuf.size());
        Cache.node(NodeIdx).K = ActionNode::Kind::End;
        Cache.node(NodeIdx).NextKey = Next;
        sealNode();
        // Arm the INDEX chain for the next step.
        PendingEndNode = NodeIdx;
      }
      return;
    default:
      assert(false && "block without a terminator");
      return fail(FaultKind::PlanCorrupt, "block without a terminator");
    }
    if (BB >= NBlocks)
      return fail(FaultKind::PlanCorrupt,
                  "control transfer outside the block table");
  }
}
