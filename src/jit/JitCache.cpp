//===- JitCache.cpp - Per-plan compiled-action cache -----------------------===//

#include "src/jit/JitCache.h"

#include "src/facile/Ir.h"

#include <cassert>

using namespace facile;
using namespace facile::jit;

JitCache::JitCache(const CompiledProgram &Prog, const rt::ExecPlan &Plan,
                   const isa::TargetImage &Image,
                   const JitRuntimeHooks &Hooks) {
  Ctx.Plan = &Plan;
  Ctx.Image = &Image;
  Ctx.NumSlots = Prog.Step.NumSlots;
  Ctx.Hooks = Hooks;
  Ctx.ArraySizes.reserve(Prog.Globals.size());
  for (const ir::GlobalVar &G : Prog.Globals)
    Ctx.ArraySizes.push_back(G.IsArray ? G.Size : 0);
  Ctx.LocArraySizes.reserve(Prog.Step.LocalArrays.size());
  for (const auto &L : Prog.Step.LocalArrays)
    Ctx.LocArraySizes.push_back(L.Size);

  NumActions = static_cast<uint32_t>(Plan.ActionOfs.size() - 1);
  Fns = std::make_unique<std::atomic<JitFn>[]>(NumActions);
  Visits = std::make_unique<std::atomic<uint32_t>[]>(NumActions);
  State = std::make_unique<std::atomic<uint8_t>[]>(NumActions);
  for (uint32_t A = 0; A != NumActions; ++A) {
    Fns[A].store(nullptr, std::memory_order_relaxed);
    Visits[A].store(0, std::memory_order_relaxed);
    State[A].store(Cold, std::memory_order_relaxed);
  }
  Words.assign(NumActions, 0);

  NumBlocks = static_cast<uint32_t>(Plan.BlockOfs.size() - 1);
  for (unsigned V = 0; V != 2; ++V)
    BlockFns[V] = std::make_unique<std::atomic<JitFn>[]>(NumBlocks);
  BlockVisits = std::make_unique<std::atomic<uint32_t>[]>(NumBlocks);
  BlockState = std::make_unique<std::atomic<uint8_t>[]>(NumBlocks);
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    for (unsigned V = 0; V != 2; ++V)
      BlockFns[V][B].store(nullptr, std::memory_order_relaxed);
    BlockVisits[B].store(0, std::memory_order_relaxed);
    BlockState[B].store(Cold, std::memory_order_relaxed);
  }
  BlockWords.assign(NumBlocks, 0);
}

void JitCache::noteVisit(uint32_t Action, uint32_t Threshold) {
  if (Action >= NumActions ||
      State[Action].load(std::memory_order_relaxed) != Cold)
    return;
  uint32_t Seen = Visits[Action].fetch_add(1, std::memory_order_relaxed) + 1;
  if (Seen < Threshold)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (State[Action].load(std::memory_order_relaxed) == Cold)
    compileLocked(Action);
}

void JitCache::compileLocked(uint32_t Action) {
  std::vector<uint8_t> Code;
  uint32_t NumWords = 0;
  if (!emitAction(Ctx, Action, Code, NumWords)) {
    State[Action].store(NoCompile, std::memory_order_relaxed);
    return;
  }
  const uint8_t *Base = Arena.publish(Code.data(), Code.size());
  if (!Base) {
    State[Action].store(NoCompile, std::memory_order_relaxed);
    return;
  }

  Words[Action] = NumWords;
  Compiled.fetch_add(1, std::memory_order_relaxed);
  CodeBytes.fetch_add(Code.size(), std::memory_order_relaxed);
  // Release: a reader that sees the pointer sees the code bytes, the
  // protection flip and Words[Action].
  Fns[Action].store(reinterpret_cast<JitFn>(reinterpret_cast<uintptr_t>(Base)),
                    std::memory_order_release);
  State[Action].store(Published, std::memory_order_relaxed);
}

void JitCache::noteBlockVisit(uint32_t B, uint32_t Threshold) {
  if (B >= NumBlocks || BlockState[B].load(std::memory_order_relaxed) != Cold)
    return;
  uint32_t Seen = BlockVisits[B].fetch_add(1, std::memory_order_relaxed) + 1;
  if (Seen < Threshold)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (BlockState[B].load(std::memory_order_relaxed) == Cold)
    compileBlockLocked(B);
}

void JitCache::compileBlockLocked(uint32_t B) {
  // Both variants or none: the recording variant only adds capture
  // stores, and publishing a partial set would let one session's shape
  // diverge.
  std::vector<uint8_t> Codes[2];
  uint32_t CapWords[2] = {0, 0};
  for (unsigned V = 0; V != 2; ++V) {
    if (!emitBlock(Ctx, B, /*Recording=*/V != 0, Codes[V], CapWords[V])) {
      BlockState[B].store(NoCompile, std::memory_order_relaxed);
      return;
    }
  }
  assert(CapWords[0] == CapWords[1] &&
         "block variants must agree on capture layout");

  std::vector<uint8_t> All;
  size_t Ofs[2];
  for (unsigned V = 0; V != 2; ++V) {
    Ofs[V] = All.size();
    All.insert(All.end(), Codes[V].begin(), Codes[V].end());
  }
  const uint8_t *Base = Arena.publish(All.data(), All.size());
  if (!Base) {
    BlockState[B].store(NoCompile, std::memory_order_relaxed);
    return;
  }

  BlockWords[B] = CapWords[0];
  CompiledBlocks.fetch_add(1, std::memory_order_relaxed);
  CodeBytes.fetch_add(All.size(), std::memory_order_relaxed);
  // Release: a reader that sees any pointer sees the code bytes, the
  // protection flip and BlockWords[B].
  for (unsigned V = 0; V != 2; ++V)
    BlockFns[V][B].store(
        reinterpret_cast<JitFn>(reinterpret_cast<uintptr_t>(Base + Ofs[V])),
        std::memory_order_release);
  BlockState[B].store(Published, std::memory_order_relaxed);
}
