//===- JitCache.cpp - Per-plan compiled region cache -----------------------===//

#include "src/jit/JitCache.h"

#include "src/facile/Ir.h"

#include <algorithm>
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

  // The dispatcher's block table: plan blocks the action table covers.
  NumBlocks = static_cast<uint32_t>(
      std::min(Plan.BlockOfs.size() - 1, Prog.Actions.Blocks.size()));
  Ctx.NumBlocks = NumBlocks;
  Ctx.ActionBlock.reserve(NumBlocks);
  for (uint32_t B = 0; B != NumBlocks; ++B)
    Ctx.ActionBlock.push_back(Prog.Actions.Blocks[B].ActionId !=
                              ActionBlockInfo::NoAction);
  const std::vector<uint8_t> Entries = regionEntries(Ctx);

  for (unsigned V = 0; V != 2; ++V)
    RegionFns[V] = std::make_unique<std::atomic<JitFn>[]>(NumBlocks);
  Visits = std::make_unique<std::atomic<uint32_t>[]>(NumBlocks);
  State = std::make_unique<std::atomic<uint8_t>[]>(NumBlocks);
  for (uint32_t B = 0; B != NumBlocks; ++B) {
    for (unsigned V = 0; V != 2; ++V)
      RegionFns[V][B].store(nullptr, std::memory_order_relaxed);
    Visits[B].store(0, std::memory_order_relaxed);
    State[B].store(Entries[B] ? Cold : NoCompile, std::memory_order_relaxed);
  }
  RegionWords.assign(NumBlocks, 0);
}

void JitCache::noteEntryVisit(uint32_t B, uint32_t Threshold) {
  if (B >= NumBlocks || State[B].load(std::memory_order_relaxed) != Cold)
    return;
  uint32_t Seen = Visits[B].fetch_add(1, std::memory_order_relaxed) + 1;
  if (Seen < Threshold)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (State[B].load(std::memory_order_relaxed) == Cold)
    compileRegionLocked(B);
}

void JitCache::compileRegionLocked(uint32_t B) {
  // Both variants or none: the recording variant only adds capture
  // stores, and publishing a partial set would let one session's shape
  // diverge.
  std::vector<uint8_t> Codes[2];
  uint32_t CapWords[2] = {0, 0};
  for (unsigned V = 0; V != 2; ++V) {
    if (!emitRegion(Ctx, B, /*Recording=*/V != 0, Codes[V], CapWords[V])) {
      State[B].store(NoCompile, std::memory_order_relaxed);
      return;
    }
  }
  assert(CapWords[0] == CapWords[1] &&
         "region variants must agree on capture layout");

  std::vector<uint8_t> All;
  size_t Ofs[2];
  for (unsigned V = 0; V != 2; ++V) {
    Ofs[V] = All.size();
    All.insert(All.end(), Codes[V].begin(), Codes[V].end());
  }
  const uint8_t *Base = Arena.publish(All.data(), All.size());
  if (!Base) {
    State[B].store(NoCompile, std::memory_order_relaxed);
    return;
  }

  RegionWords[B] = CapWords[0];
  CompiledRegions.fetch_add(1, std::memory_order_relaxed);
  CodeBytes.fetch_add(All.size(), std::memory_order_relaxed);
  // Release: a reader that sees any pointer sees the code bytes, the
  // protection flip and RegionWords[B].
  for (unsigned V = 0; V != 2; ++V)
    RegionFns[V][B].store(
        reinterpret_cast<JitFn>(reinterpret_cast<uintptr_t>(Base + Ofs[V])),
        std::memory_order_release);
  State[B].store(Published, std::memory_order_relaxed);
}
