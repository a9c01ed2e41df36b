//===- JitCache.h - Per-plan compiled region cache --------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The record side's native code: the compile queue and code store for the
/// slow-engine regions of one ExecPlan (jit::emitRegion), one per region
/// entry block (jit::regionEntries). Like the plan it is compiled from, a
/// JitCache is shared by every session running that plan (SharedProgram
/// holds one lazily; owned-plan simulations hold a private one), so all
/// mutation is thread-safe:
///
///  - visit counters are relaxed atomics bumped from the slow engine;
///  - compilation is serialized by a mutex and happens at most once per
///    entry (success or a permanent "leave it interpreted" verdict);
///  - entry points are published by a release store into per-entry tables
///    after the W^X arena flipped the chunk read-execute; the slow engine
///    acquire-loads them, so a non-null pointer always sees finished code.
///
/// The replay side's native code is per session (JitTrace.h).
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITCACHE_H
#define FACILE_JIT_JITCACHE_H

#include "src/jit/JitArena.h"
#include "src/jit/JitEmitter.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace facile {
namespace jit {

class JitCache {
public:
  /// \p Prog, \p Plan and \p Image must outlive the cache and never mutate
  /// while any published code can still run (Simulation privatizing its
  /// plan detaches from the cache first).
  JitCache(const CompiledProgram &Prog, const rt::ExecPlan &Plan,
           const isa::TargetImage &Image, const JitRuntimeHooks &Hooks);

  JitCache(const JitCache &) = delete;
  JitCache &operator=(const JitCache &) = delete;

  /// The emit context built for this plan — shared with the trace tier so
  /// both compile against identical constants.
  const EmitContext &ctx() const { return Ctx; }

  // Every region compiles once per plan in two variants — recording or
  // not — and is dispatched by the slow engine on every cold or unmemoized
  // step. Entries are few and shared, so they amortize perfectly; each
  // trips on a per-entry visit count.

  /// The compiled region rooted at block \p B for the variant, or null
  /// while it is interpreted (or \p B is no region entry).
  JitFn regionFn(uint32_t B, bool Recording) const {
    if (B >= NumBlocks)
      return nullptr;
    return RegionFns[Recording][B].load(std::memory_order_acquire);
  }
  /// Placeholder words one recording execution of region \p B captures.
  /// Meaningful once regionFn() returned non-null for any variant.
  uint32_t regionCaptureWords(uint32_t B) const { return RegionWords[B]; }
  /// Counts one interpreted dispatch of block \p B; compiles both variants
  /// of its region once a region entry's count reaches \p Threshold.
  void noteEntryVisit(uint32_t B, uint32_t Threshold);

  /// Regions compiled so far.
  uint64_t compiledRegions() const {
    return CompiledRegions.load(std::memory_order_relaxed);
  }
  uint64_t codeBytes() const {
    return CodeBytes.load(std::memory_order_relaxed);
  }

private:
  enum : uint8_t { Cold = 0, Published = 1, NoCompile = 2 };

  void compileRegionLocked(uint32_t B);

  EmitContext Ctx;
  uint32_t NumBlocks = 0;
  std::unique_ptr<std::atomic<JitFn>[]> RegionFns[2]; ///< by Recording
  std::unique_ptr<std::atomic<uint32_t>[]> Visits;
  /// Per block; blocks that are no region entry start out NoCompile.
  std::unique_ptr<std::atomic<uint8_t>[]> State;
  std::vector<uint32_t> RegionWords; ///< written under Mu before publication
  std::mutex Mu;
  JitArena Arena;
  std::atomic<uint64_t> CompiledRegions{0};
  std::atomic<uint64_t> CodeBytes{0};
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITCACHE_H
