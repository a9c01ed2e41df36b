//===- JitCache.h - Per-plan compiled-action cache --------------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile queue and code store for one ExecPlan. Like the plan it is
/// compiled from, a JitCache is shared by every session running that plan
/// (SharedProgram holds one lazily; owned-plan simulations hold a private
/// one), so all mutation is thread-safe:
///
///  - visit counters are relaxed atomics bumped from the replay loop;
///  - compilation is serialized by a mutex and happens at most once per
///    action (success or a permanent "leave it interpreted" verdict);
///  - entry points are published by a release store into per-action tables
///    after the W^X arena flipped the chunk read-execute; the replay loop
///    acquire-loads them, so a non-null pointer always sees finished code.
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

  uint32_t actionCount() const { return NumActions; }

  /// The emit context built for this plan — shared with the trace tier so
  /// both compile against identical constants.
  const EmitContext &ctx() const { return Ctx; }

  /// The compiled entry point for \p Action, or null while it is still
  /// interpreted.
  JitFn fn(uint32_t Action) const {
    return Fns[Action].load(std::memory_order_acquire);
  }

  /// Placeholder words the compiled action consumes. Only meaningful once
  /// fn() returned non-null (the acquire load orders this read); callers
  /// must verify a node's DataLen equals this before running native code.
  uint32_t words(uint32_t Action) const { return Words[Action]; }

  /// Counts one interpreted replay visit; compiles the action once the
  /// count reaches \p Threshold (sessions may configure different trip
  /// points over one shared cache — first to trip compiles).
  void noteVisit(uint32_t Action, uint32_t Threshold);

  //===-- Slow-path block bodies -------------------------------------------
  // The complete (rt-static + dynamic) body of every slow-stream block
  // compiles once per plan in two variants — recording or not — and is
  // dispatched by the slow engine on every cold or unmemoized step. Blocks
  // are few and shared, so they amortize perfectly; like actions they trip
  // on a per-block visit count.

  /// The compiled body of block \p B for the variant, or null while it is
  /// interpreted.
  JitFn blockFn(uint32_t B, bool Recording) const {
    if (B >= NumBlocks)
      return nullptr;
    return BlockFns[Recording][B].load(std::memory_order_acquire);
  }
  /// Placeholder words one recording execution of block \p B captures.
  /// Meaningful once blockFn() returned non-null for any variant.
  uint32_t blockCaptureWords(uint32_t B) const { return BlockWords[B]; }
  /// Counts one interpreted execution of block \p B's body; compiles both
  /// variants once the count reaches \p Threshold.
  void noteBlockVisit(uint32_t B, uint32_t Threshold);

  uint64_t compiledActions() const {
    return Compiled.load(std::memory_order_relaxed);
  }
  uint64_t compiledBlocks() const {
    return CompiledBlocks.load(std::memory_order_relaxed);
  }
  uint64_t codeBytes() const {
    return CodeBytes.load(std::memory_order_relaxed);
  }

private:
  enum : uint8_t { Cold = 0, Published = 1, NoCompile = 2 };

  void compileLocked(uint32_t Action);
  void compileBlockLocked(uint32_t B);

  EmitContext Ctx;
  uint32_t NumActions = 0;
  uint32_t NumBlocks = 0;
  std::unique_ptr<std::atomic<JitFn>[]> Fns;
  std::unique_ptr<std::atomic<uint32_t>[]> Visits;
  std::unique_ptr<std::atomic<uint8_t>[]> State;
  std::vector<uint32_t> Words; ///< written under Mu before publication
  std::unique_ptr<std::atomic<JitFn>[]> BlockFns[2]; ///< by Recording
  std::unique_ptr<std::atomic<uint32_t>[]> BlockVisits;
  std::unique_ptr<std::atomic<uint8_t>[]> BlockState;
  std::vector<uint32_t> BlockWords; ///< written under Mu before publication
  std::mutex Mu;
  JitArena Arena;
  std::atomic<uint64_t> Compiled{0};
  std::atomic<uint64_t> CompiledBlocks{0};
  std::atomic<uint64_t> CodeBytes{0};
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITCACHE_H
