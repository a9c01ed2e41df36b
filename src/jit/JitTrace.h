//===- JitTrace.h - Per-session compiled entry traces -----------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second JIT tier: whole cache entries compiled to one native call per
/// replayed step. Unlike the per-action JitCache (per plan, shared by every
/// session), traces are bound to one session's ActionCache — they bake node
/// span offsets and successor links of that cache's arenas — so the trace
/// cache is per session and single-threaded, owned by that session's Jit
/// backend.
///
/// Validity is epoch-gated: a trace records the cache's mutation epoch at
/// compile time and is only dispatched while the epoch still matches.
/// Every out-of-band corruption channel (fault injection) bumps the epoch,
/// so a trace can never run over state the interpreter would have
/// re-verified — the step falls back to the interpreter, which performs
/// the full seal sweep and detects or absorbs the corruption. Arena
/// rebuilds (eviction, snapshot loads, base attach/detach) invalidate node
/// ids wholesale; the backend resets the trace cache on those hooks.
///
/// A trace exits by returning an index into its exit table: either a clean
/// end-of-step (the end node's id is baked in the table) or a side exit at
/// a Test edge that had no recorded successor at compile time. Side exits
/// carry the full replayed prefix — the (node, value) path from the entry
/// head — so the caller can hand recovery the exact state an interpreted
/// walk would have built, or resume interpretation mid-chain when the
/// successor has been recorded since (a stale trace, queued for lazy
/// recompilation).
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITTRACE_H
#define FACILE_JIT_JITTRACE_H

#include "src/jit/JitAbi.h"
#include "src/jit/JitArena.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace facile {
namespace jit {

class JitTraceCache {
public:
  /// One step of the replayed prefix reconstructed at a side exit;
  /// mirrors Simulation::ReplayedStep::Item.
  struct PathItem {
    uint32_t Node;
    int64_t Value;
  };

  /// One exit of a compiled trace, indexed by the trace's return value.
  struct Exit {
    uint32_t Node = 0;  ///< global cache node id of the exiting node
    int64_t Value = 0;  ///< test outcome taken at a side exit
    bool IsEnd = false; ///< clean end-of-step; Node is the End node
    uint32_t PathOfs = 0; ///< replayed prefix in the trace's PathPool,
    uint32_t PathLen = 0; ///< exit node included (side exits only)
  };

  struct Trace {
    JitFn Fn = nullptr;
    uint64_t Epoch = 0; ///< cache mutation epoch the trace was compiled at
    std::vector<Exit> Exits;
    std::vector<PathItem> PathPool;
  };

  /// The published trace for \p Entry, or null when there is none or the
  /// cache's mutation epoch moved past it (corruption was injected since;
  /// the interpreter must re-verify).
  Trace *find(uint32_t Entry, uint64_t Epoch) {
    if (Entry >= Slots.size())
      return nullptr;
    Slot &S = Slots[Entry];
    if (S.State != Published || S.T.Epoch != Epoch)
      return nullptr;
    return &S.T;
  }

  /// Counts one replay of \p Entry; true when the entry just crossed
  /// \p Threshold and the caller should compile it now. Entries marked
  /// no-compile, already published at the current epoch, or refused by the
  /// code budget never trip.
  bool shouldCompile(uint32_t Entry, uint32_t Threshold, uint64_t Epoch);

  /// Copies \p Code into executable memory and publishes it as \p Entry's
  /// trace. Returns false (and pins the entry no-compile) when executable
  /// memory is unavailable or the budget is exhausted.
  bool publish(uint32_t Entry, Trace T, const std::vector<uint8_t> &Code);

  /// Pins \p Entry to the interpreter (inexpressible or over limits).
  void noCompile(uint32_t Entry);

  /// Drops \p Entry's trace and restarts its visit count: the recording
  /// grew past the compiled tree (a side exit found a successor), so the
  /// entry re-trips and recompiles with the new branch included.
  void invalidate(uint32_t Entry);

  /// Drops every trace and the code arena: the cache arenas were rebuilt
  /// (eviction, snapshot load, base attach/detach) and every baked node id
  /// and span offset is garbage. Safe because traces are per session and
  /// never mid-flight when the owner's hooks run.
  void reset();

  uint64_t compiledTraces() const { return Compiled; }
  uint64_t codeBytes() const { return Arena ? Arena->mappedBytes() : 0; }
  uint64_t resets() const { return Resets; }

  /// Ceiling on executable bytes held; crossing it pins further entries to
  /// the interpreter instead of growing without bound. Deliberately small:
  /// traces pay off only on entry-concentrated workloads where a few
  /// thousand hot entries absorb most replayed steps. Entry-diverse
  /// workloads (tens of thousands of live entries) get *slower* when fully
  /// traced — the per-entry code has no icache locality and compile time is
  /// never amortised — so the budget caps the damage: the first entries to
  /// prove hot get native code, the long tail stays interpreted.
  static constexpr uint64_t MaxCodeBytes = 4ull << 20;

  /// Growth invalidations tolerated per entry before pinning it to the
  /// interpreter. An entry whose recorded tree keeps growing (a side exit
  /// discovers a new successor after each recompile) churns compile time
  /// and arena bytes for code that is about to be stale again.
  static constexpr uint32_t MaxRecompiles = 3;

private:
  enum : uint8_t { Cold = 0, Published = 1, NoCompile = 2 };
  struct Slot {
    uint8_t State = Cold;
    uint32_t Visits = 0;
    uint32_t Recompiles = 0; ///< growth invalidations so far (churn pin)
    Trace T;
  };
  std::vector<Slot> Slots;
  std::unique_ptr<JitArena> Arena;
  uint64_t Compiled = 0;
  uint64_t Resets = 0;
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITTRACE_H
