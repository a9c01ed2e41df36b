//===- JitAbi.h - Contract between compiled actions and the runtime -*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ABI shared by the template JIT (src/jit) and the runtime that calls
/// into its code (src/runtime/FastEngine.cpp via the Jit ExecBackend).
///
/// A compiled action is a leaf function
///
///   int64_t fn(const JitFrame *Frame, const int64_t *Span)
///
/// executing one action's dynamic-only XInst stream natively. \p Span is
/// the node's placeholder span (resolved by the caller against the cache
/// arenas, exactly as the interpreter resolves it); the number of words the
/// stream consumes is a per-action compile-time constant, so the caller
/// must pre-check `Node.DataLen == JitCache::words(ActionId)` and fall back
/// to the interpreter on mismatch — that is the structural bailout.
///
/// Return value:
///   >= 0  the action ran to completion; the value is the dynamic-result
///         TestValue (0/1, or 0 when the action has no Branch)
///   <  0  a bail code (below). Bails only occur for conditions that are
///         immediate faults in the interpreter too — never for conditions
///         the interpreter would recover from — so the caller must never
///         re-run a bailed node (its side effects already happened).
///
/// Everything session-mutable is reached through the JitFrame; everything
/// immutable per plan/image (text base, array sizes, data pointers of the
/// image text, helper addresses) is baked into the code as immediates.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITABI_H
#define FACILE_JIT_JITABI_H

#include <cstdint>
#include <vector>

namespace facile {
namespace jit {

/// Per-session execution frame. Field offsets are fixed — the emitter
/// hard-codes them — and static_asserted in JitEmitter.cpp. The owning
/// backend must refresh every pointer whenever the session's vectors are
/// replaced (deserializeState), since compiled code dereferences them raw.
struct JitFrame {
  int64_t *Slots = nullptr;              ///< +0  DynSlots.data()
  int64_t *Globals = nullptr;            ///< +8  DynGlobals.data()
  int64_t *const *Arrays = nullptr;      ///< +16 per-global-id array data()
  int64_t *const *LocArrays = nullptr;   ///< +24 per-local-array data()
  void *Mem = nullptr;                   ///< +32 TargetMemory*
  void *Sim = nullptr;                   ///< +40 Simulation* (extern thunk)
  uint64_t *RetiredTotal = nullptr;      ///< +48
  uint64_t *RetiredFast = nullptr;       ///< +56
  uint64_t *Cycles = nullptr;            ///< +64
  bool *Halt = nullptr;                  ///< +72
  int64_t ExternRet = 0;                 ///< +80 extern-result scratch
  /// +88: base-layer data pool, refreshed by the caller before every trace
  /// call (trace code resolves base-side spans off it; action code never
  /// reads it — the caller resolves the span).
  const int64_t *BaseData = nullptr;
  // Slow-path (complete stream) state, used only by compiled block bodies:
  // the recording simulator's private run-time-static state, plus the
  // placeholder capture buffer recording variants write through.
  int64_t *StatSlots = nullptr;            ///< +96  StatSlots.data()
  int64_t *StatGlobals = nullptr;          ///< +104 StatGlobals.data()
  int64_t *const *StatArrays = nullptr;    ///< +112 per-global-id data()
  int64_t *const *StatLocArrays = nullptr; ///< +120 per-local-array data()
  /// +128: capture buffer base; the caller sizes it to the block's
  /// compile-time capture word count before every recording call.
  int64_t *Capture = nullptr;
  /// +136: capture cursor at exit (set by recording block variants on
  /// every exit path, bails included, so the caller can flush exactly the
  /// words the interpreter would have pushed before a fault).
  int64_t *CaptureEnd = nullptr;
};

/// A compiled action entry point.
using JitFn = int64_t (*)(const JitFrame *Frame, const int64_t *Span);

/// Negative return values of a JitFn.
enum JitBail : int64_t {
  /// Instruction fetch outside the text segment. The caller raises the
  /// same DecodeError fault the interpreter raises mid-node.
  BailFetchOob = -1,
  /// An extern call failed. The fault was already raised inside the extern
  /// thunk (by Simulation::externCall); the caller just reports Faulted.
  BailExternFail = -2,
};

/// Addresses of runtime services compiled code calls out to. The runtime
/// fills this once per process (rt::jitRuntimeHooks()); the emitter bakes
/// the pointers into call sites as 64-bit immediates. Memory reads return
/// pre-widened uint64_t so the emitted code needs no extension.
struct JitRuntimeHooks {
  uint64_t (*MemRead32)(void *Mem, uint32_t Addr) = nullptr;
  uint64_t (*MemRead8)(void *Mem, uint32_t Addr) = nullptr;
  void (*MemWrite32)(void *Mem, uint32_t Addr, uint32_t Value) = nullptr;
  void (*MemWrite8)(void *Mem, uint32_t Addr, uint8_t Value) = nullptr;
  /// Dispatches Plan->Fast[FastIdx] (a CallExtern) through the session's
  /// extern table, fault hooks included. False = a fault was raised.
  bool (*Extern)(void *Sim, uint32_t FastIdx, const int64_t *Args,
                 int64_t *Ret) = nullptr;
  /// Same, for slow-stream code: \p CodeIdx indexes Plan->Code.
  bool (*ExternSlow)(void *Sim, uint32_t CodeIdx, const int64_t *Args,
                     int64_t *Ret) = nullptr;
  void (*Print)(int64_t Value) = nullptr;
};

/// Per-session JIT view, armed by the Jit ExecBackend and consulted by the
/// replay loop: the frame, the plan's shared code cache, the session's
/// private trace cache, the compile trip point and the session-local
/// counters.
class JitCache;
class JitTraceCache;
struct JitSession {
  JitFrame Frame;
  JitCache *Cache = nullptr;
  JitTraceCache *Traces = nullptr; ///< per-session compiled entry traces
  uint32_t Threshold = 1; ///< visits before an action/trace compiles
  uint64_t JitSteps = 0;   ///< steps where >=1 node ran natively
  uint64_t TraceSteps = 0; ///< steps completed entirely by one trace call
  uint64_t Bailouts = 0;   ///< structural fallbacks to the interpreter
  uint64_t SlowBlockExecs = 0; ///< slow-path block bodies run natively
  /// Placeholder capture buffer for recording block variants; sized on
  /// demand to the dispatched block's compile-time capture word count.
  std::vector<int64_t> Capture;
};

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITABI_H
