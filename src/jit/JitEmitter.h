//===- JitEmitter.h - x86-64 template emitter for fast streams --*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Copy-and-patch compilation of XInst streams to native x86-64: one fixed
/// instruction template per XOp, stitched in stream order with the operand
/// fields patched in as immediates and fixed displacements. There is no IR
/// and no register allocation — the CVC observation applies: direct
/// emission over a small opcode set already removes the whole
/// dispatch-and-decode cost that dominates replay. Two artifacts come out
/// of it, one per engine: slow-engine regions (emitRegion) and whole-entry
/// replay traces (emitTrace). Both compile control flow as well as node
/// bodies: a region's rt-static branches and a trace's recorded tests jump
/// straight to the successor's code.
///
/// Register plan (all callee-saved, so helper calls need no spills):
///   rbx  JitFrame*              r14  DynGlobals base
///   r12  DynSlots base          r15  TestValue accumulator
///   r13  placeholder Span base (traces) / capture cursor (regions)
///   rbp  overlay data pool (traces) / StatSlots base (regions)
/// rax/rcx/rdx/rsi/rdi/r8-r11 are per-template scratch. The prologue
/// reserves stack for extern argument gathering, keeping rsp 16-aligned
/// at every call site.
///
/// Placeholder reads compile to fixed `Span[K]` displacements: the number
/// of words an action consumes is a compile-time constant of the plan,
/// which is what lets a trace bake each node's span as a fixed offset
/// once the node's recorded DataLen matched it.
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_JIT_JITEMITTER_H
#define FACILE_JIT_JITEMITTER_H

#include "src/jit/JitAbi.h"
#include "src/runtime/ExecPlan.h"

#include <cstdint>
#include <vector>

namespace facile {

namespace isa {
struct TargetImage;
}

namespace jit {

/// Everything immutable the emitter bakes into code as constants.
struct EmitContext {
  const rt::ExecPlan *Plan = nullptr;
  const isa::TargetImage *Image = nullptr;
  uint32_t NumSlots = 0;
  /// Element count per global id; 0 for scalars.
  std::vector<uint32_t> ArraySizes;
  /// Element count per local-array id.
  std::vector<uint32_t> LocArraySizes;
  /// Blocks the slow engine can dispatch: the plan's blocks that the
  /// action table also covers. Control transfers at or past this are the
  /// dispatcher's PlanCorrupt fault.
  uint32_t NumBlocks = 0;
  /// Per block: 1 when it is an action block (it records a node, so a
  /// region returns to the dispatcher before entering it).
  std::vector<uint8_t> ActionBlock;
  JitRuntimeHooks Hooks;
};

/// Per block of the plan, 1 when the slow engine dispatches it as a region
/// entry: block 0, every block a region cannot chain into (action blocks —
/// they record a node — and blocks with dynamic code or a terminator that
/// is not an rt-static Jump/Branch), and every target of a terminator the
/// regions leave to the dispatcher (dynamic tests). Other blocks only ever
/// run inside a region.
std::vector<uint8_t> regionEntries(const EmitContext &Ctx);

/// Compiles the region rooted at block \p Entry into \p Code: the entry's
/// complete body (rt-static instructions against the frame's Stat* state,
/// dynamic ones against the shared state), then — when the entry's
/// terminator is an rt-static Jump/Branch — that terminator and, natively,
/// every block reachable through rt-static edges without entering an action
/// block; static-bound loops become native back-edges. The region returns
/// the next block to dispatch, RegionAtTerminator, or a bail code
/// (JitAbi.h). A chained block holding anything the templates cannot
/// express, and any target outside the block table, ends the region there:
/// the block (or the bad target) is returned to the dispatcher, whose
/// interpreter then runs it or raises its usual fault.
///
/// Only the entry can record: chained blocks are pure rt-static code. So
/// the number of placeholder words one execution captures is a compile-time
/// constant, returned in \p CaptureWordsOut. A \p Recording variant writes
/// every word the recording interpreter would pushData() — static operands
/// in placeholder order, memoized sync values — to Frame.Capture, leaving
/// the final cursor in Frame.CaptureEnd on every exit path; the caller
/// flushes those through the cache (preserving seal and peak accounting)
/// after the call returns. Returns false when the entry's body holds
/// anything the templates cannot express bit-exactly.
bool emitRegion(const EmitContext &Ctx, uint32_t Entry, bool Recording,
                std::vector<uint8_t> &Code, uint32_t &CaptureWordsOut);

/// Sentinel successor for TraceNodeDesc: control leaves the trace here
/// (the emitter materializes a side exit returning the exit's id).
inline constexpr uint32_t TraceNoSucc = ~0u;

/// One node of an entry trace, fully resolved by the builder: the action
/// to run, the node's placeholder span as a compile-time offset off the
/// right pool base, and successors as *descriptor indices* (the trace is a
/// tree, emitted in DFS pre-order so Succ[0] is usually the fallthrough).
struct TraceNodeDesc {
  int32_t ActionId = -1;
  uint32_t CacheNode = 0; ///< global cache node id (for the caller's maps)
  uint64_t SpanOfs = 0;   ///< word offset into the side's data pool
  uint32_t DataLen = 0;   ///< recorded span length; must equal the words
                          ///< the compiled stream consumes
  bool BaseSide = false;  ///< span lives in the base pool (JitFrame+88)
  uint8_t Kind = 0;       ///< 0 = Plain, 1 = Test, 2 = End
  uint32_t Succ[2] = {TraceNoSucc, TraceNoSucc}; ///< Plain uses Succ[0]
};

/// One exit of a compiled trace, in exit-id order (the trace's return
/// value indexes this list): either a clean end-of-step (IsEnd) or a side
/// exit at Test node \p Desc whose outcome \p Value had no compiled
/// successor.
struct TraceExitDesc {
  uint32_t Desc = 0;
  uint8_t Value = 0;
  bool IsEnd = false;
};

/// Compiles a whole entry trace — the node tree a replay can walk — into
/// one JitFn, where \p
/// Span is the *overlay data pool base* (per-node spans are fixed offsets
/// baked at compile time) and the return value is an index into \p Exits
/// (>= 0) or a bail code (< 0). Returns false when any node's stream is
/// inexpressible or consumes a different word count than its recorded
/// span.
bool emitTrace(const EmitContext &Ctx, const std::vector<TraceNodeDesc> &Nodes,
               std::vector<uint8_t> &Code, std::vector<TraceExitDesc> &Exits);

/// True when this build can emit and run native code (x86-64 with mmap).
bool available();

} // namespace jit
} // namespace facile

#endif // FACILE_JIT_JITEMITTER_H
