//===- ExecBackend.cpp - Interpret and Jit execution backends --------------===//
//
// The two engine-dispatch strategies behind Simulation::step(), plus the
// runtime-service thunks native code calls out to. The Jit backend owns
// the per-session jit::JitSession (frame pointers, trip point, counters)
// and arms Simulation::JitCtx with it; the replay loop in FastEngine.cpp
// does the actual per-node native dispatch.
//
//===----------------------------------------------------------------------===//

#include "src/runtime/ExecBackend.h"

#include "src/jit/JitCache.h"
#include "src/jit/JitTrace.h"
#include "src/telemetry/Metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

using namespace facile;
using namespace facile::rt;

//===----------------------------------------------------------------------===//
// BackendKind names
//===----------------------------------------------------------------------===//

const char *facile::rt::backendKindName(BackendKind K) {
  switch (K) {
  case BackendKind::Auto:
    return "auto";
  case BackendKind::Interpret:
    return "interpret";
  case BackendKind::Jit:
    return "jit";
  }
  return "unknown";
}

bool facile::rt::parseBackendKind(const std::string &Name, BackendKind &Out) {
  if (Name == "auto") {
    Out = BackendKind::Auto;
    return true;
  }
  if (Name == "interpret" || Name == "off") {
    Out = BackendKind::Interpret;
    return true;
  }
  if (Name == "jit" || Name == "on") {
    Out = BackendKind::Jit;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// ExecBackend base
//===----------------------------------------------------------------------===//

ExecBackend::~ExecBackend() = default;

Simulation::ReplayResult ExecBackend::replay(EntryId Entry, KeyId Key) {
  return Sim.runFast(Entry, Key);
}

void ExecBackend::record(EntryId Rec) { Sim.runSlow(Rec, nullptr); }

void ExecBackend::exportMetrics(telemetry::MetricSink &Sink) const {
  Sink.text("backend", name());
  Sink.flag("available", jit::available());
  Sink.counter("compiled_actions", 0);
  Sink.counter("compiled_blocks", 0);
  Sink.counter("compiled_traces", 0);
  Sink.counter("jit_exec_steps", 0);
  Sink.counter("trace_steps", 0);
  Sink.counter("slow_block_execs", 0);
  Sink.counter("bailouts", 0);
  Sink.counter("code_bytes", 0);
  Sink.counter("trace_code_bytes", 0);
}

//===----------------------------------------------------------------------===//
// InterpretBackend
//===----------------------------------------------------------------------===//

namespace facile {
namespace rt {

class InterpretBackend : public ExecBackend {
public:
  explicit InterpretBackend(Simulation &Sim) : ExecBackend(Sim) {}
  const char *name() const override { return "interpret"; }
  BackendKind kind() const override { return BackendKind::Interpret; }
};

//===----------------------------------------------------------------------===//
// JitBackend
//===----------------------------------------------------------------------===//

class JitBackend : public ExecBackend {
public:
  JitBackend(Simulation &Sim, jit::JitCache &Cache);
  ~JitBackend() override;

  const char *name() const override { return "jit"; }
  BackendKind kind() const override { return BackendKind::Jit; }

  Simulation::ReplayResult replay(EntryId Entry, KeyId Key) override {
    // Trace maintenance runs outside the engine: count the replay, and
    // compile the entry's whole node tree once it proves hot. The engine
    // then dispatches the published trace (FastEngine.cpp).
    if (!Disabled)
      maybeCompileTrace(Entry);
    return Sim.runFast(Entry, Key);
  }

  void onStateReplaced() override { refreshFrame(); }
  void onCacheRebuilt() override {
    // Per-action code references no cache arena (spans are resolved per
    // node by the caller and passed in) and survives; entry traces bake
    // node ids and span offsets of the rebuilt arenas and are dropped
    // wholesale.
    Traces.reset();
    ++CacheRebuilds;
  }
  void onPlanPrivatized() override {
    // Compiled code bakes plan constants as immediates. The caller got a
    // mutable plan reference, so all of it is suspect from here on:
    // disarm the session permanently — replay never consults the JIT
    // again — while published code stays mapped (another thread may be
    // mid-flight in it; the arena frees only at cache destruction).
    Sim.JitCtx = nullptr;
    Disabled = true;
  }

  void exportMetrics(telemetry::MetricSink &Sink) const override {
    Sink.text("backend", name());
    Sink.flag("available", true);
    Sink.counter("compiled_actions", Session.Cache->compiledActions());
    Sink.counter("compiled_blocks", Session.Cache->compiledBlocks());
    Sink.counter("compiled_traces", Traces.compiledTraces());
    Sink.counter("jit_exec_steps", Session.JitSteps);
    Sink.counter("trace_steps", Session.TraceSteps);
    Sink.counter("slow_block_execs", Session.SlowBlockExecs);
    Sink.counter("bailouts", Session.Bailouts);
    Sink.counter("code_bytes", Session.Cache->codeBytes());
    Sink.counter("trace_code_bytes", Traces.codeBytes());
  }

  uint64_t compiledActions() const override {
    // Every tier compiles actions to native code — per-action functions,
    // slow-path block bodies, and whole-entry traces. Report the total;
    // exportMetrics keeps the per-tier breakdown. (At low thresholds the
    // trace tier can absorb every hot entry before a single per-action
    // visit accrues, so the per-action counter alone may read zero on a
    // run that is in fact fully JIT-compiled.)
    return Session.Cache->compiledActions() + Session.Cache->compiledBlocks() +
           Traces.compiledTraces();
  }

  // Runtime-service thunks whose addresses the emitter bakes into code
  // (signatures in JitAbi.h).
  static uint64_t memRead32(void *Mem, uint32_t Addr) {
    return static_cast<TargetMemory *>(Mem)->read32(Addr);
  }
  static uint64_t memRead8(void *Mem, uint32_t Addr) {
    return static_cast<TargetMemory *>(Mem)->read8(Addr);
  }
  static void memWrite32(void *Mem, uint32_t Addr, uint32_t Value) {
    static_cast<TargetMemory *>(Mem)->write32(Addr, Value);
  }
  static void memWrite8(void *Mem, uint32_t Addr, uint8_t Value) {
    static_cast<TargetMemory *>(Mem)->write8(Addr, Value);
  }
  static bool externThunk(void *SimP, uint32_t FastIdx, const int64_t *Args,
                          int64_t *Ret) {
    Simulation &S = *static_cast<Simulation *>(SimP);
    // The emitter only compiles in-range CallExterns, and the plan cannot
    // have changed since (privatization disarms the JIT first).
    const XInst &I = S.Plan->Fast[FastIdx];
    int64_t Out = 0;
    if (!S.externCall(I, Args, Out))
      return false; // fault already raised; native code bails
    *Ret = Out;
    return true;
  }
  static bool externSlowThunk(void *SimP, uint32_t CodeIdx,
                              const int64_t *Args, int64_t *Ret) {
    Simulation &S = *static_cast<Simulation *>(SimP);
    const XInst &I = S.Plan->Code[CodeIdx];
    int64_t Out = 0;
    if (!S.externCall(I, Args, Out))
      return false; // fault already raised; native code bails
    *Ret = Out;
    return true;
  }
  static void printThunk(int64_t Value) {
    std::printf("%lld\n", static_cast<long long>(Value));
  }

private:
  void refreshFrame();
  void maybeCompileTrace(EntryId Entry);
  void compileTrace(EntryId Entry, uint64_t Epoch);

  jit::JitSession Session;
  jit::JitTraceCache Traces; ///< per-session: traces bake this cache's ids
  /// Backing stores for the frame's array-of-pointers indirections.
  std::vector<int64_t *> ArrayPtrs;
  std::vector<int64_t *> LocPtrs;
  std::vector<int64_t *> StatArrayPtrs;
  std::vector<int64_t *> StatLocPtrs;
  bool Disabled = false;
  uint64_t CacheRebuilds = 0;
};

} // namespace rt
} // namespace facile

JitBackend::JitBackend(Simulation &Sim, jit::JitCache &Cache)
    : ExecBackend(Sim) {
  Session.Cache = &Cache;
  uint32_t T = Sim.Opts.JitThreshold;
  if (T == Simulation::Options::DefaultJitThreshold)
    if (const char *Env = std::getenv("FACILE_JIT_THRESHOLD"))
      T = static_cast<uint32_t>(std::strtoul(Env, nullptr, 10));
  Session.Threshold = T == 0 ? 1 : T;
  Session.Traces = &Traces;
  refreshFrame();
  Sim.JitCtx = &Session;
}

JitBackend::~JitBackend() {
  if (Sim.JitCtx == &Session)
    Sim.JitCtx = nullptr;
}

void JitBackend::refreshFrame() {
  jit::JitFrame &F = Session.Frame;
  F.Slots = Sim.DynSlots.data();
  F.Globals = Sim.DynGlobals.data();
  // Element vectors never resize during execution (SyncArray memcpys in
  // place; InitLocArray assigns at fixed capacity), so inner data
  // pointers only move when whole vectors are replaced — exactly the
  // onStateReplaced() events that re-run this.
  ArrayPtrs.resize(Sim.DynArrays.size());
  for (size_t I = 0; I != Sim.DynArrays.size(); ++I)
    ArrayPtrs[I] = Sim.DynArrays[I].data();
  LocPtrs.resize(Sim.DynLocalArrays.size());
  for (size_t I = 0; I != Sim.DynLocalArrays.size(); ++I)
    LocPtrs[I] = Sim.DynLocalArrays[I].data();
  F.Arrays = ArrayPtrs.data();
  F.LocArrays = LocPtrs.data();
  F.Mem = &Sim.Mem;
  F.Sim = &Sim;
  F.RetiredTotal = &Sim.S.RetiredTotal;
  F.RetiredFast = &Sim.S.RetiredFast;
  F.Cycles = &Sim.S.Cycles;
  F.Halt = &Sim.HaltFlag;
  // Slow-path state for compiled block bodies.
  F.StatSlots = Sim.StatSlots.data();
  F.StatGlobals = Sim.StatGlobals.data();
  StatArrayPtrs.resize(Sim.StatArrays.size());
  for (size_t I = 0; I != Sim.StatArrays.size(); ++I)
    StatArrayPtrs[I] = Sim.StatArrays[I].data();
  StatLocPtrs.resize(Sim.StatLocalArrays.size());
  for (size_t I = 0; I != Sim.StatLocalArrays.size(); ++I)
    StatLocPtrs[I] = Sim.StatLocalArrays[I].data();
  F.StatArrays = StatArrayPtrs.data();
  F.StatLocArrays = StatLocPtrs.data();
}

void JitBackend::maybeCompileTrace(EntryId Entry) {
  const uint64_t Epoch = Sim.Cache.mutationEpoch();
  if (Traces.shouldCompile(Entry, Session.Threshold, Epoch))
    compileTrace(Entry, Epoch);
}

/// Walks \p Entry's recorded node tree, running the guarded interpreter's
/// full verification over every node it is about to bake (structural
/// bounds always; the seal sweep when guards are on — compiled code skips
/// per-node checks, so nothing unverified may be compiled in), and
/// publishes the emitted trace. Any refusal pins the entry to the
/// interpreter; nothing here can fault.
void JitBackend::compileTrace(EntryId Entry, uint64_t Epoch) {
  // Const reference on purpose: ActionCache::node() has a mutable
  // overlay-only overload; the walk must resolve global ids through the
  // base-aware const accessors.
  const ActionCache &C = Sim.Cache;
  const ExecPlan &P = *Sim.Plan;
  const uint32_t NumActions = static_cast<uint32_t>(P.ActionOfs.size() - 1);
  const uint32_t NumNodes = static_cast<uint32_t>(C.nodeCount());
  const uint64_t BaseD = C.baseDataWords();
  const uint64_t PoolSize = C.dataSize();
  const CacheEntry &E = C.entry(Entry);
  if (E.Head == ActionNode::NoNode || E.Key == NoId)
    return Traces.noCompile(Entry);

  // DFS pre-order over the entry's tree. Children of a Test are pushed
  // 1-edge first so the 0-edge becomes the emitted fallthrough. The walk
  // refuses non-trees (a revisited node means a corrupt or exotic graph
  // the per-exit path tables cannot represent) and caps the node count.
  constexpr uint32_t MaxNodes = 256;
  struct Work {
    uint32_t Node;
    uint64_t Tag; ///< incoming link tag (seal verification)
    uint32_t ParentDesc;
    uint8_t Slot;  ///< which Succ[] of the parent this node fills
    int64_t Value; ///< the outcome by which the parent reaches this node
  };
  std::vector<jit::TraceNodeDesc> Descs;
  struct Link {
    uint32_t Parent;
    int64_t Value;
  };
  std::vector<Link> Parents; ///< per desc: DFS parent, for exit paths
  std::vector<Work> Stack;
  std::unordered_set<uint32_t> Seen;
  Stack.push_back({E.Head, ActionCache::headTag(E.Key), jit::TraceNoSucc, 0, 0});

  while (!Stack.empty()) {
    Work W = Stack.back();
    Stack.pop_back();
    if (Descs.size() >= MaxNodes || W.Node >= NumNodes ||
        !Seen.insert(W.Node).second)
      return Traces.noCompile(Entry);
    const ActionNode &N = C.node(W.Node);
    if (static_cast<uint32_t>(N.ActionId) >= NumActions ||
        static_cast<uint8_t>(N.K) > static_cast<uint8_t>(ActionNode::Kind::End))
      return Traces.noCompile(Entry);
    const uint64_t Lo = N.DataOfs, Hi = Lo + N.DataLen;
    if (Hi > PoolSize || (Lo < BaseD && Hi > BaseD))
      return Traces.noCompile(Entry);
    // The interpreter's seal check, unconditionally (marks are an
    // optimization for the per-step loop; compilation is rare). A mismatch
    // is left for the interpreter to detect or absorb.
    const int64_t *Span = C.spanData(N.DataOfs);
    uint64_t Xor = 0;
    for (uint32_t Wd = 0; Wd != N.DataLen; ++Wd)
      Xor ^= static_cast<uint64_t>(Span[Wd]);
    if ((Xor ^ ActionCache::identityMix(N) ^ W.Tag) != C.nodeSeal(W.Node))
      return Traces.noCompile(Entry);
    Sim.Cache.markVerified(W.Node, W.Tag);
    const uint32_t Di = static_cast<uint32_t>(Descs.size());
    if (W.ParentDesc != jit::TraceNoSucc)
      Descs[W.ParentDesc].Succ[W.Slot] = Di;
    jit::TraceNodeDesc D;
    D.ActionId = N.ActionId;
    D.CacheNode = W.Node;
    D.DataLen = N.DataLen;
    D.BaseSide = Lo < BaseD;
    D.SpanOfs = D.BaseSide ? Lo : Lo - BaseD;
    switch (N.K) {
    case ActionNode::Kind::Plain:
      D.Kind = 0;
      if (N.Next == ActionNode::NoNode)
        return Traces.noCompile(Entry); // complete entries link Plain nodes
      Stack.push_back({N.Next, ActionCache::edgeTag(W.Node, -1), Di, 0, 0});
      break;
    case ActionNode::Kind::Test:
      D.Kind = 1;
      for (int V = 1; V >= 0; --V) {
        uint32_t Succ = C.testSuccessor(W.Node, V);
        if (Succ != ActionNode::NoNode)
          Stack.push_back({Succ, ActionCache::edgeTag(W.Node, V), Di,
                           static_cast<uint8_t>(V), V});
      }
      break;
    case ActionNode::Kind::End:
      D.Kind = 2;
      break;
    }
    Descs.push_back(D);
    Parents.push_back({W.ParentDesc, W.Value});
  }

  std::vector<uint8_t> Code;
  std::vector<jit::TraceExitDesc> ExitDescs;
  if (!jit::emitTrace(Session.Cache->ctx(), Descs, Code, ExitDescs))
    return Traces.noCompile(Entry);

  jit::JitTraceCache::Trace T;
  T.Epoch = Epoch;
  T.Exits.reserve(ExitDescs.size());
  for (const jit::TraceExitDesc &X : ExitDescs) {
    jit::JitTraceCache::Exit Ex;
    Ex.Node = Descs[X.Desc].CacheNode;
    Ex.Value = X.Value;
    Ex.IsEnd = X.IsEnd;
    if (!X.IsEnd) {
      // Bake the replayed prefix an interpreted walk to this exit would
      // have built: head..exit in order, each with the outcome taken
      // (Plain edges record 0), the exit node's pair last.
      std::vector<jit::JitTraceCache::PathItem> Rev;
      Rev.push_back({Descs[X.Desc].CacheNode, static_cast<int64_t>(X.Value)});
      for (uint32_t D = X.Desc; Parents[D].Parent != jit::TraceNoSucc;
           D = Parents[D].Parent)
        Rev.push_back({Descs[Parents[D].Parent].CacheNode, Parents[D].Value});
      Ex.PathOfs = static_cast<uint32_t>(T.PathPool.size());
      Ex.PathLen = static_cast<uint32_t>(Rev.size());
      T.PathPool.insert(T.PathPool.end(), Rev.rbegin(), Rev.rend());
    }
    T.Exits.push_back(Ex);
  }
  Traces.publish(Entry, std::move(T), Code);
}

//===----------------------------------------------------------------------===//
// Hooks table and backend factory
//===----------------------------------------------------------------------===//

const jit::JitRuntimeHooks &facile::rt::jitRuntimeHooks() {
  static const jit::JitRuntimeHooks Hooks = [] {
    jit::JitRuntimeHooks H;
    H.MemRead32 = &JitBackend::memRead32;
    H.MemRead8 = &JitBackend::memRead8;
    H.MemWrite32 = &JitBackend::memWrite32;
    H.MemWrite8 = &JitBackend::memWrite8;
    H.Extern = &JitBackend::externThunk;
    H.ExternSlow = &JitBackend::externSlowThunk;
    H.Print = &JitBackend::printThunk;
    return H;
  }();
  return Hooks;
}

namespace {

BackendKind resolveBackend(BackendKind Requested) {
  if (Requested == BackendKind::Auto) {
    if (const char *Env = std::getenv("FACILE_JIT")) {
      BackendKind FromEnv;
      if (parseBackendKind(Env, FromEnv) && FromEnv != BackendKind::Auto)
        Requested = FromEnv;
    }
  }
  if (Requested == BackendKind::Auto)
    Requested =
        jit::available() ? BackendKind::Jit : BackendKind::Interpret;
  // Degrade, never error: an explicit Jit request on a host without the
  // template JIT runs interpreted (the metrics' "available" flag records
  // the downgrade).
  if (Requested == BackendKind::Jit && !jit::available())
    Requested = BackendKind::Interpret;
  return Requested;
}

} // namespace

std::unique_ptr<ExecBackend> facile::rt::makeExecBackend(Simulation &Sim,
                                                         BackendKind Kind) {
  Kind = resolveBackend(Kind);
  if (Kind != BackendKind::Jit)
    return std::make_unique<InterpretBackend>(Sim);
  jit::JitCache *Cache = nullptr;
  if (Sim.SharedProg) {
    // Shared plan: all sessions compile into (and benefit from) the
    // SharedProgram's one code cache.
    Cache = &Sim.SharedProg->jitCache(jitRuntimeHooks());
  } else {
    Sim.OwnedJitCache = std::make_unique<jit::JitCache>(
        Sim.Prog, *Sim.Plan, Sim.Image, jitRuntimeHooks());
    Cache = Sim.OwnedJitCache.get();
  }
  return std::make_unique<JitBackend>(Sim, *Cache);
}
