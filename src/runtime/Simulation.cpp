//===- Simulation.cpp - Simulation lifecycle, host API and stepping --------===//
//
// The engines themselves live in SlowEngine.cpp (record + recovery) and
// FastEngine.cpp (replay); both execute the packed streams built here by
// buildExecPlan. This file owns construction, the host-facing API, key
// serialization and the per-step dispatch between the engines.
//
//===----------------------------------------------------------------------===//

#include "src/runtime/Simulation.h"

#include "src/isa/Isa.h"
#include "src/jit/JitCache.h"
#include "src/runtime/ExecBackend.h"
#include "src/snapshot/Serializer.h"
#include "src/telemetry/Profiler.h"
#include "src/telemetry/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

using namespace facile;
using namespace facile::rt;
using namespace facile::ir;

namespace {

[[noreturn]] void fatal(const char *Msg) {
  std::fprintf(stderr, "facile runtime: %s\n", Msg);
  std::abort();
}

/// Adaptive-bypass tuning (Options::AdaptiveBypass). Percentages are of
/// the window's memoized steps that were not fully replayed.
namespace bypass {
constexpr uint64_t WindowSteps = 1024;  ///< steps per observation window
constexpr uint64_t TripPct = 75;        ///< trip at or above this
constexpr uint64_t HealthyPct = 25;     ///< reset escalation at or below this
constexpr uint64_t CooldownSteps = 4096; ///< base bypassed steps per trip
} // namespace bypass

} // namespace

//===----------------------------------------------------------------------===//
// Construction and host API
//===----------------------------------------------------------------------===//

Simulation::Simulation(const CompiledProgram &Prog,
                       const isa::TargetImage &Image, Options Opts)
    : Prog(Prog), Image(Image), Opts(Opts),
      OwnedPlan(std::make_unique<ExecPlan>(buildExecPlan(Prog))),
      Plan(OwnedPlan.get()), Cache(Opts.CacheBudgetBytes) {
  initState();
}

Simulation::Simulation(const SharedProgram &Shared, Options Opts)
    : Prog(Shared.program()), Image(Shared.image()), Opts(Opts),
      Plan(&Shared.plan()), Cache(Opts.CacheBudgetBytes) {
  SharedProg = &Shared; // before initState: the backend factory reads it
  initState();
}

Simulation::~Simulation() = default;

const char *Simulation::backendName() const { return Backend->name(); }

uint64_t Simulation::jitCompiledActions() const {
  return Backend->compiledActions();
}

ExecPlan &Simulation::mutablePlan() {
  if (!OwnedPlan) {
    // Copy-on-write privatization: the shared plan stays untouched for
    // sibling simulations; only this instance sees the mutation.
    OwnedPlan = std::make_unique<ExecPlan>(*Plan);
    Plan = OwnedPlan.get();
  }
  // Fires on the owned-plan path too: the caller may mutate the plan a
  // backend compiled code from, whichever constructor built it.
  if (Backend)
    Backend->onPlanPrivatized();
  return *OwnedPlan;
}

void Simulation::initState() {
  // The budget applies to the image load too: an image that cannot fit is
  // detected on the first step (the latched flag faults immediately).
  Mem.setPageBudget(Opts.MemPageBudget);
  Mem.loadImage(Image);
  // Fault diagnostics report the conventional program counter when the
  // program has one.
  for (const char *Name : {"PC", "pc"}) {
    auto It = Prog.GlobalIndex.find(Name);
    if (It != Prog.GlobalIndex.end() && !Prog.Globals[It->second].IsArray) {
      PcGlobal = It->second;
      break;
    }
  }
  DynSlots.assign(Prog.Step.NumSlots, 0);
  StatSlots.assign(Prog.Step.NumSlots, 0);
  DynGlobals.assign(Prog.Globals.size(), 0);
  StatGlobals.assign(Prog.Globals.size(), 0);
  DynArrays.resize(Prog.Globals.size());
  StatArrays.resize(Prog.Globals.size());
  for (size_t G = 0; G != Prog.Globals.size(); ++G) {
    const GlobalVar &V = Prog.Globals[G];
    if (V.IsArray) {
      DynArrays[G].assign(V.Size, V.InitValue);
      StatArrays[G].assign(V.Size, V.InitValue);
    } else {
      DynGlobals[G] = V.InitValue;
      StatGlobals[G] = V.InitValue;
    }
  }
  DynLocalArrays.resize(Prog.Step.LocalArrays.size());
  StatLocalArrays.resize(Prog.Step.LocalArrays.size());
  for (size_t L = 0; L != Prog.Step.LocalArrays.size(); ++L) {
    DynLocalArrays[L].assign(Prog.Step.LocalArrays[L].Size, 0);
    StatLocalArrays[L].assign(Prog.Step.LocalArrays[L].Size, 0);
  }
  Externs.resize(Prog.Externs.size());
  for (uint32_t G : Prog.InitGlobals)
    KeyWidth += 8 * (Prog.Globals[G].IsArray ? Prog.Globals[G].Size : 1);
  KeyBuf.reserve(KeyWidth);
  // Last: the backend factory snapshots state pointers built above.
  Backend = makeExecBackend(*this, Opts.Backend);
}

bool Simulation::registerExtern(const std::string &Name,
                                ExternHandler Handler) {
  auto It = Prog.ExternIndex.find(Name);
  if (It == Prog.ExternIndex.end())
    return false;
  Externs[It->second] = std::move(Handler);
  return true;
}

bool Simulation::tryGetGlobal(const std::string &Name, int64_t &Out) const {
  auto It = Prog.GlobalIndex.find(Name);
  if (It == Prog.GlobalIndex.end() || Prog.Globals[It->second].IsArray)
    return false;
  Out = DynGlobals[It->second];
  return true;
}

bool Simulation::trySetGlobal(const std::string &Name, int64_t Value) {
  auto It = Prog.GlobalIndex.find(Name);
  if (It == Prog.GlobalIndex.end() || Prog.Globals[It->second].IsArray)
    return false;
  DynGlobals[It->second] = Value;
  StatGlobals[It->second] = Value;
  return true;
}

int64_t Simulation::getGlobal(const std::string &Name) const {
  int64_t V = 0;
  if (!tryGetGlobal(Name, V))
    fatal("getGlobal: unknown scalar global");
  return V;
}

void Simulation::setGlobal(const std::string &Name, int64_t Value) {
  if (!trySetGlobal(Name, Value))
    fatal("setGlobal: unknown scalar global");
}

int64_t Simulation::getGlobalElem(const std::string &Name,
                                  uint32_t Index) const {
  auto It = Prog.GlobalIndex.find(Name);
  if (It == Prog.GlobalIndex.end() || !Prog.Globals[It->second].IsArray)
    fatal("getGlobalElem: unknown array global");
  return DynArrays[It->second][Index % Prog.Globals[It->second].Size];
}

void Simulation::setGlobalElem(const std::string &Name, uint32_t Index,
                               int64_t Value) {
  auto It = Prog.GlobalIndex.find(Name);
  if (It == Prog.GlobalIndex.end() || !Prog.Globals[It->second].IsArray)
    fatal("setGlobalElem: unknown array global");
  uint32_t I = Index % Prog.Globals[It->second].Size;
  DynArrays[It->second][I] = Value;
  StatArrays[It->second][I] = Value;
}

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

void Simulation::serializeKeyInto(std::string &Out) const {
  // Arrays are contiguous int64 storage, so whole arrays append with one
  // memcpy — this runs on every step and dominates the replay overhead.
  Out.clear();
  for (uint32_t G : Prog.InitGlobals) {
    if (Prog.Globals[G].IsArray) {
      const std::vector<int64_t> &A = DynArrays[G];
      Out.append(reinterpret_cast<const char *>(A.data()), A.size() * 8);
    } else {
      Out.append(reinterpret_cast<const char *>(&DynGlobals[G]), 8);
    }
  }
}

void Simulation::seedStaticFromKey(KeyId Key) {
  const char *Data = Cache.keyData(Key);
  size_t Pos = 0;
  assert(Cache.keyLen(Key) == KeyWidth && "key width mismatch");
  for (uint32_t G : Prog.InitGlobals) {
    if (Prog.Globals[G].IsArray) {
      std::vector<int64_t> &A = StatArrays[G];
      std::memcpy(A.data(), Data + Pos, A.size() * 8);
      Pos += A.size() * 8;
    } else {
      std::memcpy(&StatGlobals[G], Data + Pos, 8);
      Pos += 8;
    }
  }
}

void Simulation::copyInitDynToStatic() {
  for (uint32_t G : Prog.InitGlobals) {
    if (Prog.Globals[G].IsArray)
      StatArrays[G] = DynArrays[G];
    else
      StatGlobals[G] = DynGlobals[G];
  }
}

//===----------------------------------------------------------------------===//
// Faults
//===----------------------------------------------------------------------===//

const char *facile::rt::faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::None:
    return "none";
  case FaultKind::DecodeError:
    return "decode-error";
  case FaultKind::MemoryBudgetExceeded:
    return "memory-budget-exceeded";
  case FaultKind::StepLimit:
    return "step-limit";
  case FaultKind::ExternFailure:
    return "extern-failure";
  case FaultKind::CacheCorrupt:
    return "cache-corrupt";
  case FaultKind::DeadlineExceeded:
    return "deadline-exceeded";
  case FaultKind::PlanCorrupt:
    return "plan-corrupt";
  }
  return "unknown";
}

void Simulation::raiseFault(FaultKind Kind, const char *Detail) {
  if (Fault) // the first fault of a step wins; later ones are cascade
    return;
  Fault.Kind = Kind;
  Fault.Step = S.Steps;
  Fault.Pc = PcGlobal == NoId ? 0 : static_cast<uint64_t>(DynGlobals[PcGlobal]);
  Fault.Detail = Detail;
  ++S.Faults;
  // The INDEX chain may point at a node recorded by the aborted step.
  PendingEndNode = ActionNode::NoNode;
  if (Tracer) {
    flushTraceSpan();
    Tracer->instant("fault", faultKindName(Kind), "step", S.Steps);
  }
}

void Simulation::clearFault() {
  Fault = SimFault();
  Mem.clearBudgetExceeded();
}

//===----------------------------------------------------------------------===//
// Externs
//===----------------------------------------------------------------------===//

bool Simulation::externCall(const XInst &I, const int64_t *Args,
                            int64_t &Out) {
  const ExternHandler &H = Externs[I.Id];
  if (!H) {
    raiseFault(FaultKind::ExternFailure,
               "call to unregistered extern function");
    return false;
  }
  if (ExternFaultHook && ExternFaultHook(I.Id)) {
    raiseFault(FaultKind::ExternFailure, "extern failure injected");
    return false;
  }
  std::optional<int64_t> R = H(Args, I.ArgCount);
  if (!R) {
    raiseFault(FaultKind::ExternFailure, "extern handler reported failure");
    return false;
  }
  Out = *R;
  return true;
}

//===----------------------------------------------------------------------===//
// Snapshot hooks
//===----------------------------------------------------------------------===//

namespace {

/// Field-wise XInst hashing (never the raw struct: padding bytes are
/// unspecified and must not leak into compatibility keys).
uint64_t hashXInst(uint64_t H, const XInst &I) {
  H = hashCombine(H, static_cast<uint64_t>(I.Opcode) |
                         (static_cast<uint64_t>(I.Kind) << 8) |
                         (static_cast<uint64_t>(I.ArgCount) << 16) |
                         (static_cast<uint64_t>(I.Dynamic) << 24) |
                         (static_cast<uint64_t>(I.StaticOperands) << 32));
  H = hashCombine(H, static_cast<uint64_t>(I.Dst) |
                         (static_cast<uint64_t>(I.A) << 32));
  H = hashCombine(H, static_cast<uint64_t>(I.B) |
                         (static_cast<uint64_t>(I.Id) << 32));
  H = hashCombine(H, static_cast<uint64_t>(I.ArgOfs) |
                         (static_cast<uint64_t>(I.Target) << 32));
  H = hashCombine(H, I.Target2);
  H = hashCombine(H, static_cast<uint64_t>(I.Imm));
  return H;
}

uint64_t hashU32Vec(uint64_t H, const std::vector<uint32_t> &V) {
  H = hashCombine(H, V.size());
  return V.empty() ? H : hashBytes(V.data(), V.size() * 4, H);
}

} // namespace

uint64_t Simulation::compatKey() const {
  uint64_t H = FNVOffset;
  H = hashCombine(H, isa::IsaRevision);

  // Options: a cache persisted under one budget is not replayable
  // bookkeeping-identically under another.
  H = hashCombine(H, Opts.Memoize ? 1 : 0);
  H = hashCombine(H, Opts.CacheBudgetBytes);

  // The compiled program, via its packed execution form: action ids,
  // placeholder layout and key layout are all derived from it.
  for (const XInst &I : Plan->Code)
    H = hashXInst(H, I);
  for (const XInst &I : Plan->Fast)
    H = hashXInst(H, I);
  H = hashU32Vec(H, Plan->BlockOfs);
  H = hashU32Vec(H, Plan->ActionOfs);
  H = hashU32Vec(H, Plan->ArgPool);

  // Storage layout: slots, globals (names and shapes), local arrays, the
  // init-global key order and the extern table.
  H = hashCombine(H, Prog.Step.NumSlots);
  H = hashCombine(H, Prog.Globals.size());
  for (const GlobalVar &G : Prog.Globals) {
    H = hashBytes(G.Name.data(), G.Name.size(), H);
    H = hashCombine(H, (G.IsArray ? 1u : 0u) | (G.IsInit ? 2u : 0u));
    H = hashCombine(H, G.Size);
    H = hashCombine(H, static_cast<uint64_t>(G.InitValue));
  }
  H = hashCombine(H, Prog.Step.LocalArrays.size());
  for (const auto &L : Prog.Step.LocalArrays)
    H = hashCombine(H, L.Size);
  H = hashU32Vec(H, Prog.InitGlobals);
  H = hashCombine(H, Prog.Externs.size());
  for (const ExternFn &E : Prog.Externs) {
    H = hashBytes(E.Name.data(), E.Name.size(), H);
    H = hashCombine(H, E.Arity | (E.HasResult ? 0x100u : 0u));
  }

  // The target image: same program over different images must never share
  // snapshots.
  H = hashCombine(H, Image.TextBase);
  H = hashCombine(H, Image.DataBase);
  H = hashCombine(H, Image.Entry);
  H = hashCombine(H, Image.Text.size());
  if (!Image.Text.empty())
    H = hashBytes(Image.Text.data(), Image.Text.size() * 4, H);
  H = hashCombine(H, Image.Data.size());
  if (!Image.Data.empty())
    H = hashBytes(Image.Data.data(), Image.Data.size(), H);
  return H;
}

namespace {

void writeArrays(snapshot::Writer &W,
                 const std::vector<std::vector<int64_t>> &Arrays) {
  W.u64(Arrays.size());
  for (const std::vector<int64_t> &A : Arrays)
    W.i64Vec(A);
}

/// Reads a vector-of-arrays whose shape must match \p Expect exactly (the
/// shape is fixed by the compiled program, so a mismatch is a stale or
/// corrupt payload, not a resize request).
bool readArrays(snapshot::Reader &R,
                const std::vector<std::vector<int64_t>> &Expect,
                std::vector<std::vector<int64_t>> &Out) {
  uint64_t N = R.u64();
  if (!R.ok() || N != Expect.size())
    return false;
  Out.resize(Expect.size());
  for (size_t I = 0; I != Out.size(); ++I)
    if (!R.i64Vec(Out[I]) || Out[I].size() != Expect[I].size())
      return false;
  return true;
}

} // namespace

void Simulation::serializeState(snapshot::Writer &W) const {
  W.u64(S.Steps);
  W.u64(S.FastSteps);
  W.u64(S.Misses);
  W.u64(S.RetiredTotal);
  W.u64(S.RetiredFast);
  W.u64(S.Cycles);
  W.u64(S.PlaceholderWords);
  W.u64(S.Faults);
  W.u64(S.CorruptDropped);
  W.u64(S.BypassActivations);
  W.u64(S.BypassedSteps);
  W.u8(HaltFlag ? 1 : 0);
  W.i64Vec(DynSlots);
  W.i64Vec(DynGlobals);
  writeArrays(W, DynArrays);
  writeArrays(W, DynLocalArrays);
  // The rt-static store persists across steps for non-init static globals,
  // so bit-identical resume must carry it too.
  W.i64Vec(StatSlots);
  W.i64Vec(StatGlobals);
  writeArrays(W, StatArrays);
  writeArrays(W, StatLocalArrays);
}

bool Simulation::deserializeState(snapshot::Reader &R) {
  Stats NewS;
  NewS.Steps = R.u64();
  NewS.FastSteps = R.u64();
  NewS.Misses = R.u64();
  NewS.RetiredTotal = R.u64();
  NewS.RetiredFast = R.u64();
  NewS.Cycles = R.u64();
  NewS.PlaceholderWords = R.u64();
  NewS.Faults = R.u64();
  NewS.CorruptDropped = R.u64();
  NewS.BypassActivations = R.u64();
  NewS.BypassedSteps = R.u64();
  uint8_t Halt = R.u8();
  if (!R.ok() || Halt > 1)
    return false;

  std::vector<int64_t> NewDynSlots, NewDynGlobals, NewStatSlots,
      NewStatGlobals;
  std::vector<std::vector<int64_t>> NewDynArrays, NewDynLocalArrays,
      NewStatArrays, NewStatLocalArrays;
  if (!R.i64Vec(NewDynSlots) || NewDynSlots.size() != DynSlots.size())
    return false;
  if (!R.i64Vec(NewDynGlobals) || NewDynGlobals.size() != DynGlobals.size())
    return false;
  if (!readArrays(R, DynArrays, NewDynArrays) ||
      !readArrays(R, DynLocalArrays, NewDynLocalArrays))
    return false;
  if (!R.i64Vec(NewStatSlots) || NewStatSlots.size() != StatSlots.size())
    return false;
  if (!R.i64Vec(NewStatGlobals) ||
      NewStatGlobals.size() != StatGlobals.size())
    return false;
  if (!readArrays(R, StatArrays, NewStatArrays) ||
      !readArrays(R, StatLocalArrays, NewStatLocalArrays))
    return false;
  if (!R.ok())
    return false;

  S = NewS;
  HaltFlag = Halt != 0;
  DynSlots = std::move(NewDynSlots);
  DynGlobals = std::move(NewDynGlobals);
  DynArrays = std::move(NewDynArrays);
  DynLocalArrays = std::move(NewDynLocalArrays);
  StatSlots = std::move(NewStatSlots);
  StatGlobals = std::move(NewStatGlobals);
  StatArrays = std::move(NewStatArrays);
  StatLocalArrays = std::move(NewStatLocalArrays);
  // The INDEX chain points into the action cache of the *previous* run;
  // re-intern from scratch on the next step. The bypass heuristic is
  // transient and restarts observation from a fresh window.
  PendingEndNode = ActionNode::NoNode;
  BypassActive = false;
  BypassTrips = 0;
  WinSteps = WinNonFast = 0;
  WinClearBase = Cache.stats().Clears;
  // The move-assignments above relocated every dynamic-state vector; a
  // backend holding raw data pointers must re-snapshot them.
  Backend->onStateReplaced();
  return true;
}

void Simulation::serializeCache(snapshot::Writer &W) const {
  Cache.serialize(W);
}

bool Simulation::deserializeCache(snapshot::Reader &R) {
  uint32_t NumActions = static_cast<uint32_t>(Plan->ActionOfs.size() - 1);
  if (!Cache.deserialize(R, NumActions))
    return false;
  // deserialize() privatizes: the loaded image is owned, any base dropped.
  CacheBaseKeepalive.reset();
  PendingEndNode = ActionNode::NoNode;
  Backend->onCacheRebuilt();
  return true;
}

//===----------------------------------------------------------------------===//
// Shared cache store
//===----------------------------------------------------------------------===//

bool Simulation::attachCacheBase(const ActionCache::BaseArenas &B,
                                 std::shared_ptr<const void> Keepalive,
                                 std::string *Err) {
  if (!Opts.Memoize) {
    if (Err)
      *Err = "cannot attach a cache base with memoization disabled";
    return false;
  }
  uint32_t NumActions = static_cast<uint32_t>(Plan->ActionOfs.size() - 1);
  for (uint32_t I = 0; I != B.NumNodes; ++I) {
    if (B.Nodes[I].ActionId >= NumActions) {
      if (Err)
        *Err = "base arenas reference actions beyond this program";
      return false;
    }
  }
  if (!Cache.attachBase(B)) {
    if (Err)
      *Err = "cache is not empty; attach before the first step";
    return false;
  }
  CacheBaseKeepalive = std::move(Keepalive);
  PendingEndNode = ActionNode::NoNode;
  Backend->onCacheRebuilt();
  return true;
}

void Simulation::detachCacheBase() {
  if (!Cache.hasBase())
    return;
  Cache.detachBase();
  CacheBaseKeepalive.reset();
  PendingEndNode = ActionNode::NoNode;
  Backend->onCacheRebuilt();
}

void Simulation::evictCacheNow() {
  if (Cache.overlayBytes() == 0)
    return; // nothing recorded since the last reset: keep the warm base
  if (Tracer) {
    flushTraceSpan();
    Tracer->instant("cache", "evict", "bytes", Cache.bytes());
  }
  Cache.clear();
  PendingEndNode = ActionNode::NoNode;
  Backend->onCacheRebuilt();
}

//===----------------------------------------------------------------------===//
// Stepping
//===----------------------------------------------------------------------===//

StepEngine Simulation::step() {
  if (Fault)
    return StepEngine::Faulted; // frozen until clearFault()
  if (!Plan->shapeOk()) {
    raiseFault(FaultKind::PlanCorrupt,
               "execution plan streams are truncated or misframed");
    return StepEngine::Faulted;
  }
  if (Opts.StepLimit && S.Steps >= Opts.StepLimit) {
    raiseFault(FaultKind::StepLimit, "step watchdog limit reached");
    return StepEngine::Faulted;
  }
  // Cooperative deadline, sharing the step watchdog's check point: consult
  // the hook on installation and every DeadlineCheckPeriod steps so the
  // clock read stays off the per-step hot path. The fault fires before the
  // step executes — state is exactly what the previous step left.
  if (DeadlineHook &&
      (DeadlineArmCheck || S.Steps % DeadlineCheckPeriod == 0)) {
    DeadlineArmCheck = false;
    if (DeadlineHook()) {
      raiseFault(FaultKind::DeadlineExceeded, "cooperative deadline expired");
      return StepEngine::Faulted;
    }
  }
  ++S.Steps;
  if (!Opts.Memoize) {
    Backend->record(NoId);
    return finishStep(StepEngine::Slow);
  }

  // Adaptive bypass: while tripped, run the slow simulator unrecorded —
  // the cache is thrashing and recording would only churn it further.
  if (BypassActive) {
    if (S.Steps < BypassUntil) {
      Backend->record(NoId);
      ++S.BypassedSteps;
      return finishStep(StepEngine::Slow);
    }
    BypassActive = false; // cooldown over: observe a fresh window
    WinSteps = WinNonFast = 0;
    WinClearBase = Cache.stats().Clears;
  }

  ProfArmed = Profiler && Profiler->armStep();

  serializeKeyInto(KeyBuf);

  // INDEX chain: verify the previous step's recorded next key against the
  // actual init globals with one memcmp against the interned bytes; on a
  // match the hash-and-probe interning is skipped (paper Figure 9,
  // INDEX_ACTION).
  KeyId Key = NoId;
  if (PendingEndNode != ActionNode::NoNode) {
    // Const access: the chained End node may live in a read-only store base.
    KeyId Next = std::as_const(Cache).node(PendingEndNode).NextKey;
    if (Next != NoId && Next < Cache.keyCount() &&
        Cache.keyEquals(Next, KeyBuf.data(), KeyBuf.size()))
      Key = Next;
    PendingEndNode = ActionNode::NoNode;
  }
  if (Key == NoId)
    Key = Cache.internKey(KeyBuf.data(), KeyBuf.size());
  EntryId Entry = Cache.lookup(Key);

  StepEngine Engine = StepEngine::Faulted;
  if (Entry == NoId) {
    Entry = Cache.create(Key);
    Backend->record(Entry);
    Engine = StepEngine::Slow;
  } else {
    switch (Backend->replay(Entry, Key)) {
    case ReplayResult::Replayed:
      ++S.FastSteps;
      Engine = StepEngine::Fast;
      break;
    case ReplayResult::Recovered:
      Engine = StepEngine::FastThenSlow;
      break;
    case ReplayResult::CorruptCold:
      // Corruption detected before the replay touched dynamic state:
      // absorb it. Detach the poisoned entry and record this step cold,
      // exactly like a first-touch miss of the key.
      ++S.CorruptDropped;
      Cache.detachEntry(Entry);
      Entry = Cache.create(Key);
      Backend->record(Entry);
      Engine = StepEngine::Slow;
      break;
    case ReplayResult::Faulted:
      Engine = StepEngine::Faulted;
      break;
    }
  }
  if (Fault)
    return StepEngine::Faulted;
  if (Cache.overBudget()) {
    if (Tracer) {
      flushTraceSpan();
      Tracer->instant("cache", "evict", "bytes", Cache.bytes());
    }
    Cache.clear();
    PendingEndNode = ActionNode::NoNode;
    Backend->onCacheRebuilt();
  }
  if (Opts.AdaptiveBypass)
    noteWindowForBypass(Engine);
  return finishStep(Engine);
}

/// Post-step guard common to every engine path: the memory budget latch
/// becomes a fault at step granularity (the offending store was dropped,
/// so target memory is still consistent).
StepEngine Simulation::finishStep(StepEngine Engine) {
  if (!Fault && Mem.budgetExceeded())
    raiseFault(FaultKind::MemoryBudgetExceeded,
               "target memory resident-page budget exceeded");
  Engine = Fault ? StepEngine::Faulted : Engine;
  if (Tracer)
    noteStepForTrace(Engine);
  return Engine;
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

namespace {

const char *engineSpanName(StepEngine E) {
  switch (E) {
  case StepEngine::Slow:
    return "slow-record";
  case StepEngine::Fast:
    return "fast-replay";
  case StepEngine::FastThenSlow:
    return "miss-recover";
  case StepEngine::Faulted:
    return "faulted";
  }
  return "step";
}

} // namespace

void Simulation::setTracer(telemetry::EventTracer *T) {
  if (Tracer && !T)
    flushTraceSpan();
  Tracer = T;
  OpenKind = NoOpenSpan;
  OpenSteps = 0;
}

void Simulation::noteStepForTrace(StepEngine Engine) {
  uint8_t K = static_cast<uint8_t>(Engine);
  if (K == OpenKind) { // steady state: no clock read, no event
    ++OpenSteps;
    return;
  }
  uint64_t Now = Tracer->nowUs();
  if (OpenKind != NoOpenSpan)
    Tracer->span("engine", engineSpanName(static_cast<StepEngine>(OpenKind)),
                 OpenStartUs, Now, OpenSteps);
  OpenKind = K;
  OpenStartUs = Now;
  OpenSteps = 1;
}

void Simulation::flushTraceSpan() {
  if (!Tracer || OpenKind == NoOpenSpan)
    return;
  Tracer->span("engine", engineSpanName(static_cast<StepEngine>(OpenKind)),
               OpenStartUs, Tracer->nowUs(), OpenSteps);
  OpenKind = NoOpenSpan;
  OpenSteps = 0;
}

void Simulation::noteWindowForBypass(StepEngine Engine) {
  ++WinSteps;
  if (Engine != StepEngine::Fast)
    ++WinNonFast;
  if (WinSteps < bypass::WindowSteps)
    return;
  uint64_t ClearsNow = Cache.stats().Clears;
  // Trip only on the thrashing signature: the window was dominated by
  // non-replayed steps *and* the cache was cleared inside it. The second
  // condition keeps cold warm-up (100% slow, no clears) from tripping.
  if (ClearsNow > WinClearBase &&
      WinNonFast * 100 >= WinSteps * bypass::TripPct) {
    BypassActive = true;
    ++S.BypassActivations;
    BypassUntil =
        S.Steps + (bypass::CooldownSteps << std::min<uint32_t>(BypassTrips, 6));
    if (Tracer) {
      flushTraceSpan();
      Tracer->instant("bypass", "trip", "cooldown_steps",
                      BypassUntil - S.Steps);
    }
    if (BypassTrips < 31)
      ++BypassTrips;
    PendingEndNode = ActionNode::NoNode;
  } else if (WinNonFast * 100 <= WinSteps * bypass::HealthyPct) {
    BypassTrips = 0; // hysteresis: a healthy window forgives past trips
  }
  WinSteps = WinNonFast = 0;
  WinClearBase = ClearsNow;
}

RunResult Simulation::run(uint64_t MaxSteps) {
  RunResult R;
  while (!HaltFlag && !Fault && R.Steps < MaxSteps) {
    if (step() == StepEngine::Faulted)
      break;
    ++R.Steps;
  }
  R.Status = Fault  ? RunStatus::Faulted
             : HaltFlag ? RunStatus::Halted
                        : RunStatus::Limit;
  R.Fault = Fault;
  return R;
}
