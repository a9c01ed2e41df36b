//===- Server.cpp - Multi-session simulation server ------------------------===//
//
// Structure: an accept loop hands each connection to a reader thread that
// only frames newline-delimited requests (and enforces the line-size and
// per-connection request budgets); framed lines go into one bounded work
// queue drained by the fixed worker pool, which parses, dispatches and
// responds. Sessions serialize on a per-session mutex; everything read-only
// (program, image, plan) lives in pooled SharedPrograms.
//
// All loops are poll-with-timeout against one atomic stop flag, so
// shutdown never depends on waking a blocked syscall.
//
//===----------------------------------------------------------------------===//

#include "src/server/Server.h"

#include "src/inject/FaultInjector.h"
#include "src/server/Protocol.h"
#include "src/sims/SimHarness.h"
#include "src/store/CacheStore.h"
#include "src/support/StringUtils.h"
#include "src/telemetry/Metrics.h"
#include "src/workload/Workloads.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace facile;
using namespace facile::server;
using facile::sims::FacileSim;
using facile::sims::SimKind;

namespace {

/// Sends all of \p Data on \p Fd (MSG_NOSIGNAL: a closed peer is a lost
/// response, not a SIGPIPE). Returns false on any send error.
bool sendAll(int Fd, const char *Data, size_t N) {
  while (N != 0) {
    ssize_t W = ::send(Fd, Data, N, MSG_NOSIGNAL);
    if (W <= 0)
      return false;
    Data += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

bool parseSimKind(const std::string &Name, SimKind &Out) {
  if (Name == "functional")
    Out = SimKind::Functional;
  else if (Name == "inorder")
    Out = SimKind::InOrder;
  else if (Name == "ooo")
    Out = SimKind::OutOfOrder;
  else
    return false;
  return true;
}

const char *simKindName(SimKind K) {
  switch (K) {
  case SimKind::Functional:
    return "functional";
  case SimKind::InOrder:
    return "inorder";
  case SimKind::OutOfOrder:
    return "ooo";
  }
  return "?";
}

void writeFault(json::Writer &W, const rt::SimFault &F) {
  W.objectField("fault")
      .field("kind", std::string_view(rt::faultKindName(F.Kind)))
      .field("step", F.Step)
      .field("pc", F.Pc)
      .field("detail", std::string_view(F.Detail))
      .endObject();
}

/// Monotonic wall time, for deadlines, idle timers and TTLs.
uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Canonical dedup key of a request id: type-tagged so the int 7 and the
/// string "7" stay distinct. Empty = no id, never deduped.
std::string requestIdKey(const json::Value *Id) {
  if (!Id)
    return std::string();
  if (Id->isInt())
    return strFormat("i%lld", static_cast<long long>(Id->intOr(0)));
  if (Id->isStr())
    return "s" + Id->str();
  return std::string();
}

/// The admission-control rejection: an error envelope whose error object
/// carries "retry_after_ms". The request was never executed, so the client
/// may retry any verb after the hinted wait.
std::string overloadedResponse(const json::Value *Id, uint64_t RetryAfterMs) {
  json::Writer W;
  W.beginObject();
  writeRequestId(W, Id);
  W.field("ok", false);
  W.objectField("error")
      .field("code", std::string_view(ErrCode::Overloaded))
      .field("message", "worker queue is full")
      .field("retry_after_ms", RetryAfterMs)
      .endObject();
  W.endObject();
  return W.take();
}

/// Parses \p Line just far enough to echo its request id on a rejection
/// path (framing otherwise never parses JSON). \p Req owns the storage.
const json::Value *lineRequestId(const std::string &Line, json::Value &Req) {
  std::string PErr;
  if (json::parse(Line, Req, PErr, MaxRequestDepth) && Req.isObject())
    return Req.get("id");
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Impl data structures
//===----------------------------------------------------------------------===//

namespace {

/// One accepted connection. The fd is owned here and closed by the
/// destructor — never earlier — so a worker finishing a queued request
/// after the reader is gone writes into a dead-but-valid socket instead of
/// a recycled descriptor.
struct Conn {
  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() { ::close(Fd); }
  const int Fd;
  std::mutex WriteMu;
  uint64_t Requests = 0; ///< reader-thread only
  /// Idle-timeout bookkeeping: last byte received or response written, and
  /// how many of this connection's requests are queued or executing (an
  /// idle timer never fires under an in-flight request).
  std::atomic<uint64_t> LastActiveMs{0};
  std::atomic<int64_t> InFlight{0};
};

/// One live session: a private simulation plus a reference keeping its
/// SharedProgram pool entry alive.
struct SharedEntry;
struct Session {
  uint64_t Id = 0;
  SimKind Kind = SimKind::Functional;
  std::string WorkloadName;
  std::shared_ptr<const SharedEntry> Shared;
  std::unique_ptr<FacileSim> Sim;
  std::unique_ptr<inject::FaultInjector> Injector; ///< after Sim: refs it
  std::mutex Mu;       ///< per-session serialization: one verb at a time
  uint64_t Verbs = 0;  ///< verbs serviced (under Mu)

  /// Creation parameters, kept so a reaped session can be rebuilt.
  workload::WorkloadSpec Spec;
  uint64_t OuterIters = 2;
  rt::Simulation::Options SimOpts;
  std::string PoolKey;
  std::string ResumeToken;
  uint64_t StepDelayUs = 0; ///< test knob: sleep per executed chunk

  std::atomic<uint64_t> LastVerbMs{0}; ///< TTL / LRU recency
  bool Reaped = false; ///< under Mu: detached from the table by the reaper

  /// Request-id dedup of the last completed mutating verb: an identical
  /// retry replays the stored response instead of re-executing.
  std::string LastCompletedId; ///< under Mu; requestIdKey form
  std::string LastResponse;    ///< under Mu
};

/// One pooled (program, image, plan) bundle.
struct SharedEntry {
  SimKind Kind = SimKind::Functional;
  std::string WorkloadName;
  std::unique_ptr<rt::SharedProgram> Prog;
};

struct Work {
  std::shared_ptr<Conn> C;
  std::string Line;
};

/// A reaped session's warm state, restorable by create + resume_token.
struct Spilled {
  SimKind Kind = SimKind::Functional;
  workload::WorkloadSpec Spec;
  uint64_t OuterIters = 2;
  rt::Simulation::Options SimOpts;
  std::string PoolKey;
  uint64_t StepDelayUs = 0;
  std::vector<uint8_t> Checkpoint; ///< FACSNAP2 checkpoint container
  std::vector<uint8_t> CacheBytes; ///< FACSNAP2 cache container (memoizing)
  uint64_t Seq = 0;                ///< spill order, oldest dropped first

  size_t bytes() const { return Checkpoint.size() + CacheBytes.size(); }
};

} // namespace

struct FacileServer::Impl {
  explicit Impl(ServerOptions O) : Opts(std::move(O)) {
    if (!Opts.CacheStorePath.empty())
      StoreDir = std::make_unique<store::CacheStoreDir>(Opts.CacheStorePath);
  }

  const ServerOptions Opts;

  /// Shared action-cache store (null unless CacheStorePath is set). The
  /// CacheStoreDir dedupes mappings process-wide, so 64 sessions over one
  /// compatible cache share a single read-only mapping.
  std::unique_ptr<store::CacheStoreDir> StoreDir;

  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Started{false};
  std::atomic<bool> Stop{false};
  bool AddressInUse = false; ///< set by a failed unix-socket start()

  // Drain state machine (see reaperLoop): requestDrain() only sets the
  // flag — async-signal-safe — and the housekeeping thread advances
  // Requested -> Draining -> promoted -> Stop.
  std::atomic<bool> DrainRequested{false};
  std::atomic<bool> Draining{false};
  uint64_t DrainStartMs = 0; ///< reaper thread only
  std::atomic<uint64_t> DrainDurationMs{0};
  std::atomic<uint64_t> DrainPromoted{0};
  std::atomic<uint64_t> DrainSkipped{0};

  std::thread AcceptThread;
  std::thread ReaperThread;
  std::vector<std::thread> Workers;
  std::mutex ConnThreadsMu;
  std::vector<std::thread> ConnThreads;
  std::mutex JoinMu;
  bool Joined = false;

  std::mutex StopMu;
  std::condition_variable StopCv;

  // Work queue (readers produce, the fixed pool consumes). Bounded by
  // Opts.MaxQueueDepth at admission; QueueDepthHist records the depth seen
  // by every accepted request (guarded by QueueMu like the deque).
  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<Work> Queue;
  telemetry::Histogram QueueDepthHist;
  std::atomic<uint64_t> InFlight{0}; ///< requests being executed right now

  // Spilled (reaped) sessions, by resume token.
  std::mutex SpillMu;
  std::map<std::string, Spilled> Spills;
  size_t SpillBytes = 0; ///< under SpillMu
  uint64_t SpillSeq = 0; ///< under SpillMu

  // Request service-time distribution (worker-side, microseconds).
  std::mutex HistMu;
  telemetry::Histogram ServiceUsHist;

  // Session table and SharedProgram pool.
  mutable std::mutex SessionsMu;
  std::map<uint64_t, std::shared_ptr<Session>> Sessions;
  uint64_t LastSessionId = 0;
  uint64_t PeakSessions = 0;
  std::mutex PoolMu;
  std::map<std::string, std::shared_ptr<SharedEntry>> Pool;

  // Daemon counters.
  std::atomic<uint64_t> ConnectionsTotal{0};
  std::atomic<uint64_t> ActiveConnections{0};
  std::atomic<uint64_t> RequestsTotal{0};
  std::atomic<uint64_t> ResponsesTotal{0};
  std::atomic<uint64_t> ProtocolErrors{0};
  std::atomic<uint64_t> SessionsCreated{0};
  std::atomic<uint64_t> SessionsDestroyed{0};

  // Resilience counters.
  std::atomic<uint64_t> AdmissionRejects{0};
  std::atomic<uint64_t> DeadlineFaults{0};
  std::atomic<uint64_t> DedupedRequests{0};
  std::atomic<uint64_t> IdleClosedConns{0};
  std::atomic<uint64_t> ReapedSessions{0};
  std::atomic<uint64_t> ResumedSessions{0};
  std::atomic<uint64_t> SpillsDropped{0};
  std::atomic<uint64_t> OverlaysEvicted{0};
  std::atomic<uint64_t> StoreGcUnlinked{0};

  bool start(std::string *Err);
  void acceptLoop();
  void readerLoop(std::shared_ptr<Conn> C);
  void workerLoop();
  void reaperLoop();
  void reapIdleSessions(uint64_t Now);
  void boundOverlayBytes();
  void promoteDirtyOverlays();
  void dropSpillOverBudget(); ///< call with SpillMu held
  void requestShutdown();
  void joinAll();

  void respond(Conn &C, std::string Line);
  void processLine(const std::shared_ptr<Conn> &C, const std::string &Line);

  std::shared_ptr<Session> findSession(uint64_t Id);

  // Every verb handler builds and returns one complete response line (no
  // trailing newline) instead of writing to the connection itself; that is
  // what lets the batch verb collect sub-replies into one envelope.
  std::string errorLine(const json::Value *Id, const char *Code,
                        std::string_view Msg);
  std::string executeSessionVerb(const json::Value &Req,
                                 const std::string &Verb,
                                 const json::Value *Id);
  std::string verbBatch(const json::Value &Req, const json::Value *Id);
  std::string verbCreate(const json::Value &Req, const json::Value *Id);
  std::string resumeSession(const std::string &Token, const json::Value *Id);
  std::string verbStep(const json::Value &Req, const json::Value *Id,
                       Session &S);
  std::string verbRun(const json::Value &Req, const json::Value *Id,
                      Session &S);
  std::string verbInspect(const json::Value &Req, const json::Value *Id,
                          Session &S);
  std::string verbClearFault(const json::Value &Req, const json::Value *Id,
                             Session &S);
  std::string verbSnapshotSave(const json::Value &Req, const json::Value *Id,
                               Session &S);
  std::string verbSnapshotLoad(const json::Value &Req, const json::Value *Id,
                               Session &S);
  std::string verbDestroy(const json::Value *Id, uint64_t SessionId);

  std::string statsJson();
};

//===----------------------------------------------------------------------===//
// Lifecycle: sockets and threads
//===----------------------------------------------------------------------===//

bool FacileServer::Impl::start(std::string *Err) {
  auto fail = [&](const char *What) {
    if (Err)
      *Err = std::string(What) + ": " + std::strerror(errno);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };

  if (!Opts.UnixPath.empty()) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Opts.UnixPath.size() >= sizeof(Addr.sun_path)) {
      if (Err)
        *Err = "unix socket path too long";
      return false;
    }
    std::strncpy(Addr.sun_path, Opts.UnixPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return fail("socket");
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      if (errno != EADDRINUSE)
        return fail("bind");
      // The path exists. Probe-connect to tell a live daemon apart from a
      // socket file left behind by a crashed one: only a listener accepts
      // the connection (EAGAIN on a full backlog still means listener).
      int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      int ProbeRc = -1;
      if (Probe >= 0) {
        ProbeRc = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                            sizeof(Addr));
        if (ProbeRc < 0 && errno == EAGAIN)
          ProbeRc = 0;
        ::close(Probe);
      }
      if (ProbeRc == 0) {
        AddressInUse = true;
        if (Err)
          *Err = "socket path '" + Opts.UnixPath +
                 "' is in use by a live daemon";
        ::close(ListenFd);
        ListenFd = -1;
        return false;
      }
      // Nobody listening: unlink the stale socket and rebind once.
      ::unlink(Opts.UnixPath.c_str());
      if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                 sizeof(Addr)) < 0)
        return fail("bind");
    }
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return fail("socket");
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Opts.TcpPort);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0)
      return fail("bind");
    sockaddr_in Bound{};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound), &Len) <
        0)
      return fail("getsockname");
    BoundPort = ntohs(Bound.sin_port);
  }
  if (::listen(ListenFd, 128) < 0)
    return fail("listen");

  Started = true;
  AcceptThread = std::thread([this] { acceptLoop(); });
  ReaperThread = std::thread([this] { reaperLoop(); });
  unsigned W = Opts.Workers == 0 ? 1 : Opts.Workers;
  for (unsigned I = 0; I != W; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  return true;
}

void FacileServer::Impl::acceptLoop() {
  while (!Stop.load(std::memory_order_acquire)) {
    pollfd P{ListenFd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    if (R <= 0 || !(P.revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    if (Draining.load(std::memory_order_acquire)) {
      ::close(Fd); // draining: existing work finishes, new peers bounce
      continue;
    }
    ++ConnectionsTotal;
    ++ActiveConnections;
    auto C = std::make_shared<Conn>(Fd);
    std::lock_guard<std::mutex> Lock(ConnThreadsMu);
    ConnThreads.emplace_back([this, C] { readerLoop(C); });
  }
}

void FacileServer::Impl::readerLoop(std::shared_ptr<Conn> C) {
  std::string Buf;
  char Tmp[1 << 16];
  bool Close = false;
  C->LastActiveMs.store(nowMs(), std::memory_order_relaxed);
  while (!Close && !Stop.load(std::memory_order_acquire)) {
    pollfd P{C->Fd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    if (R <= 0) {
      // Slowloris guard: a connection with no received bytes and nothing
      // queued or executing for the idle window is told why and closed. A
      // long-running request keeps InFlight high, so it never trips this.
      if (Opts.ConnIdleTimeoutMs != 0 &&
          C->InFlight.load(std::memory_order_acquire) == 0 &&
          nowMs() - C->LastActiveMs.load(std::memory_order_relaxed) >
              Opts.ConnIdleTimeoutMs) {
        ++IdleClosedConns;
        respond(*C, errorResponse(nullptr, ErrCode::IdleTimeout,
                                  "connection idle timeout"));
        break;
      }
      continue;
    }
    if (!(P.revents & (POLLIN | POLLHUP)))
      continue;
    ssize_t N = ::recv(C->Fd, Tmp, sizeof(Tmp), 0);
    if (N <= 0)
      break; // EOF (a truncated in-flight request is silently discarded)
    C->LastActiveMs.store(nowMs(), std::memory_order_relaxed);
    Buf.append(Tmp, static_cast<size_t>(N));
    size_t Pos;
    while (!Close && (Pos = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, Pos);
      Buf.erase(0, Pos + 1);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty())
        continue;
      if (Line.size() > Opts.MaxLineBytes) {
        ++ProtocolErrors;
        respond(*C, errorResponse(nullptr, ErrCode::Oversized,
                                  "request exceeds line-size limit"));
        Close = true;
        break;
      }
      if (++C->Requests > Opts.MaxRequestsPerConn) {
        ++ProtocolErrors;
        respond(*C, errorResponse(nullptr, ErrCode::RequestLimit,
                                  "per-connection request limit reached"));
        Close = true;
        break;
      }
      ++RequestsTotal;
      if (Draining.load(std::memory_order_acquire)) {
        ++ProtocolErrors;
        json::Value IdOwner;
        respond(*C, errorResponse(lineRequestId(Line, IdOwner),
                                  ErrCode::ShuttingDown,
                                  "server is draining"));
        continue;
      }
      // Admission control: a full queue rejects instead of buffering
      // unboundedly. InFlight rises before the push so the idle timer
      // can never fire under a queued request.
      C->InFlight.fetch_add(1, std::memory_order_acq_rel);
      bool Enqueued = false;
      {
        std::lock_guard<std::mutex> Lock(QueueMu);
        if (Queue.size() < Opts.MaxQueueDepth) {
          Queue.push_back(Work{C, std::move(Line)});
          QueueDepthHist.record(Queue.size());
          Enqueued = true;
        }
      }
      if (Enqueued) {
        QueueCv.notify_one();
        continue;
      }
      C->InFlight.fetch_sub(1, std::memory_order_acq_rel);
      ++AdmissionRejects;
      ++ProtocolErrors;
      // The hint grows with how much backlog each worker would have to
      // clear first, capped at 2 s.
      uint64_t Hint = std::min<uint64_t>(
          2000, static_cast<uint64_t>(Opts.RetryAfterMs) *
                    std::max<uint64_t>(1, Opts.MaxQueueDepth /
                                             std::max(1u, Opts.Workers) /
                                             8));
      json::Value IdOwner;
      respond(*C, overloadedResponse(lineRequestId(Line, IdOwner), Hint));
    }
    // An unterminated line larger than the limit is rejected without
    // waiting for its newline — the peer may never send one.
    if (!Close && Buf.size() > Opts.MaxLineBytes) {
      ++ProtocolErrors;
      respond(*C, errorResponse(nullptr, ErrCode::Oversized,
                                "request exceeds line-size limit"));
      Close = true;
    }
  }
  // Stop reading; queued requests may still write responses through the
  // still-open fd (closed by the last Conn reference).
  ::shutdown(C->Fd, SHUT_RD);
  --ActiveConnections;
}

void FacileServer::Impl::workerLoop() {
  for (;;) {
    Work W;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [this] {
        return !Queue.empty() || Stop.load(std::memory_order_acquire);
      });
      if (Queue.empty())
        return; // Stop set and nothing left to drain
      W = std::move(Queue.front());
      Queue.pop_front();
      // Under QueueMu, so "queue empty and nothing in flight" is an
      // atomic observation for the drain state machine.
      InFlight.fetch_add(1, std::memory_order_acq_rel);
    }
    uint64_t T0 = nowUs();
    processLine(W.C, W.Line);
    uint64_t Elapsed = nowUs() - T0;
    {
      std::lock_guard<std::mutex> Lock(HistMu);
      ServiceUsHist.record(Elapsed);
    }
    W.C->InFlight.fetch_sub(1, std::memory_order_acq_rel);
    InFlight.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void FacileServer::Impl::requestShutdown() {
  bool Expected = false;
  if (!Stop.compare_exchange_strong(Expected, true))
    return;
  {
    std::lock_guard<std::mutex> Lock(StopMu);
  }
  StopCv.notify_all();
  QueueCv.notify_all();
}

void FacileServer::Impl::joinAll() {
  std::lock_guard<std::mutex> Lock(JoinMu);
  if (Joined)
    return;
  Joined = true;
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (ReaperThread.joinable())
    ReaperThread.join();
  for (std::thread &T : Workers)
    if (T.joinable())
      T.join();
  // The acceptor is gone, so ConnThreads is stable now.
  std::vector<std::thread> Readers;
  {
    std::lock_guard<std::mutex> CLock(ConnThreadsMu);
    Readers.swap(ConnThreads);
  }
  for (std::thread &T : Readers)
    if (T.joinable())
      T.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (!Opts.UnixPath.empty())
    ::unlink(Opts.UnixPath.c_str());
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

void FacileServer::Impl::respond(Conn &C, std::string Line) {
  Line.push_back('\n');
  std::lock_guard<std::mutex> Lock(C.WriteMu);
  sendAll(C.Fd, Line.data(), Line.size());
  ++ResponsesTotal;
}

std::string FacileServer::Impl::errorLine(const json::Value *Id,
                                          const char *Code,
                                          std::string_view Msg) {
  ++ProtocolErrors;
  return errorResponse(Id, Code, Msg);
}

std::shared_ptr<Session> FacileServer::Impl::findSession(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(SessionsMu);
  auto It = Sessions.find(Id);
  return It == Sessions.end() ? nullptr : It->second;
}

void FacileServer::Impl::processLine(const std::shared_ptr<Conn> &C,
                                     const std::string &Line) {
  json::Value Req;
  std::string PErr;
  if (!json::parse(Line, Req, PErr, MaxRequestDepth)) {
    respond(*C, errorLine(nullptr, ErrCode::ParseError, PErr));
    return;
  }
  if (!Req.isObject()) {
    respond(*C, errorLine(nullptr, ErrCode::BadRequest,
                          "request must be a JSON object"));
    return;
  }
  const json::Value *Id = Req.get("id");
  const json::Value *VerbV = Req.get("verb");
  if (!VerbV || !VerbV->isStr()) {
    respond(*C, errorLine(Id, ErrCode::BadRequest, "missing 'verb' string"));
    return;
  }
  const std::string &Verb = VerbV->str();

  if (Verb == "ping") {
    json::Writer W;
    beginOkResponse(W, Id);
    W.field("server", "facilesimd");
    W.endObject();
    respond(*C, W.take());
    return;
  }
  if (Verb == "create") {
    respond(*C, verbCreate(Req, Id));
    return;
  }
  if (Verb == "stats") {
    json::Writer W;
    beginOkResponse(W, Id);
    W.rawField("stats", statsJson());
    W.endObject();
    respond(*C, W.take());
    return;
  }
  if (Verb == "shutdown") {
    json::Writer W;
    beginOkResponse(W, Id);
    W.field("shutting_down", true);
    W.endObject();
    respond(*C, W.take());
    requestShutdown();
    return;
  }
  if (Verb == "batch") {
    respond(*C, verbBatch(Req, Id));
    return;
  }
  respond(*C, executeSessionVerb(Req, Verb, Id));
}

std::string FacileServer::Impl::executeSessionVerb(const json::Value &Req,
                                                   const std::string &Verb,
                                                   const json::Value *Id) {
  bool Destroy = Verb == "destroy";
  bool Known = Destroy || Verb == "step" || Verb == "run" ||
               Verb == "inspect" || Verb == "clear-fault" ||
               Verb == "snapshot-save" || Verb == "snapshot-load";
  if (!Known)
    return errorLine(Id, ErrCode::UnknownVerb,
                     strFormat("unknown verb '%s'", Verb.c_str()));
  const json::Value *SV = Req.get("session");
  if (!SV || !SV->isInt() || SV->intOr(0) < 0)
    return errorLine(Id, ErrCode::BadRequest,
                     "missing or non-integer 'session'");
  std::shared_ptr<Session> S =
      findSession(static_cast<uint64_t>(SV->intOr(0)));
  if (!S) {
    // Unknown and destroyed ids are indistinguishable on purpose: ids are
    // never reused, so a stale handle can only ever fail.
    return errorLine(Id, ErrCode::UnknownSession,
                     strFormat("no session %lld",
                               static_cast<long long>(SV->intOr(0))));
  }
  if (Destroy)
    return verbDestroy(Id, S->Id);
  // Per-session serialization: no two verbs on one session concurrently.
  std::lock_guard<std::mutex> Lock(S->Mu);
  if (S->Reaped) {
    // The reaper spilled this session between our table lookup and the
    // lock; its resume token is the way back in.
    return errorLine(Id, ErrCode::UnknownSession,
                     strFormat("no session %lld (reaped)",
                               static_cast<long long>(SV->intOr(0))));
  }
  S->LastVerbMs.store(nowMs(), std::memory_order_relaxed);
  ++S->Verbs;
  // Request-id dedup: retrying the last completed mutating verb replays
  // its stored response instead of executing twice — the client retry
  // policy's at-most-once guarantee for step/run rides on this.
  bool Mutating = Verb == "step" || Verb == "run" || Verb == "clear-fault" ||
                  Verb == "snapshot-load";
  std::string IdKey = requestIdKey(Id);
  if (Mutating && !IdKey.empty() && IdKey == S->LastCompletedId) {
    ++DedupedRequests;
    return S->LastResponse;
  }
  std::string Reply;
  if (Verb == "step")
    Reply = verbStep(Req, Id, *S);
  else if (Verb == "run")
    Reply = verbRun(Req, Id, *S);
  else if (Verb == "inspect")
    Reply = verbInspect(Req, Id, *S);
  else if (Verb == "clear-fault")
    Reply = verbClearFault(Req, Id, *S);
  else if (Verb == "snapshot-save")
    Reply = verbSnapshotSave(Req, Id, *S);
  else
    Reply = verbSnapshotLoad(Req, Id, *S);
  // The substring probe is sound: '"' never appears unescaped inside a
  // JSON string, so "ok":true can only be the envelope's own member.
  if (Mutating && !IdKey.empty() &&
      Reply.find("\"ok\":true") != std::string::npos) {
    S->LastCompletedId = IdKey;
    S->LastResponse = Reply;
  }
  return Reply;
}

std::string FacileServer::Impl::verbBatch(const json::Value &Req,
                                          const json::Value *Id) {
  const json::Value *Reqs = Req.get("requests");
  if (!Reqs || !Reqs->isArray())
    return errorLine(Id, ErrCode::BadRequest, "'requests' must be an array");
  if (Reqs->array().size() > MaxBatchRequests)
    return errorLine(
        Id, ErrCode::Oversized,
        strFormat("batch exceeds %llu sub-requests",
                  static_cast<unsigned long long>(MaxBatchRequests)));
  json::Writer W;
  beginOkResponse(W, Id);
  W.field("count", static_cast<uint64_t>(Reqs->array().size()));
  W.arrayField("replies");
  // Aggregate reply budget: 256 memory inspects at MaxInspectWords each
  // would otherwise balloon the one response line far past what framing
  // budgets assume. Elements past the budget are skipped *before*
  // executing (never execute-then-drop a mutation's reply); the element
  // whose reply crosses the line is kept, so the overrun is bounded by
  // one element's reply.
  size_t ReplyBytes = 0;
  bool Truncated = false;
  for (const json::Value &Sub : Reqs->array()) {
    // Sub-requests fail independently: a bad element yields its own error
    // object in the replies array and the rest of the batch proceeds.
    std::string Reply;
    const json::Value *SubId = Sub.get("id");
    const json::Value *SubVerb = Sub.get("verb");
    if (Truncated)
      Reply = errorLine(SubId, ErrCode::Oversized,
                        "batch reply budget exhausted");
    else if (!Sub.isObject())
      Reply = errorLine(nullptr, ErrCode::BadRequest,
                        "batch element must be a request object");
    else if (!SubVerb || !SubVerb->isStr())
      Reply = errorLine(SubId, ErrCode::BadRequest, "missing 'verb' string");
    else if (SubVerb->str() == "batch")
      Reply = errorLine(SubId, ErrCode::BadRequest, "'batch' cannot nest");
    else if (SubVerb->str() == "ping" || SubVerb->str() == "create" ||
             SubVerb->str() == "stats" || SubVerb->str() == "shutdown")
      Reply = errorLine(SubId, ErrCode::BadRequest,
                        strFormat("verb '%s' is not allowed in a batch",
                                  SubVerb->str().c_str()));
    else
      Reply = executeSessionVerb(Sub, SubVerb->str(), SubId);
    ReplyBytes += Reply.size();
    if (!Truncated && ReplyBytes > Opts.MaxBatchReplyBytes)
      Truncated = true;
    W.rawValue(Reply);
  }
  W.endArray();
  W.field("truncated", Truncated);
  W.endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// Verbs
//===----------------------------------------------------------------------===//

std::string FacileServer::Impl::verbCreate(const json::Value &Req,
                                           const json::Value *Id) {
  if (Stop.load(std::memory_order_acquire))
    return errorLine(Id, ErrCode::ShuttingDown, "server is shutting down");
  if (const json::Value *V = Req.get("resume_token")) {
    if (!V->isStr())
      return errorLine(Id, ErrCode::BadRequest,
                       "'resume_token' must be a string");
    return resumeSession(V->str(), Id);
  }
  {
    // Cheap early reject; re-checked at insert, but a full table should
    // not cost a workload build first.
    std::lock_guard<std::mutex> Lock(SessionsMu);
    if (Sessions.size() >= Opts.MaxSessions)
      return errorLine(Id, ErrCode::SessionLimit,
                       strFormat("session limit (%u) reached",
                                 Opts.MaxSessions));
  }
  SimKind Kind;
  std::string SimName = "functional";
  if (const json::Value *V = Req.get("sim"))
    SimName = V->strOr(SimName);
  if (!parseSimKind(SimName, Kind))
    return errorLine(Id, ErrCode::BadRequest,
                     "'sim' must be functional|inorder|ooo");
  std::string WorkloadName = "compress";
  if (const json::Value *V = Req.get("workload"))
    WorkloadName = V->strOr(WorkloadName);
  const workload::WorkloadSpec *Found = workload::findSpec(WorkloadName);
  if (!Found)
    return errorLine(Id, ErrCode::BadRequest,
                     strFormat("unknown workload '%s'", WorkloadName.c_str()));
  workload::WorkloadSpec Spec = *Found;
  uint64_t OuterIters = 2;
  if (const json::Value *V = Req.get("outer_iters")) {
    if (!V->isInt() || V->intOr(0) <= 0)
      return errorLine(Id, ErrCode::BadRequest,
                       "'outer_iters' must be a positive integer");
    OuterIters = static_cast<uint64_t>(V->intOr(2));
  }
  // Optional footprint shrink knobs, mainly for tests and smoke runs.
  if (const json::Value *V = Req.get("data_kwords"))
    Spec.DataKWords = static_cast<unsigned>(V->intOr(Spec.DataKWords));
  if (const json::Value *V = Req.get("num_kernels"))
    Spec.NumKernels = static_cast<unsigned>(V->intOr(Spec.NumKernels));

  rt::Simulation::Options SimOpts = Opts.DefaultSimOptions;
  uint64_t StepDelayUs = 0;
  if (const json::Value *O = Req.get("options")) {
    if (!O->isObject())
      return errorLine(Id, ErrCode::BadRequest, "'options' must be an object");
    // Test knob: an artificial per-chunk sleep, so deadline and overload
    // behavior can be exercised deterministically without huge workloads.
    if (const json::Value *V = O->get("step_delay_us"))
      StepDelayUs = std::min<uint64_t>(
          static_cast<uint64_t>(std::max<int64_t>(0, V->intOr(0))), 1u << 20);
    if (const json::Value *V = O->get("memoize"))
      SimOpts.Memoize = V->boolOr(SimOpts.Memoize);
    // Sizes and limits are unsigned underneath: a negative value would
    // wrap into an effectively unlimited budget, so it is rejected.
    for (const char *Name : {"cache_budget_mb", "max_steps", "mem_budget_mb"})
      if (const json::Value *V = O->get(Name); V && V->intOr(0) < 0)
        return errorLine(Id, ErrCode::BadRequest,
                         strFormat("'options.%s' must not be negative", Name));
    if (const json::Value *V = O->get("cache_budget_mb"))
      SimOpts.CacheBudgetBytes =
          static_cast<size_t>(V->intOr(256)) << 20;
    if (const json::Value *V = O->get("max_steps"))
      SimOpts.StepLimit = static_cast<uint64_t>(V->intOr(0));
    if (const json::Value *V = O->get("mem_budget_mb"))
      SimOpts.MemPageBudget =
          (static_cast<size_t>(V->intOr(0)) << 20) >> TargetMemory::PageBits;
    if (const json::Value *V = O->get("adaptive_bypass"))
      SimOpts.AdaptiveBypass = V->boolOr(SimOpts.AdaptiveBypass);
  }
  // Execution backend for memoized replay (default auto). Unknown values
  // get their own stable code: a client probing for JIT support can tell
  // "this daemon predates backends" (bad-request on the unknown field
  // never happens — unknown fields are ignored) from "bad spelling".
  if (const json::Value *V = Req.get("backend")) {
    rt::BackendKind Kind2;
    if (!V->isStr() || !rt::parseBackendKind(V->str(), Kind2))
      return errorLine(Id, ErrCode::BadBackend,
                       "'backend' must be auto|interpret|jit");
    SimOpts.Backend = Kind2;
  }

  inject::InjectSpec InjSpec;
  bool Injecting = false;
  if (const json::Value *V = Req.get("fault_inject")) {
    std::string SpecErr;
    if (!V->isStr() ||
        !inject::InjectSpec::parse(V->str(), InjSpec, SpecErr))
      return errorLine(Id, ErrCode::BadRequest,
                       "bad 'fault_inject' spec: " + SpecErr);
    Injecting = true;
  }

  // Pool lookup: one SharedProgram per (sim, workload-shape, length).
  std::string Key = strFormat("%s|%s|%llu|%u|%u", SimName.c_str(),
                              Spec.Name.c_str(),
                              static_cast<unsigned long long>(OuterIters),
                              Spec.DataKWords, Spec.NumKernels);
  std::shared_ptr<SharedEntry> Entry;
  bool PoolHit = false;
  {
    std::lock_guard<std::mutex> Lock(PoolMu);
    std::shared_ptr<SharedEntry> &Slot = Pool[Key];
    if (!Slot) {
      Slot = std::make_shared<SharedEntry>();
      Slot->Kind = Kind;
      Slot->WorkloadName = Spec.Name;
      Slot->Prog = std::make_unique<rt::SharedProgram>(
          sims::simulatorProgram(Kind), workload::generate(Spec, OuterIters));
    } else {
      PoolHit = true;
    }
    Entry = Slot;
  }

  auto S = std::make_shared<Session>();
  S->Kind = Kind;
  S->WorkloadName = Spec.Name;
  S->Shared = Entry;
  S->Sim = std::make_unique<FacileSim>(Kind, *Entry->Prog, SimOpts);
  S->Spec = Spec;
  S->OuterIters = OuterIters;
  S->SimOpts = SimOpts;
  S->PoolKey = Key;
  S->StepDelayUs = StepDelayUs;
  S->LastVerbMs.store(nowMs(), std::memory_order_relaxed);
  // Attach the shared cache base before the first step. A miss keeps the
  // session cold; a rejected file is diagnosed in the harness's snapshot
  // stats but is likewise not a create error.
  bool StoreAttached = false;
  uint64_t StoreGeneration = 0;
  if (StoreDir && SimOpts.Memoize) {
    std::string StoreErr;
    if (S->Sim->attachStore(*StoreDir, &StoreErr)) {
      StoreAttached = true;
      StoreGeneration = S->Sim->storeMapping()->generation();
    }
  }
  if (Injecting) {
    S->Injector =
        std::make_unique<inject::FaultInjector>(S->Sim->sim(), InjSpec);
    S->Injector->arm();
  }
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    if (Sessions.size() >= Opts.MaxSessions)
      return errorLine(Id, ErrCode::SessionLimit,
                       strFormat("session limit (%u) reached",
                                 Opts.MaxSessions));
    S->Id = ++LastSessionId;
    // Tokens only need to be unguessed by accident, not by an adversary —
    // the daemon trusts its socket. Uniqueness comes from the session id.
    // Set before the session becomes visible: the reaper reads it.
    S->ResumeToken = strFormat("rt-%llu-%llx",
                               static_cast<unsigned long long>(S->Id),
                               static_cast<unsigned long long>(nowUs()));
    Sessions.emplace(S->Id, S);
    if (Sessions.size() > PeakSessions)
      PeakSessions = Sessions.size();
  }
  ++SessionsCreated;

  json::Writer W;
  beginOkResponse(W, Id);
  W.field("session", S->Id);
  W.field("sim", std::string_view(simKindName(Kind)));
  W.field("workload", std::string_view(S->WorkloadName));
  // The *resolved* backend ("interpret" or "jit", never "auto"): what the
  // session actually runs after host-capability resolution.
  W.field("backend", std::string_view(S->Sim->sim().backendName()));
  W.field("resume_token", std::string_view(S->ResumeToken));
  W.field("compat_key",
          strFormat("%016llx", static_cast<unsigned long long>(
                                   S->Sim->sim().compatKey())));
  W.field("shared_program", PoolHit);
  W.field("store_attached", StoreAttached);
  if (StoreAttached)
    W.field("store_generation", StoreGeneration);
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::resumeSession(const std::string &Token,
                                              const json::Value *Id) {
  Spilled Sp;
  {
    std::lock_guard<std::mutex> Lock(SpillMu);
    auto It = Spills.find(Token);
    if (It == Spills.end())
      return errorLine(Id, ErrCode::UnknownToken,
                       "resume token names no spilled session");
    Sp = std::move(It->second);
    SpillBytes -= Sp.bytes();
    Spills.erase(It);
  }
  // Rebuild the shared bundle. Pool entries are never pruned, so this is
  // a hit whenever the original create happened in this process.
  std::shared_ptr<SharedEntry> Entry;
  {
    std::lock_guard<std::mutex> Lock(PoolMu);
    std::shared_ptr<SharedEntry> &Slot = Pool[Sp.PoolKey];
    if (!Slot) {
      Slot = std::make_shared<SharedEntry>();
      Slot->Kind = Sp.Kind;
      Slot->WorkloadName = Sp.Spec.Name;
      Slot->Prog = std::make_unique<rt::SharedProgram>(
          sims::simulatorProgram(Sp.Kind),
          workload::generate(Sp.Spec, Sp.OuterIters));
    }
    Entry = Slot;
  }
  auto S = std::make_shared<Session>();
  S->Kind = Sp.Kind;
  S->WorkloadName = Sp.Spec.Name;
  S->Shared = Entry;
  S->Sim = std::make_unique<FacileSim>(Sp.Kind, *Entry->Prog, Sp.SimOpts);
  S->Spec = Sp.Spec;
  S->OuterIters = Sp.OuterIters;
  S->SimOpts = Sp.SimOpts;
  S->PoolKey = Sp.PoolKey;
  S->StepDelayUs = Sp.StepDelayUs;
  S->ResumeToken = Token;
  S->LastVerbMs.store(nowMs(), std::memory_order_relaxed);
  // The spilled cache supersedes the store's shared base: it holds the
  // base's entries plus whatever the session recorded before reaping, so
  // no attachStore here. Fault injectors are not restored — injection is
  // a test harness feature, re-arm by creating afresh.
  std::string LoadErr;
  if (!S->Sim->loadCheckpointBytes(Sp.Checkpoint, &LoadErr))
    return errorLine(Id, ErrCode::Internal,
                     "spilled checkpoint failed to restore: " + LoadErr);
  if (!Sp.CacheBytes.empty() &&
      !S->Sim->loadCacheBytes(Sp.CacheBytes, &LoadErr))
    return errorLine(Id, ErrCode::Internal,
                     "spilled cache failed to restore: " + LoadErr);
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    if (Sessions.size() >= Opts.MaxSessions)
      return errorLine(Id, ErrCode::SessionLimit,
                       strFormat("session limit (%u) reached",
                                 Opts.MaxSessions));
    S->Id = ++LastSessionId;
    Sessions.emplace(S->Id, S);
    if (Sessions.size() > PeakSessions)
      PeakSessions = Sessions.size();
  }
  ++SessionsCreated;
  ++ResumedSessions;

  json::Writer W;
  beginOkResponse(W, Id);
  W.field("session", S->Id);
  W.field("sim", std::string_view(simKindName(S->Kind)));
  W.field("workload", std::string_view(S->WorkloadName));
  W.field("resume_token", std::string_view(S->ResumeToken));
  W.field("resumed", true);
  W.field("steps_total", S->Sim->sim().stats().Steps);
  W.endObject();
  return W.take();
}

namespace {

/// Appends the common post-execution members: status, halt/fault state and
/// headline counters.
void writeRunState(json::Writer &W, const FacileSim &Sim) {
  const rt::Simulation &S = Sim.sim();
  const char *Status = S.faulted() ? "faulted" : S.halted() ? "halted"
                                                            : "limit";
  W.field("status", std::string_view(Status));
  W.field("halted", S.halted());
  W.field("faulted", S.faulted());
  W.field("steps_total", S.stats().Steps);
  W.field("retired_total", S.stats().RetiredTotal);
  W.field("cycles", S.stats().Cycles);
  if (S.faulted())
    writeFault(W, S.fault());
}

} // namespace

std::string FacileServer::Impl::verbStep(const json::Value &Req,
                                         const json::Value *Id, Session &S) {
  uint64_t Count = 1;
  if (const json::Value *V = Req.get("count")) {
    if (!V->isInt() || V->intOr(0) <= 0)
      return errorLine(Id, ErrCode::BadRequest,
                       "'count' must be a positive integer");
    Count = static_cast<uint64_t>(V->intOr(1));
  }
  Count = std::min<uint64_t>(Count, Opts.MaxStepsPerRequest);
  uint64_t DeadlineMs = Opts.DefaultDeadlineMs;
  if (const json::Value *V = Req.get("deadline_ms")) {
    if (!V->isInt() || V->intOr(0) < 0)
      return errorLine(Id, ErrCode::BadRequest,
                       "'deadline_ms' must be a non-negative integer");
    DeadlineMs = static_cast<uint64_t>(V->intOr(0));
  }

  uint64_t Ran = 0, Slow = 0, Fast = 0, Recovered = 0;
  rt::Simulation &Sim = S.Sim->sim();
  bool WasFaulted = Sim.faulted();
  const uint64_t DeadlineAt = DeadlineMs == 0 ? 0 : nowMs() + DeadlineMs;
  if (DeadlineAt)
    Sim.setDeadlineHook([DeadlineAt] { return nowMs() >= DeadlineAt; });
  while (Ran != Count && !Sim.halted() && !Sim.faulted()) {
    switch (Sim.step()) {
    case rt::StepEngine::Slow:
      ++Slow;
      break;
    case rt::StepEngine::Fast:
      ++Fast;
      break;
    case rt::StepEngine::FastThenSlow:
      ++Recovered;
      break;
    case rt::StepEngine::Faulted:
      break;
    }
    ++Ran;
    if (S.StepDelayUs && (Ran & 63) == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(S.StepDelayUs));
    if (S.Injector && (Ran & 255) == 0)
      S.Injector->inject();
  }
  if (DeadlineAt)
    Sim.setDeadlineHook(nullptr);
  if (!WasFaulted && Sim.faulted() &&
      Sim.fault().Kind == rt::FaultKind::DeadlineExceeded)
    ++DeadlineFaults;
  json::Writer W;
  beginOkResponse(W, Id);
  W.field("steps", Ran);
  W.objectField("engines")
      .field("slow", Slow)
      .field("fast", Fast)
      .field("recovered", Recovered)
      .endObject();
  writeRunState(W, *S.Sim);
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbRun(const json::Value &Req,
                                        const json::Value *Id, Session &S) {
  uint64_t MaxSteps = Opts.MaxStepsPerRequest;
  uint64_t InstrTarget = 0;
  if (const json::Value *V = Req.get("steps")) {
    if (!V->isInt() || V->intOr(0) <= 0)
      return errorLine(Id, ErrCode::BadRequest,
                       "'steps' must be a positive integer");
    MaxSteps = std::min<uint64_t>(static_cast<uint64_t>(V->intOr(1)),
                                  Opts.MaxStepsPerRequest);
  }
  if (const json::Value *V = Req.get("instrs")) {
    if (!V->isInt() || V->intOr(0) <= 0)
      return errorLine(Id, ErrCode::BadRequest,
                       "'instrs' must be a positive integer");
    InstrTarget = static_cast<uint64_t>(V->intOr(1));
  }
  uint64_t DeadlineMs = Opts.DefaultDeadlineMs;
  if (const json::Value *V = Req.get("deadline_ms")) {
    if (!V->isInt() || V->intOr(0) < 0)
      return errorLine(Id, ErrCode::BadRequest,
                       "'deadline_ms' must be a non-negative integer");
    DeadlineMs = static_cast<uint64_t>(V->intOr(0));
  }

  rt::Simulation &Sim = S.Sim->sim();
  bool WasFaulted = Sim.faulted();
  // The hook is consulted inside step() every DeadlineCheckPeriod steps,
  // so the deadline binds within a chunk, not only between chunks.
  const uint64_t DeadlineAt = DeadlineMs == 0 ? 0 : nowMs() + DeadlineMs;
  if (DeadlineAt)
    Sim.setDeadlineHook([DeadlineAt] { return nowMs() >= DeadlineAt; });
  uint64_t Ran = 0;
  while (Ran < MaxSteps && !Sim.halted() && !Sim.faulted() &&
         (InstrTarget == 0 || Sim.stats().RetiredTotal < InstrTarget)) {
    uint64_t Chunk = std::min<uint64_t>(256, MaxSteps - Ran);
    rt::RunResult R = Sim.run(Chunk);
    Ran += R.Steps;
    if (R.Steps == 0)
      break; // already halted/faulted; avoid spinning
    if (S.StepDelayUs)
      std::this_thread::sleep_for(std::chrono::microseconds(S.StepDelayUs));
    if (S.Injector)
      S.Injector->inject();
  }
  if (DeadlineAt)
    Sim.setDeadlineHook(nullptr);
  if (!WasFaulted && Sim.faulted() &&
      Sim.fault().Kind == rt::FaultKind::DeadlineExceeded)
    ++DeadlineFaults;
  json::Writer W;
  beginOkResponse(W, Id);
  W.field("steps", Ran);
  writeRunState(W, *S.Sim);
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbInspect(const json::Value &Req,
                                            const json::Value *Id,
                                            Session &S) {
  std::string What = "stats";
  if (const json::Value *V = Req.get("what"))
    What = V->strOr(What);
  json::Writer W;

  if (What == "stats") {
    beginOkResponse(W, Id);
    W.rawField("stats", S.Sim->statsJson());
  } else if (What == "digest") {
    beginOkResponse(W, Id);
    W.field("digest",
            strFormat("%016llx", static_cast<unsigned long long>(
                                     S.Sim->sim().memory().digest())));
  } else if (What == "global") {
    const json::Value *N = Req.get("name");
    int64_t Value = 0;
    if (!N || !N->isStr() ||
        !S.Sim->sim().tryGetGlobal(N->str(), Value))
      return errorLine(Id, ErrCode::BadRequest,
                       "'name' must name a scalar global");
    beginOkResponse(W, Id);
    W.field("name", std::string_view(N->str()));
    W.field("value", Value);
  } else if (What == "registers") {
    const ir::GlobalVar *R = S.Shared->Prog->program().findGlobal("R");
    if (!R || !R->IsArray)
      return errorLine(Id, ErrCode::BadRequest,
                       "program has no register file array 'R'");
    beginOkResponse(W, Id);
    W.arrayField("registers");
    for (uint32_t I = 0; I != R->Size; ++I)
      W.value(S.Sim->sim().getGlobalElem("R", I));
    W.endArray();
  } else if (What == "memory") {
    const json::Value *A = Req.get("addr");
    if (!A || !A->isInt() || A->intOr(0) < 0)
      return errorLine(Id, ErrCode::BadRequest,
                       "'addr' must be a non-negative integer");
    uint64_t Words = 1;
    if (const json::Value *V = Req.get("words")) {
      if (!V->isInt() || V->intOr(0) <= 0)
        return errorLine(Id, ErrCode::BadRequest,
                         "'words' must be a positive integer");
      Words = static_cast<uint64_t>(V->intOr(1));
    }
    Words = std::min<uint64_t>(Words, Opts.MaxInspectWords);
    uint32_t Addr = static_cast<uint32_t>(A->intOr(0));
    beginOkResponse(W, Id);
    W.field("addr", static_cast<uint64_t>(Addr));
    W.arrayField("values");
    for (uint64_t I = 0; I != Words; ++I)
      W.value(static_cast<uint64_t>(
          S.Sim->sim().memory().read32(Addr + static_cast<uint32_t>(I) * 4)));
    W.endArray();
  } else {
    return errorLine(Id, ErrCode::BadRequest,
                     "'what' must be stats|digest|global|registers|memory");
  }
  writeRunState(W, *S.Sim);
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbClearFault(const json::Value &Req,
                                               const json::Value *Id,
                                               Session &S) {
  rt::Simulation &Sim = S.Sim->sim();
  bool Was = Sim.faulted();
  Sim.clearFault();
  // A step-limit fault would re-fire immediately unless the watchdog is
  // raised; the verb takes the new limit in the same round trip.
  if (const json::Value *V = Req.get("max_steps"))
    Sim.setStepLimit(static_cast<uint64_t>(V->intOr(0)));
  json::Writer W;
  beginOkResponse(W, Id);
  W.field("cleared", Was);
  W.field("faulted", Sim.faulted());
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbSnapshotSave(const json::Value &Req,
                                                 const json::Value *Id,
                                                 Session &S) {
  std::string Kind = "checkpoint";
  if (const json::Value *V = Req.get("kind"))
    Kind = V->strOr(Kind);
  std::vector<uint8_t> Bytes;
  if (Kind == "checkpoint")
    Bytes = S.Sim->checkpointBytes();
  else if (Kind == "cache")
    Bytes = S.Sim->cacheBytes();
  else
    return errorLine(Id, ErrCode::BadRequest,
                     "'kind' must be checkpoint|cache");
  json::Writer W;
  beginOkResponse(W, Id);
  W.field("kind", std::string_view(Kind));
  W.field("format", "FACSNAP2");
  W.field("size", static_cast<uint64_t>(Bytes.size()));
  W.field("bytes_b64", base64Encode(Bytes));
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbSnapshotLoad(const json::Value &Req,
                                                 const json::Value *Id,
                                                 Session &S) {
  std::string Kind = "checkpoint";
  if (const json::Value *V = Req.get("kind"))
    Kind = V->strOr(Kind);
  if (Kind != "checkpoint" && Kind != "cache")
    return errorLine(Id, ErrCode::BadRequest,
                     "'kind' must be checkpoint|cache");
  const json::Value *B = Req.get("bytes_b64");
  std::vector<uint8_t> Bytes;
  if (!B || !B->isStr() || !base64Decode(B->str(), Bytes))
    return errorLine(Id, ErrCode::BadRequest,
                     "'bytes_b64' must be valid base64");
  std::string LoadErr;
  bool Ok = Kind == "checkpoint" ? S.Sim->loadCheckpointBytes(Bytes, &LoadErr)
                                 : S.Sim->loadCacheBytes(Bytes, &LoadErr);
  if (!Ok) {
    // Rejected payloads leave the session exactly as it was (the loaders
    // are all-or-nothing), so this is an error response, not a fault.
    return errorLine(Id, ErrCode::BadSnapshot, LoadErr);
  }
  json::Writer W;
  beginOkResponse(W, Id);
  W.field("kind", std::string_view(Kind));
  W.field("loaded", true);
  writeRunState(W, *S.Sim);
  W.endObject();
  return W.take();
}

std::string FacileServer::Impl::verbDestroy(const json::Value *Id,
                                            uint64_t SessionId) {
  std::shared_ptr<Session> S;
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    auto It = Sessions.find(SessionId);
    if (It != Sessions.end()) {
      S = std::move(It->second);
      Sessions.erase(It);
    }
  }
  if (!S)
    return errorLine(Id, ErrCode::UnknownSession,
                     strFormat("no session %llu",
                               static_cast<unsigned long long>(SessionId)));
  // An in-flight verb on another worker still holds a shared_ptr; the
  // session object dies when the last reference drops.
  ++SessionsDestroyed;
  json::Writer W;
  beginOkResponse(W, Id);
  W.field("destroyed", SessionId);
  W.endObject();
  return W.take();
}

//===----------------------------------------------------------------------===//
// Housekeeping: drain state machine, TTL reap, overlay bound, store GC
//===----------------------------------------------------------------------===//

void FacileServer::Impl::reaperLoop() {
  uint64_t LastGcMs = nowMs();
  while (!Stop.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> Lock(StopMu);
      StopCv.wait_for(Lock, std::chrono::milliseconds(Opts.ReaperPeriodMs),
                      [this] { return Stop.load(std::memory_order_acquire); });
    }
    if (Stop.load(std::memory_order_acquire))
      break;
    uint64_t Now = nowMs();

    // Drain: Requested -> Draining (readers and the acceptor start
    // refusing) -> queue and in-flight work finish (bounded by the drain
    // deadline) -> dirty overlays promoted -> Stop. requestDrain() itself
    // only set one atomic, so it is safe from a signal handler.
    if (DrainRequested.load(std::memory_order_acquire) &&
        !Draining.load(std::memory_order_acquire)) {
      DrainStartMs = Now;
      Draining.store(true, std::memory_order_release);
    }
    if (Draining.load(std::memory_order_acquire)) {
      bool Idle;
      {
        std::lock_guard<std::mutex> Lock(QueueMu);
        Idle = Queue.empty() && InFlight.load(std::memory_order_acquire) == 0;
      }
      if (Idle || Now - DrainStartMs >= Opts.DrainDeadlineMs) {
        promoteDirtyOverlays();
        DrainDurationMs.store(nowMs() - DrainStartMs,
                              std::memory_order_release);
        requestShutdown();
      }
      continue; // no TTL/GC churn while draining
    }

    if (Opts.SessionIdleTtlMs != 0)
      reapIdleSessions(Now);
    if (Opts.MaxOverlayBytes != 0)
      boundOverlayBytes();
    if (Opts.StoreGcKeep != 0 && StoreDir && Now - LastGcMs >= 5000) {
      LastGcMs = Now;
      StoreGcUnlinked += StoreDir->gc(static_cast<size_t>(Opts.StoreGcKeep));
    }
  }
}

void FacileServer::Impl::reapIdleSessions(uint64_t Now) {
  std::vector<std::shared_ptr<Session>> Live;
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    Live.reserve(Sessions.size());
    for (const auto &E : Sessions)
      Live.push_back(E.second);
  }
  for (const std::shared_ptr<Session> &S : Live) {
    if (Now - S->LastVerbMs.load(std::memory_order_relaxed) <
        Opts.SessionIdleTtlMs)
      continue;
    // try_lock: a session mid-verb is busy, not idle.
    std::unique_lock<std::mutex> SLock(S->Mu, std::try_to_lock);
    if (!SLock.owns_lock())
      continue;
    if (S->Reaped || Now - S->LastVerbMs.load(std::memory_order_relaxed) <
                         Opts.SessionIdleTtlMs)
      continue; // a verb finished between the scan and the lock
    // Detach from the table first so no new lookup finds it; a worker
    // already holding a shared_ptr re-checks Reaped under Mu.
    {
      std::lock_guard<std::mutex> TLock(SessionsMu);
      auto It = Sessions.find(S->Id);
      if (It == Sessions.end() || It->second != S)
        continue; // destroyed concurrently
      Sessions.erase(It);
    }
    S->Reaped = true;
    Spilled Sp;
    Sp.Kind = S->Kind;
    Sp.Spec = S->Spec;
    Sp.OuterIters = S->OuterIters;
    Sp.SimOpts = S->SimOpts;
    Sp.PoolKey = S->PoolKey;
    Sp.StepDelayUs = S->StepDelayUs;
    Sp.Checkpoint = S->Sim->checkpointBytes();
    if (S->SimOpts.Memoize)
      Sp.CacheBytes = S->Sim->cacheBytes();
    {
      std::lock_guard<std::mutex> Lock(SpillMu);
      Sp.Seq = ++SpillSeq;
      SpillBytes += Sp.bytes();
      Spills[S->ResumeToken] = std::move(Sp);
      dropSpillOverBudget();
    }
    ++ReapedSessions;
    ++SessionsDestroyed;
  }
}

void FacileServer::Impl::dropSpillOverBudget() {
  while (SpillBytes > Opts.MaxSpillBytes && !Spills.empty()) {
    auto Oldest = Spills.begin();
    for (auto It = std::next(Spills.begin()); It != Spills.end(); ++It)
      if (It->second.Seq < Oldest->second.Seq)
        Oldest = It;
    SpillBytes -= Oldest->second.bytes();
    Spills.erase(Oldest);
    ++SpillsDropped;
  }
}

void FacileServer::Impl::boundOverlayBytes() {
  std::vector<std::shared_ptr<Session>> Live;
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    Live.reserve(Sessions.size());
    for (const auto &E : Sessions)
      Live.push_back(E.second);
  }
  // Oldest-first by verb recency, so eviction is LRU over sessions.
  std::sort(Live.begin(), Live.end(),
            [](const std::shared_ptr<Session> &A,
               const std::shared_ptr<Session> &B) {
              return A->LastVerbMs.load(std::memory_order_relaxed) <
                     B->LastVerbMs.load(std::memory_order_relaxed);
            });
  size_t Total = 0;
  for (const std::shared_ptr<Session> &S : Live) {
    std::unique_lock<std::mutex> SLock(S->Mu, std::try_to_lock);
    if (!SLock.owns_lock())
      continue;
    Total += S->Sim->sim().cache().overlayBytes();
  }
  for (const std::shared_ptr<Session> &S : Live) {
    if (Total <= Opts.MaxOverlayBytes)
      return;
    std::unique_lock<std::mutex> SLock(S->Mu, std::try_to_lock);
    if (!SLock.owns_lock() || S->Reaped)
      continue;
    size_t Overlay = S->Sim->sim().cache().overlayBytes();
    if (Overlay == 0)
      continue;
    // Resets to the shared read-only base (or empty when cold); recorded
    // work is lost, correctness is not — the cache is a memo, not state.
    S->Sim->sim().evictCacheNow();
    Total -= std::min(Total, Overlay);
    ++OverlaysEvicted;
  }
}

void FacileServer::Impl::promoteDirtyOverlays() {
  if (!StoreDir)
    return;
  std::vector<std::shared_ptr<Session>> Live;
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    Live.reserve(Sessions.size());
    for (const auto &E : Sessions)
      Live.push_back(E.second);
  }
  for (const std::shared_ptr<Session> &S : Live) {
    // try_lock: past the drain deadline a wedged session forfeits its
    // promotion rather than hanging shutdown.
    std::unique_lock<std::mutex> SLock(S->Mu, std::try_to_lock);
    if (!SLock.owns_lock()) {
      ++DrainSkipped;
      continue;
    }
    if (!S->SimOpts.Memoize || S->Sim->sim().cache().overlayBytes() == 0)
      continue; // nothing recorded: nothing worth a new generation
    std::string PErr;
    if (S->Sim->promoteStore(*StoreDir, nullptr, &PErr))
      ++DrainPromoted;
    else
      ++DrainSkipped;
  }
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

std::string FacileServer::Impl::statsJson() {
  // Snapshot the session table, then export: the registry providers must
  // not hold SessionsMu while they lock individual sessions.
  std::vector<std::shared_ptr<Session>> Live;
  uint64_t Peak;
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    Live.reserve(Sessions.size());
    for (const auto &E : Sessions)
      Live.push_back(E.second);
    Peak = PeakSessions;
  }
  size_t Queued;
  telemetry::Histogram QDHist;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Queued = Queue.size();
    QDHist = QueueDepthHist;
  }
  telemetry::Histogram SvcHist;
  {
    std::lock_guard<std::mutex> Lock(HistMu);
    SvcHist = ServiceUsHist;
  }
  size_t SpilledCount, SpilledBytes;
  {
    std::lock_guard<std::mutex> Lock(SpillMu);
    SpilledCount = Spills.size();
    SpilledBytes = SpillBytes;
  }
  size_t PoolSize;
  {
    std::lock_guard<std::mutex> Lock(PoolMu);
    PoolSize = Pool.size();
  }
  uint64_t FaultedSessions = 0;

  telemetry::MetricsRegistry R;
  R.add("sessions", [&](telemetry::MetricSink &Sink) {
    for (const std::shared_ptr<Session> &S : Live) {
      std::lock_guard<std::mutex> Lock(S->Mu);
      const rt::Simulation &Sim = S->Sim->sim();
      if (Sim.faulted())
        ++FaultedSessions;
      Sink.beginGroup(strFormat("s%llu",
                                static_cast<unsigned long long>(S->Id)));
      Sink.text("sim", simKindName(S->Kind));
      Sink.text("workload", S->WorkloadName);
      Sink.counter("verbs", S->Verbs);
      Sink.counter("steps", Sim.stats().Steps);
      Sink.counter("fast_steps", Sim.stats().FastSteps);
      Sink.counter("retired", Sim.stats().RetiredTotal);
      Sink.counter("cycles", Sim.stats().Cycles);
      Sink.counter("faults", Sim.stats().Faults);
      Sink.flag("store_attached", static_cast<bool>(S->Sim->storeMapping()));
      if (S->Sim->storeMapping()) {
        Sink.counter("store_generation", S->Sim->storeMapping()->generation());
        Sink.counter("base_bytes",
                     static_cast<uint64_t>(Sim.cache().baseBytes()));
      }
      Sink.counter("overlay_bytes",
                   static_cast<uint64_t>(Sim.cache().overlayBytes()));
      Sink.flag("halted", Sim.halted());
      Sink.flag("faulted", Sim.faulted());
      if (Sim.faulted())
        Sink.text("fault_kind", rt::faultKindName(Sim.fault().Kind));
      if (S->Injector)
        Sink.counter("injected_faults", S->Injector->counters().total());
      Sink.endGroup();
    }
  });
  // The sessions provider runs first during export, so the faulted count
  // is final by the time the server group renders — registries walk in
  // registration order, but JSON member order is irrelevant to consumers;
  // keep "sessions" registered first regardless.
  R.add("server", [&](telemetry::MetricSink &Sink) {
    Sink.gauge("active_sessions", static_cast<int64_t>(Live.size()));
    Sink.gauge("peak_sessions", static_cast<int64_t>(Peak));
    Sink.counter("sessions_created", SessionsCreated.load());
    Sink.counter("sessions_destroyed", SessionsDestroyed.load());
    Sink.gauge("faulted_sessions", static_cast<int64_t>(FaultedSessions));
    Sink.gauge("queued_requests", static_cast<int64_t>(Queued));
    Sink.gauge("active_connections",
               static_cast<int64_t>(ActiveConnections.load()));
    Sink.counter("connections_total", ConnectionsTotal.load());
    Sink.counter("requests_total", RequestsTotal.load());
    Sink.counter("responses_total", ResponsesTotal.load());
    Sink.counter("protocol_errors", ProtocolErrors.load());
    Sink.gauge("shared_programs", static_cast<int64_t>(PoolSize));
    // How many distinct store files this process has mapped right now; N
    // warm sessions over one store report 1 here.
    Sink.gauge("store_mappings",
               static_cast<int64_t>(StoreDir ? StoreDir->mappedCount() : 0));
    Sink.gauge("workers", static_cast<int64_t>(Opts.Workers));
    Sink.flag("shutting_down", Stop.load());
    // Resilience layer (docs/INTERNALS.md "Resilience").
    Sink.counter("admission_rejects", AdmissionRejects.load());
    Sink.counter("deadline_faults", DeadlineFaults.load());
    Sink.counter("deduped_requests", DedupedRequests.load());
    Sink.counter("idle_closed_connections", IdleClosedConns.load());
    Sink.counter("reaped_sessions", ReapedSessions.load());
    Sink.counter("resumed_sessions", ResumedSessions.load());
    Sink.counter("spills_dropped", SpillsDropped.load());
    Sink.counter("overlays_evicted", OverlaysEvicted.load());
    Sink.counter("store_gc_unlinked", StoreGcUnlinked.load());
    Sink.counter("drain_promoted", DrainPromoted.load());
    Sink.counter("drain_skipped", DrainSkipped.load());
    Sink.gauge("spilled_sessions", static_cast<int64_t>(SpilledCount));
    Sink.gauge("spilled_bytes", static_cast<int64_t>(SpilledBytes));
    Sink.gauge("max_queue_depth", static_cast<int64_t>(Opts.MaxQueueDepth));
    Sink.gauge("drain_duration_ms",
               static_cast<int64_t>(DrainDurationMs.load()));
    Sink.flag("draining", Draining.load());
    Sink.histogram("queue_depth", QDHist);
    Sink.histogram("service_us", SvcHist);
  });
  telemetry::JsonMetricSink Sink;
  R.exportTo(Sink);
  return Sink.finish();
}

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

FacileServer::FacileServer(ServerOptions Opts)
    : I(std::make_unique<Impl>(std::move(Opts))) {}

FacileServer::~FacileServer() {
  I->requestShutdown();
  I->joinAll();
}

bool FacileServer::start(std::string *Err) { return I->start(Err); }

uint16_t FacileServer::port() const { return I->BoundPort; }

void FacileServer::requestShutdown() { I->requestShutdown(); }

// One relaxed-ordering-free atomic store: safe from a signal handler. The
// reaper thread notices within its period and runs the state machine.
void FacileServer::requestDrain() {
  I->DrainRequested.store(true, std::memory_order_release);
}

bool FacileServer::addressInUse() const { return I->AddressInUse; }

uint64_t FacileServer::drainDurationMs() const {
  return I->DrainDurationMs.load(std::memory_order_acquire);
}

void FacileServer::wait() {
  {
    std::unique_lock<std::mutex> Lock(I->StopMu);
    I->StopCv.wait(Lock, [this] { return I->Stop.load(); });
  }
  I->joinAll();
}

std::string FacileServer::statsJson() const { return I->statsJson(); }
