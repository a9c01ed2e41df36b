//===- facile_bench.cpp - Measuring process of the perfbench benchmark ----===//
//
// One process per measured repetition: run.py spawns it, checks what it
// prints against the workload's golden reference and takes medians over
// repetitions. The simulator under test is ooo.fac through sims::FacileSim
// with default Simulation::Options.
//
//   facile_bench golden   <spec> <seed> <instrs>
//       memo-off, interpreter-backend reference run (no action cache, no
//       JIT): prints the final memory digest, retired and cycle counts.
//   facile_bench snapshot <spec> <seed> <instrs> --out=<file>
//       runs memoized and saves the action cache for a warm workload.
//   facile_bench timed    <spec> <seed> <instrs> [--cache=<file>]
//       the untraced measured run.
//   facile_bench traced   <spec> <seed> <instrs> --spans=<file>
//                         [--cache=<file>]
//       the same run, stepped singly with every layer call timed from
//       outside; spans are kept in memory and written to <file> at the end.
//
// Each mode prints one JSON object on stdout. Spans and layer timings come
// only from the benchmark's own calls into the public API: the setup calls,
// rt::Simulation::step() classified by the StepEngine it returns, and the
// four extern handlers, re-registered here to time them.
//
//===----------------------------------------------------------------------===//

#include "src/isa/Assembler.h"
#include "src/sims/SimHarness.h"
#include "src/support/Json.h"
#include "src/telemetry/Metrics.h"
#include "src/workload/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace facile;
using namespace facile::sims;

#ifndef FACILE_BENCH_BUILD_TYPE
#define FACILE_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "facile_bench: %s\n", Msg.c_str());
  std::exit(2);
}

struct Args {
  std::string Mode;
  std::string Spec;
  uint64_t Seed = 0;
  uint64_t Instrs = 0;
  std::string Cache; ///< action-cache file to warm-start from
  std::string Out;   ///< snapshot mode: where to save the cache
  std::string Spans; ///< traced mode: where to write the spans
};

uint64_t parseU64(const char *S, const char *What) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno != 0 || End == S || *End != '\0' || *S == '-')
    die(std::string("bad ") + What + " '" + S + "'");
  return V;
}

Args parseArgs(int Argc, char **Argv) {
  if (Argc < 5)
    die("usage: facile_bench golden|snapshot|timed|traced <spec> <seed> "
        "<instrs> [--cache=<file>] [--out=<file>] [--spans=<file>]");
  Args A;
  A.Mode = Argv[1];
  A.Spec = Argv[2];
  A.Seed = parseU64(Argv[3], "seed");
  A.Instrs = parseU64(Argv[4], "instruction count");
  for (int I = 5; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Flag, std::string &Dst) {
      size_t N = std::strlen(Flag);
      if (Arg.compare(0, N, Flag) != 0)
        return false;
      Dst = Arg.substr(N);
      return true;
    };
    if (!Value("--cache=", A.Cache) && !Value("--out=", A.Out) &&
        !Value("--spans=", A.Spans))
      die("unknown argument '" + Arg + "'");
  }
  if (A.Mode != "golden" && A.Mode != "snapshot" && A.Mode != "timed" &&
      A.Mode != "traced")
    die("unknown mode '" + A.Mode + "'");
  if (A.Mode == "snapshot" && A.Out.empty())
    die("snapshot mode needs --out=<file>");
  if (A.Mode == "traced" && A.Spans.empty())
    die("traced mode needs --spans=<file>");
  return A;
}

/// The workload's program: the suite entry's code, with the benchmark's
/// seed in the upper 16 bits of every word of its LCG data fill. Branches
/// test only bits 5-14 of loaded words, so control flow and timing are the
/// same for every seed while the data and the final memory differ. Seeding
/// the spec itself reshapes the code, and that flips workloads between
/// regimes: some 126.gcc seeds never fill the action cache, and 130.li's
/// warm working set ranges from 1 MB to past the budget (NOTES.md).
isa::TargetImage makeImage(const Args &A) {
  const workload::WorkloadSpec *Spec = workload::findSpec(A.Spec);
  if (!Spec)
    die("unknown workload spec '" + A.Spec + "'");
  // The fill is an LCG modulo 2^32, so the low 16 bits of every word
  // depend only on the low 16 bits of its start value.
  std::string Asm = workload::generateAsm(*Spec, 1u << 30);
  const std::string Fill = "\n  li r18, ";
  size_t Begin = Asm.find(Fill);
  size_t End = Begin == std::string::npos ? Begin : Asm.find('\n', Begin + 1);
  if (End == std::string::npos)
    die("workload generator no longer seeds its data fill through r18");
  Begin += Fill.size();
  uint32_t Start = static_cast<uint32_t>(
      parseU64(Asm.substr(Begin, End - Begin).c_str(), "data fill start"));
  uint32_t High = static_cast<uint32_t>(A.Seed * 2654435761u + 12345u);
  Asm.replace(Begin, End - Begin,
              std::to_string((High << 16) | (Start & 0xffffu)));
  std::string Err;
  std::optional<isa::TargetImage> Image = isa::assemble(Asm, &Err);
  if (!Image)
    die("cannot assemble " + A.Spec + ": " + Err);
  return *std::move(Image);
}

uint64_t peakRssKb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<uint64_t>(U.ru_maxrss);
}

std::string hex64(uint64_t V) {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// The fields every mode reports: what the golden gate compares and the
/// configuration the run resolved to.
void writeOutcome(json::Writer &W, FacileSim &Sim) {
  const rt::Simulation &S = Sim.sim();
  W.field("retired", S.stats().RetiredTotal);
  W.field("cycles", S.stats().Cycles);
  W.field("digest", hex64(S.memory().digest()));
  W.field("halted", S.halted());
  W.field("faulted", S.faulted());
  W.field("fault", rt::faultKindName(S.fault().Kind));
  W.field("backend", S.backendName());
  W.field("jit_compiled_actions", S.jitCompiledActions());
  W.field("build_type", FACILE_BENCH_BUILD_TYPE);
  W.field("peak_rss_kb", peakRssKb());
}

void emit(json::Writer &W) {
  W.endObject();
  std::printf("%s\n", W.take().c_str());
}

int runGolden(const Args &A) {
  rt::Simulation::Options Opts;
  Opts.Memoize = false;
  Opts.Backend = rt::BackendKind::Interpret;
  isa::TargetImage Image = makeImage(A);
  FacileSim Sim(SimKind::OutOfOrder, Image, Opts);
  Sim.run(A.Instrs);
  json::Writer W;
  W.beginObject().field("mode", "golden");
  writeOutcome(W, Sim);
  emit(W);
  return 0;
}

int runSnapshot(const Args &A) {
  isa::TargetImage Image = makeImage(A);
  FacileSim Sim(SimKind::OutOfOrder, Image);
  Sim.run(A.Instrs);
  std::string Err;
  if (Sim.faulted() || !Sim.saveCache(A.Out, &Err))
    die("snapshot build failed: " + (Sim.faulted() ? Sim.fault().Detail : Err));
  json::Writer W;
  W.beginObject().field("mode", "snapshot");
  writeOutcome(W, Sim);
  W.field("cache_clears", Sim.sim().cache().stats().Clears);
  emit(W);
  return 0;
}

/// Loads the warm workload's action cache; a warm run that silently fell
/// back to a cold start would measure the wrong thing, so failure is fatal.
void loadWarmCache(FacileSim &Sim, const std::string &Path) {
  std::string Err;
  if (!Sim.loadCache(Path, &Err))
    die("cannot warm-start from '" + Path + "': " + Err);
}

int runTimed(const Args &A, uint64_t MainNs) {
  // The traced run's setup order: compile, generate, construct, load.
  simulatorProgram(SimKind::OutOfOrder);
  isa::TargetImage Image = makeImage(A);
  FacileSim Sim(SimKind::OutOfOrder, Image);
  if (!A.Cache.empty())
    loadWarmCache(Sim, A.Cache);
  uint64_t FirstStepNs = nowNs();
  Sim.run(A.Instrs);
  uint64_t EndNs = nowNs();
  json::Writer W;
  W.beginObject().field("mode", "timed");
  W.field("main_ns", MainNs).field("first_step_ns", FirstStepNs);
  W.field("run_s", static_cast<double>(EndNs - FirstStepNs) * 1e-9);
  writeOutcome(W, Sim);
  emit(W);
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// Flattens a metrics-registry walk into "group.name" -> value, so layer
/// counts are read from the same schema statsJson() prints.
class FlatSink : public telemetry::MetricSink {
public:
  void beginGroup(std::string_view Name) override {
    Path.emplace_back(Name);
  }
  void endGroup() override { Path.pop_back(); }
  void counter(std::string_view N, uint64_t V) override {
    Values[key(N)] = static_cast<double>(V);
  }
  void gauge(std::string_view N, double V) override { Values[key(N)] = V; }
  void gauge(std::string_view N, int64_t V) override {
    Values[key(N)] = static_cast<double>(V);
  }
  void flag(std::string_view N, bool V) override { Values[key(N)] = V; }
  void text(std::string_view, std::string_view) override {}
  void histogram(std::string_view, const telemetry::Histogram &) override {}

  double get(const std::string &Name) const {
    auto It = Values.find(Name);
    if (It == Values.end())
      die("statsJson() schema has no '" + Name + "'");
    return It->second;
  }

private:
  std::string key(std::string_view N) const {
    std::string K;
    for (const std::string &P : Path)
      K += P + ".";
    return K.append(N);
  }
  std::vector<std::string> Path;
  std::map<std::string, double> Values;
};

enum ExternId { BpPredict, BpTrain, DCache, ICache, NumExterns };
const char *const ExternNames[NumExterns] = {"bp_predict", "bp_train",
                                             "dcache_access", "icache_access"};

/// Calls and busy time per extern handler.
struct ExternTimes {
  uint64_t Calls[NumExterns] = {};
  uint64_t Ns[NumExterns] = {};
  uint64_t TotalNs = 0;

  void note(ExternId Id, uint64_t StartNs) {
    uint64_t D = nowNs() - StartNs;
    ++Calls[Id];
    Ns[Id] += D;
    TotalNs += D;
  }
};

/// Re-registers the four externs around the benchmark's own predictor and
/// cache hierarchy, mirroring FacileSim::wireExterns, with each call timed.
/// The golden gate proves the wrapped run simulates the same program.
void wrapExterns(rt::Simulation &S, BranchUnit &BU, MemoryHierarchy &MH,
                 ExternTimes &X) {
  bool Ok = true;
  Ok &= S.registerExtern("bp_predict", [&](const int64_t *Args, size_t) {
    uint64_t T = nowNs();
    int64_t R = BU.predictDirection(static_cast<uint32_t>(Args[0])) ? 1 : 0;
    X.note(BpPredict, T);
    return R;
  });
  Ok &= S.registerExtern("bp_train", [&](const int64_t *Args, size_t) {
    uint64_t T = nowNs();
    BU.resolveDirection(static_cast<uint32_t>(Args[0]), Args[1] != 0);
    X.note(BpTrain, T);
    return static_cast<int64_t>(0);
  });
  Ok &= S.registerExtern("dcache_access", [&](const int64_t *Args, size_t) {
    uint64_t T = nowNs();
    unsigned Latency =
        MH.accessData(static_cast<uint32_t>(Args[0]), Args[1] != 0);
    X.note(DCache, T);
    return static_cast<int64_t>(Latency <= 1 ? 1 : 0);
  });
  Ok &= S.registerExtern("icache_access", [&](const int64_t *Args, size_t) {
    uint64_t T = nowNs();
    unsigned Latency = MH.accessInst(static_cast<uint32_t>(Args[0]));
    X.note(ICache, T);
    return static_cast<int64_t>(Latency <= 1 ? 1 : 0);
  });
  if (!Ok)
    die("ooo.fac no longer declares the externs the benchmark wraps");
}

/// Step classes: one span per run of consecutive steps with the same
/// class and the same cache clear count.
enum StepClass : uint8_t { Slow, Fast, Recover, Bypass, NumClasses };
const char *const ClassNames[NumClasses] = {"slow", "fast", "recover",
                                            "bypass"};

struct StepSpan {
  uint64_t StartNs = 0, EndNs = 0;
  uint64_t BusyNs = 0; ///< sum of the merged steps' durations
  uint64_t Steps = 0;
  uint64_t Clears = 0; ///< cache clear count during the span
  uint64_t ExtCalls[NumExterns] = {};
  uint64_t ExtNs[NumExterns] = {};
  StepClass Class = Slow;
};

struct SetupSpan {
  const char *Name;
  uint64_t StartNs, EndNs;
};

/// p-th percentile (nearest rank) of \p V, 0 when empty.
double percentile(std::vector<uint32_t> &V, double P) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(P / 100.0 * static_cast<double>(V.size()));
  Rank = std::min(Rank, V.size() - 1);
  std::nth_element(V.begin(), V.begin() + static_cast<ptrdiff_t>(Rank),
                   V.end());
  return V[Rank];
}

void writeSpans(const std::string &Path, const std::string &TraceId,
                uint64_t MainNs, uint64_t EndNs,
                const std::vector<SetupSpan> &Setup,
                const std::vector<StepSpan> &Steps) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    die("cannot write spans to '" + Path + "'");
  uint64_t NextId = 1;
  auto Line = [&](uint64_t Id, uint64_t Parent, const std::string &Name,
                  uint64_t Start, uint64_t End, uint64_t Busy,
                  uint64_t Count, int64_t Clears) {
    json::Writer W;
    W.beginObject().field("trace", TraceId).field("id", Id);
    W.field("parent", Parent).field("name", Name);
    W.field("start_ns", Start - MainNs).field("end_ns", End - MainNs);
    W.field("busy_ns", Busy).field("count", Count);
    if (Clears >= 0)
      W.field("clears", static_cast<uint64_t>(Clears));
    W.endObject();
    std::fprintf(F, "%s\n", W.take().c_str());
  };
  uint64_t Root = NextId++;
  Line(Root, 0, "run", MainNs, EndNs, EndNs - MainNs, 1, -1);
  for (const SetupSpan &S : Setup)
    Line(NextId++, Root, S.Name, S.StartNs, S.EndNs, S.EndNs - S.StartNs, 1,
         -1);
  for (const StepSpan &S : Steps) {
    uint64_t Id = NextId++;
    Line(Id, Root, std::string("runtime.step.") + ClassNames[S.Class],
         S.StartNs, S.EndNs, S.BusyNs, S.Steps,
         static_cast<int64_t>(S.Clears));
    // Extern calls are children of their step span, merged per handler.
    for (int E = 0; E != NumExterns; ++E)
      if (S.ExtCalls[E] != 0)
        Line(NextId++, Id, std::string("uarch.") + ExternNames[E], S.StartNs,
             S.EndNs, S.ExtNs[E], S.ExtCalls[E], -1);
  }
  if (std::fclose(F) != 0)
    die("cannot write spans to '" + Path + "'");
}

int runTraced(const Args &A, uint64_t MainNs) {
  // Declared before the simulator, whose extern handlers refer to them.
  BranchUnit BU;
  MemoryHierarchy MH;
  ExternTimes X;
  std::vector<SetupSpan> Setup;
  uint64_t T = nowNs();
  const CompiledProgram &Prog = simulatorProgram(SimKind::OutOfOrder);
  Setup.push_back({"facile.compile", T, nowNs()});
  T = nowNs();
  isa::TargetImage Image = makeImage(A);
  Setup.push_back({"workload.generate", T, nowNs()});
  T = nowNs();
  FacileSim Sim(SimKind::OutOfOrder, Image);
  Setup.push_back({"runtime.construct", T, nowNs()});
  rt::Simulation &S = Sim.sim();
  wrapExterns(S, BU, MH, X);
  double LoadS = 0;
  if (!A.Cache.empty()) {
    T = nowNs();
    loadWarmCache(Sim, A.Cache);
    Setup.push_back({"snapshot.load", T, nowNs()});
    LoadS = static_cast<double>(Setup.back().EndNs - T) * 1e-9;
  }

  std::vector<StepSpan> Spans;
  std::vector<uint32_t> StepNs[NumClasses];
  uint64_t ClassNs[NumClasses] = {};
  uint64_t ClassSteps[NumClasses] = {};
  uint64_t EvictNs = 0;
  // Extern totals when the open span started; closing the span turns them
  // into its own share.
  uint64_t OpenCalls[NumExterns] = {}, OpenNs[NumExterns] = {};
  auto closeSpan = [&] {
    if (Spans.empty())
      return;
    for (int I = 0; I != NumExterns; ++I) {
      Spans.back().ExtCalls[I] = X.Calls[I] - OpenCalls[I];
      Spans.back().ExtNs[I] = X.Ns[I] - OpenNs[I];
      OpenCalls[I] = X.Calls[I];
      OpenNs[I] = X.Ns[I];
    }
  };
  uint64_t FirstStepNs = nowNs();
  // One clock read per step: a step's span starts where the previous one
  // ended, so the loop's own bookkeeping is charged to the steps and the
  // step spans tile the loop.
  uint64_t End = FirstStepNs;
  // Stops on exactly the step FacileSim::run stops on: it polls the
  // retired count only between Simulation::run(256) batches, and a batch
  // ends early on halt or fault.
  while (!S.halted() && !S.faulted() && S.stats().RetiredTotal < A.Instrs) {
    for (unsigned K = 0; K != 256 && !S.halted() && !S.faulted(); ++K) {
      uint64_t Bypassed0 = S.stats().BypassedSteps;
      uint64_t Clears0 = S.cache().stats().Clears;
      uint64_t Ext0 = X.TotalNs;
      uint64_t Start = End;
      rt::StepEngine E = S.step();
      End = nowNs();
      if (E == rt::StepEngine::Faulted)
        break;
      StepClass C = S.stats().BypassedSteps != Bypassed0 ? Bypass
                    : E == rt::StepEngine::Slow          ? Slow
                    : E == rt::StepEngine::Fast          ? Fast
                                                         : Recover;
      uint64_t Clears = S.cache().stats().Clears;
      uint64_t Self = (End - Start) - (X.TotalNs - Ext0);
      if (Clears != Clears0)
        EvictNs += Self;
      ClassNs[C] += Self;
      ++ClassSteps[C];
      StepNs[C == Bypass ? Slow : C].push_back(
          static_cast<uint32_t>(std::min<uint64_t>(Self, UINT32_MAX)));
      if (Spans.empty() || Spans.back().Class != C ||
          Spans.back().Clears != Clears) {
        closeSpan();
        StepSpan N;
        N.StartNs = Start;
        N.Class = C;
        N.Clears = Clears;
        Spans.push_back(N);
      }
      StepSpan &Open = Spans.back();
      Open.EndNs = End;
      Open.BusyNs += End - Start;
      ++Open.Steps;
    }
  }
  uint64_t EndNs = nowNs();
  closeSpan();

  telemetry::MetricsRegistry Registry;
  Sim.registerMetrics(Registry);
  FlatSink M;
  Registry.exportTo(M);

  // Coverage: how much of the process's wall time, from main() to the last
  // step, the setup spans, step self times and extern times account for.
  uint64_t SetupNs = 0;
  for (const SetupSpan &Sp : Setup)
    SetupNs += Sp.EndNs - Sp.StartNs;
  uint64_t StepSelfNs = 0;
  for (uint64_t Ns : ClassNs)
    StepSelfNs += Ns;
  double WallNs = static_cast<double>(EndNs - MainNs);

  const rt::Simulation::Stats &St = S.stats();
  auto Secs = [](uint64_t Ns) { return static_cast<double>(Ns) * 1e-9; };
  auto Pct = [](double Part, double Whole) {
    return Whole == 0 ? 0.0 : 100.0 * Part / Whole;
  };
  const double MB = 1024.0 * 1024.0;
  double Lookups = M.get("cache.lookups");
  double Keys = M.get("cache.keys");
  uint64_t ExtCalls = 0;
  for (uint64_t C : X.Calls)
    ExtCalls += C;

  json::Writer W;
  W.beginObject().field("mode", "traced");
  W.field("main_ns", MainNs).field("first_step_ns", FirstStepNs);
  W.field("run_s", Secs(EndNs - FirstStepNs));
  writeOutcome(W, Sim);
  W.key("layers").beginObject();
  auto L = [&](const char *Name, double V) { W.field(Name, V); };
  L("facile.compile_s", Secs(Setup[0].EndNs - Setup[0].StartNs));
  L("workload.generate_s", Secs(Setup[1].EndNs - Setup[1].StartNs));
  L("runtime.construct_s", Secs(Setup[2].EndNs - Setup[2].StartNs));
  L("facile.plan_insts", Prog.Passes.InstsAfter);
  L("runtime.steps", static_cast<double>(St.Steps));
  L("runtime.fast_steps", static_cast<double>(ClassSteps[Fast]));
  L("runtime.slow_steps",
    static_cast<double>(ClassSteps[Slow] + ClassSteps[Bypass]));
  L("runtime.recovered_steps", static_cast<double>(ClassSteps[Recover]));
  L("runtime.bypassed_steps", static_cast<double>(St.BypassedSteps));
  L("runtime.ff_pct", St.fastForwardedPct());
  L("runtime.slow_s", Secs(ClassNs[Slow] + ClassNs[Bypass]));
  L("runtime.slow_step_p50_ns", percentile(StepNs[Slow], 50));
  L("runtime.slow_step_p99_ns", percentile(StepNs[Slow], 99));
  L("runtime.recover_s", Secs(ClassNs[Recover]));
  L("runtime.recover_step_p50_ns", percentile(StepNs[Recover], 50));
  L("runtime.recover_step_p99_ns", percentile(StepNs[Recover], 99));
  L("runtime.fast_s", Secs(ClassNs[Fast]));
  L("runtime.fast_step_p50_ns", percentile(StepNs[Fast], 50));
  L("runtime.fast_step_p99_ns", percentile(StepNs[Fast], 99));
  L("runtime.cache.lookups", Lookups);
  L("runtime.cache.hit_pct", Pct(M.get("cache.hits"), Lookups));
  L("runtime.cache.entries_created", M.get("cache.entries_created"));
  L("runtime.cache.probe_mean",
    Lookups == 0 ? 0.0 : M.get("cache.probe_total") / Lookups);
  L("runtime.cache.probe_max", M.get("cache.probe_max"));
  L("runtime.cache.key_bytes",
    Keys == 0 ? 0.0 : M.get("cache.key_pool_bytes") / Keys);
  L("runtime.cache.placeholder_words", M.get("placeholder_words"));
  L("runtime.cache.clears", M.get("cache.clears"));
  L("runtime.cache.evict_s", Secs(EvictNs));
  L("runtime.cache.peak_mb", M.get("cache.peak_bytes") / MB);
  L("runtime.cache.key_pool_mb", M.get("cache.key_pool_bytes") / MB);
  L("jit.compiled_actions", M.get("jit.compiled_actions"));
  L("jit.compiled_blocks", M.get("jit.compiled_blocks"));
  L("jit.compiled_traces", M.get("jit.compiled_traces"));
  L("jit.exec_step_pct",
    Pct(M.get("jit.jit_exec_steps"), static_cast<double>(St.Steps)));
  L("jit.trace_step_pct",
    Pct(M.get("jit.trace_steps"), static_cast<double>(St.Steps)));
  L("jit.bailouts", M.get("jit.bailouts"));
  L("jit.code_kb",
    (M.get("jit.code_bytes") + M.get("jit.trace_code_bytes")) / 1024.0);
  L("uarch.bp_calls",
    static_cast<double>(X.Calls[BpPredict] + X.Calls[BpTrain]));
  L("uarch.icache_calls", static_cast<double>(X.Calls[ICache]));
  L("uarch.dcache_calls", static_cast<double>(X.Calls[DCache]));
  L("uarch.extern_s", Secs(X.TotalNs));
  L("uarch.extern_ns_per_call",
    ExtCalls == 0 ? 0.0
                  : static_cast<double>(X.TotalNs) /
                        static_cast<double>(ExtCalls));
  L("snapshot.load_s", LoadS);
  L("snapshot.mb", M.get("snapshot.bytes_read") / MB);
  L("snapshot.entries_loaded", M.get("snapshot.cache_entries_loaded"));
  L("trace.run_s", Secs(EndNs - FirstStepNs));
  L("trace.coverage_pct",
    Pct(static_cast<double>(SetupNs + StepSelfNs + X.TotalNs), WallNs));
  W.endObject();
  W.field("spans", static_cast<uint64_t>(Spans.size()));

  std::string TraceId = A.Spec + "-" + std::to_string(A.Seed) + "-" +
                        std::to_string(::getpid()) + "-" +
                        std::to_string(MainNs);
  writeSpans(A.Spans, TraceId, MainNs, EndNs, Setup, Spans);
  emit(W);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t MainNs = nowNs();
  Args A = parseArgs(Argc, Argv);
  if (A.Mode == "golden")
    return runGolden(A);
  if (A.Mode == "snapshot")
    return runSnapshot(A);
  if (A.Mode == "timed")
    return runTimed(A, MainNs);
  return runTraced(A, MainNs);
}
