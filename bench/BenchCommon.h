//===- BenchCommon.h - Shared helpers for the benchmark harnesses -*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Utilities shared by the table/figure harnesses in bench/: wall-clock
/// timing, harmonic means (the paper reports harmonic-mean speedups), a
/// --scale flag so the full suite can be shortened or lengthened, and
/// JsonSink — the one place machine-readable result lines are emitted
/// (`--json` to stdout, `--out=<file>` straight to a BENCH_*.json file).
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_BENCH_BENCHCOMMON_H
#define FACILE_BENCH_BENCHCOMMON_H

#include "src/support/ArgParse.h"
#include "src/support/Json.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace facile {
namespace bench {

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times \p Fn, returning elapsed wall-clock seconds.
template <typename Fn> double timeIt(Fn &&Fn2) {
  double T0 = nowSeconds();
  Fn2();
  return nowSeconds() - T0;
}

inline double harmonicMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Denominator = 0.0;
  for (double V : Values)
    Denominator += 1.0 / V;
  return static_cast<double>(Values.size()) / Denominator;
}

inline uint64_t scaled(uint64_t Budget, double Scale) {
  double V = static_cast<double>(Budget) * Scale;
  return V < 1000 ? 1000 : static_cast<uint64_t>(V);
}

/// The flags every benchmark harness shares, parsed with support::ArgParse
/// so benches get --help and unknown-flag rejection like the tools do.
/// A harness with extra flags registers them on parser() before parse():
///
///   BenchArgs Args("bench_fig12_facile");
///   Args.parser().choice("jit", JitMode, {"on", "off", "auto"}, "...");
///   if (int Rc = Args.parse(Argc, Argv); Rc != support::ArgParse::KeepGoing)
///     return Rc;
class BenchArgs {
public:
  /// --scale multiplies every instruction budget (0.1 smoke-runs a table,
  /// 10 approaches paper-length runs). --json / --out feed JsonSink.
  explicit BenchArgs(const char *Tool) : P(Tool) {
    P.f64("scale", Scale, "<f>",
          "scale instruction budgets (default 1.0)");
    P.flag("json", Json, "print machine-readable JSON result lines");
    P.str("out", Out, "<file>",
          "write JSON result lines to a file (implies --json)");
  }
  support::ArgParse &parser() { return P; }
  /// ArgParse::KeepGoing to continue, else the process exit status.
  int parse(int Argc, char **Argv) { return P.parse(Argc, Argv); }

  double Scale = 1.0;
  bool Json = false;
  std::string Out;

private:
  support::ArgParse P;
};

/// Destination for the machine-readable result lines every harness can
/// emit alongside its human-readable table: `--json` prints each line to
/// stdout prefixed "JSON " (the historical format, grep-friendly in CI
/// logs); `--out=<file>` implies --json but writes the raw lines to
/// \p file instead (one JSON object per line).
///
/// Each line is built with json::Writer: call begin(), fill the returned
/// writer (field/rawField/objectField...), then commit(). When neither
/// flag is present commit() drops the line, so harness code calls the
/// pair unconditionally.
class JsonSink {
public:
  explicit JsonSink(const BenchArgs &Args)
      : Path(Args.Out), Enabled(!Path.empty() || Args.Json) {}

  ~JsonSink() {
    if (Path.empty())
      return;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
      return;
    }
    for (const std::string &L : Lines)
      std::fprintf(F, "%s\n", L.c_str());
    std::fclose(F);
    std::printf("wrote %zu JSON lines to %s\n", Lines.size(), Path.c_str());
  }

  bool enabled() const { return Enabled; }

  /// Starts a result line: resets the scratch writer and opens the
  /// top-level object.
  json::Writer &begin() {
    W.clear();
    return W.beginObject();
  }

  /// Closes the object opened by begin() and emits the line (or discards
  /// it when the sink is disabled).
  void commit() {
    W.endObject();
    if (Enabled) {
      if (Path.empty())
        std::printf("JSON %s\n", W.str().c_str());
      else
        Lines.push_back(W.take());
    }
    W.clear();
  }

private:
  std::string Path;
  bool Enabled;
  std::vector<std::string> Lines;
  json::Writer W;
};

/// Prints the standard harness banner.
inline void banner(const char *Id, const char *Paper, const char *Ours) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n  paper:    %s\n  measured: %s\n", Id, Paper, Ours);
  std::printf("==============================================================="
              "=================\n");
}

} // namespace bench
} // namespace facile

#endif // FACILE_BENCH_BENCHCOMMON_H
