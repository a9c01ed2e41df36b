//===- ArgParse.h - Declarative command-line flag parsing -------*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small declarative argument parser shared by every tool and benchmark
/// main. Each main registers its flags once — name, destination, value
/// type, help text — and gets consistent behaviour for free: `--help`
/// output generated from the registrations, typed value validation with
/// range checks, and a uniform unknown-flag diagnostic that exits 2.
///
/// The flag grammar is the one the tools always used: long options only,
/// values attached with '=' (`--instrs=1000`), bare boolean switches
/// (`--json`). Spellings registered here are exactly the spellings the
/// parser accepts, so porting a main is behaviour-preserving by
/// construction.
///
/// parse() returns ArgParse::KeepGoing when the program should proceed,
/// or a process exit status (0 after printing `--help`, 2 on any usage
/// error). Mains call:
///
///   support::ArgParse P("facilesim");
///   P.u64("instrs", Instrs, "<n>", "total retired-instruction target");
///   ...
///   if (int Rc = P.parse(Argc, Argv); Rc != support::ArgParse::KeepGoing)
///     return Rc;
///
//===----------------------------------------------------------------------===//

#ifndef FACILE_SUPPORT_ARGPARSE_H
#define FACILE_SUPPORT_ARGPARSE_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace facile {
namespace support {

class ArgParse {
public:
  /// Sentinel returned by parse() when no terminal flag was hit and the
  /// program should continue; any other return is a process exit status.
  static constexpr int KeepGoing = -1;

  /// \p Tool prefixes diagnostics ("facilesim: error: ...") and the
  /// usage banner. \p Summary is an optional one-line description printed
  /// under the banner.
  explicit ArgParse(std::string Tool, std::string Summary = "");

  /// Free-form text appended after the flag table in --help (exit-status
  /// legends, examples).
  void epilog(std::string Text);

  // Registration. \p Name is the spelling without the leading "--" or the
  // '=': u64("instrs", ...) accepts `--instrs=123`. \p Meta is the value
  // placeholder shown in help ("<n>", "on|off"). Help text may contain
  // newlines; continuation lines are aligned under the first.

  /// `--name=<string>`; empty values are accepted.
  void str(const char *Name, std::string &Out, const char *Meta,
           const char *Help);

  /// `--name=<decimal>`, range-checked against [Min, Max]. The value is
  /// decimal digits only (facile::parseDecimal).
  void u64(const char *Name, uint64_t &Out, const char *Meta,
           const char *Help, uint64_t Min = 0, uint64_t Max = UINT64_MAX);

  /// `--name=<float>`.
  void f64(const char *Name, double &Out, const char *Meta, const char *Help);

  /// Bare `--name`, sets \p Out true.
  void flag(const char *Name, bool &Out, const char *Help);

  /// `--name=on|off`.
  void onOff(const char *Name, bool &Out, const char *Help);

  /// `--name=<one of Choices>`; rejects anything else naming the choices.
  void choice(const char *Name, std::string &Out,
              std::vector<std::string> Choices, const char *Help);

  /// `--name=<value>` routed through \p Parse; on false the callback's
  /// \p Err is printed and parse() fails. For specs with their own parser
  /// (fault-inject) or side effects (endpoint bookkeeping).
  void custom(const char *Name, const char *Meta, const char *Help,
              std::function<bool(const std::string &V, std::string &Err)>
                  Parse);

  /// `--name` or `--name=<n>`: \p Present records that the flag appeared,
  /// \p Out keeps its default unless a value was attached.
  void optU64(const char *Name, bool &Present, uint64_t &Out,
              const char *Meta, const char *Help, uint64_t Min = 0);

  /// Accept non-flag arguments: the first one stops flag scanning and it
  /// plus everything after land in \p Out verbatim (the client's
  /// `<command> [args]` tail). Without this, positionals are usage errors.
  void positionals(std::vector<std::string> &Out, const char *Meta,
                   const char *Help);

  /// Parses \p Argv. Prints diagnostics/usage itself. Returns KeepGoing,
  /// 0 (after --help) or 2 (usage error).
  int parse(int Argc, char **Argv);

  /// True when \p Name was present in the last parse() call.
  bool seen(const char *Name) const;

  /// Writes the generated usage text (the --help output) to \p To.
  void printUsage(std::FILE *To) const;

private:
  struct Opt {
    std::string Name;          ///< spelling without "--"
    std::string Meta;          ///< value placeholder for help ("" = bare)
    std::string Help;
    bool TakesValue = false;   ///< requires "=value"
    bool ValueOptional = false;///< value may be omitted (optU64)
    bool Seen = false;
    std::function<bool(const std::string &V, std::string &Err)> Apply;
  };

  Opt *find(const std::string &Name);
  int fail(const char *Fmt, ...);

  std::string Tool;
  std::string Summary;
  std::string Epilog;
  std::vector<Opt> Opts;
  std::vector<std::string> *Pos = nullptr;
  std::string PosMeta, PosHelp;
};

} // namespace support
} // namespace facile

#endif // FACILE_SUPPORT_ARGPARSE_H
