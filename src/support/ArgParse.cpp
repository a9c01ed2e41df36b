//===- ArgParse.cpp - Declarative command-line flag parsing ----------------===//

#include "src/support/ArgParse.h"

#include "src/support/StringUtils.h"

#include <cstdarg>
#include <cstdlib>
#include <cstring>

using namespace facile;
using namespace facile::support;

ArgParse::ArgParse(std::string Tool, std::string Summary)
    : Tool(std::move(Tool)), Summary(std::move(Summary)) {}

void ArgParse::epilog(std::string Text) { Epilog = std::move(Text); }

ArgParse::Opt *ArgParse::find(const std::string &Name) {
  for (Opt &O : Opts)
    if (O.Name == Name)
      return &O;
  return nullptr;
}

void ArgParse::str(const char *Name, std::string &Out, const char *Meta,
                   const char *Help) {
  custom(Name, Meta, Help, [&Out](const std::string &V, std::string &) {
    Out = V;
    return true;
  });
}

void ArgParse::u64(const char *Name, uint64_t &Out, const char *Meta,
                   const char *Help, uint64_t Min, uint64_t Max) {
  std::string N = Name;
  custom(Name, Meta, Help,
         [&Out, N, Min, Max](const std::string &V, std::string &Err) {
           uint64_t Parsed = 0;
           if (!parseDecimal(V, Parsed)) {
             Err = "--" + N + " takes a decimal number, not '" + V + "'";
             return false;
           }
           if (Parsed < Min) {
             Err = "--" + N + " must be at least " + std::to_string(Min);
             return false;
           }
           if (Parsed > Max) {
             Err = "--" + N + " must be at most " + std::to_string(Max);
             return false;
           }
           Out = Parsed;
           return true;
         });
}

void ArgParse::f64(const char *Name, double &Out, const char *Meta,
                   const char *Help) {
  std::string N = Name;
  custom(Name, Meta, Help,
         [&Out, N](const std::string &V, std::string &Err) {
           char *End = nullptr;
           double Parsed = std::strtod(V.c_str(), &End);
           if (V.empty() || End != V.c_str() + V.size()) {
             Err = "--" + N + " takes a number, not '" + V + "'";
             return false;
           }
           Out = Parsed;
           return true;
         });
}

void ArgParse::flag(const char *Name, bool &Out, const char *Help) {
  Opt O;
  O.Name = Name;
  O.Help = Help;
  O.Apply = [&Out](const std::string &, std::string &) {
    Out = true;
    return true;
  };
  Opts.push_back(std::move(O));
}

void ArgParse::onOff(const char *Name, bool &Out, const char *Help) {
  std::string N = Name;
  custom(Name, "on|off", Help,
         [&Out, N](const std::string &V, std::string &Err) {
           if (V == "on")
             Out = true;
           else if (V == "off")
             Out = false;
           else {
             Err = "--" + N + " takes on or off, not '" + V + "'";
             return false;
           }
           return true;
         });
}

void ArgParse::choice(const char *Name, std::string &Out,
                      std::vector<std::string> Choices, const char *Help) {
  std::string N = Name;
  std::string Meta;
  for (const std::string &C : Choices)
    Meta += (Meta.empty() ? "" : "|") + C;
  custom(Name, Meta.c_str(), Help,
         [&Out, N, Choices, Meta](const std::string &V, std::string &Err) {
           for (const std::string &C : Choices)
             if (V == C) {
               Out = V;
               return true;
             }
           Err = "--" + N + " takes " + Meta + ", not '" + V + "'";
           return false;
         });
}

void ArgParse::custom(
    const char *Name, const char *Meta, const char *Help,
    std::function<bool(const std::string &V, std::string &Err)> Parse) {
  Opt O;
  O.Name = Name;
  O.Meta = Meta;
  O.Help = Help;
  O.TakesValue = true;
  O.Apply = std::move(Parse);
  Opts.push_back(std::move(O));
}

void ArgParse::optU64(const char *Name, bool &Present, uint64_t &Out,
                      const char *Meta, const char *Help, uint64_t Min) {
  std::string N = Name;
  Opt O;
  O.Name = Name;
  O.Meta = std::string("[=") + Meta + "]";
  O.Help = Help;
  O.TakesValue = true;
  O.ValueOptional = true;
  O.Apply = [&Present, &Out, N, Min](const std::string &V, std::string &Err) {
    Present = true;
    if (V.empty())
      return true; // bare form: keep the default
    uint64_t Parsed = 0;
    if (!parseDecimal(V, Parsed)) {
      Err = "--" + N + " takes a decimal number, not '" + V + "'";
      return false;
    }
    if (Parsed < Min) {
      Err = "--" + N + " must be at least " + std::to_string(Min);
      return false;
    }
    Out = Parsed;
    return true;
  };
  Opts.push_back(std::move(O));
}

void ArgParse::positionals(std::vector<std::string> &Out, const char *Meta,
                           const char *Help) {
  Pos = &Out;
  PosMeta = Meta;
  PosHelp = Help;
}

bool ArgParse::seen(const char *Name) const {
  for (const Opt &O : Opts)
    if (O.Name == Name)
      return O.Seen;
  return false;
}

int ArgParse::fail(const char *Fmt, ...) {
  std::fprintf(stderr, "%s: error: ", Tool.c_str());
  va_list Ap;
  va_start(Ap, Fmt);
  std::vfprintf(stderr, Fmt, Ap);
  va_end(Ap);
  std::fprintf(stderr, "\n");
  printUsage(stderr);
  return 2;
}

int ArgParse::parse(int Argc, char **Argv) {
  for (Opt &O : Opts)
    O.Seen = false;
  if (Pos)
    Pos->clear();

  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      // First positional ends flag scanning: the rest is the command tail.
      if (!Pos)
        return fail("unexpected argument '%s'", Arg.c_str());
      for (; I < Argc; ++I)
        Pos->push_back(Argv[I]);
      break;
    }
    if (Arg == "--help" || Arg == "-h") {
      printUsage(stdout);
      return 0;
    }

    const size_t Eq = Arg.find('=');
    const std::string Name =
        Arg.substr(2, Eq == std::string::npos ? std::string::npos : Eq - 2);
    Opt *O = find(Name);
    if (!O)
      return fail("unknown option '%s'", Arg.c_str());
    if (Eq == std::string::npos && O->TakesValue && !O->ValueOptional)
      return fail("option --%s requires a value (--%s=%s)", Name.c_str(),
                  Name.c_str(), O->Meta.c_str());
    if (Eq != std::string::npos && !O->TakesValue)
      return fail("option --%s does not take a value", Name.c_str());

    const std::string Value =
        Eq == std::string::npos ? std::string() : Arg.substr(Eq + 1);
    std::string Err;
    if (!O->Apply(Value, Err))
      return fail("%s", Err.c_str());
    O->Seen = true;
  }
  return KeepGoing;
}

void ArgParse::printUsage(std::FILE *To) const {
  std::fprintf(To, "usage: %s [options]%s%s\n", Tool.c_str(),
               Pos ? " " : "", Pos ? PosMeta.c_str() : "");
  if (!Summary.empty())
    std::fprintf(To, "%s\n", Summary.c_str());
  // Two-column layout: flag spelling, then help; continuation lines in
  // multi-line help strings align under the first help column.
  constexpr size_t HelpCol = 34;
  for (const Opt &O : Opts) {
    std::string Left = "  --" + O.Name;
    if (O.TakesValue && !O.ValueOptional)
      Left += "=" + O.Meta;
    else if (O.ValueOptional)
      Left += O.Meta;
    if (Left.size() + 2 > HelpCol) {
      std::fprintf(To, "%s\n%*s", Left.c_str(), (int)HelpCol, "");
    } else {
      Left.resize(HelpCol, ' ');
      std::fprintf(To, "%s", Left.c_str());
    }
    for (const char *P = O.Help.c_str(); *P; ++P) {
      std::fputc(*P, To);
      if (*P == '\n')
        std::fprintf(To, "%*s", (int)HelpCol, "");
    }
    std::fputc('\n', To);
  }
  if (Pos && !PosHelp.empty())
    std::fprintf(To, "%s\n", PosHelp.c_str());
  if (!Epilog.empty())
    std::fprintf(To, "%s", Epilog.c_str());
}
