//===- facilec.cpp - The Facile compiler driver -------------------------------===//
//
// Command-line front end for the Facile compiler and runtime:
//
//   facilec check  sim.fac                 diagnose only
//   facilec ir     sim.fac                 dump the lowered, BTA-annotated IR
//   facilec actions sim.fac                dump the action table
//   facilec cfast  sim.fac                 emit the fast simulator as C
//   facilec cslow  sim.fac                 emit the slow simulator as C
//   facilec run    sim.fac prog.s [N]      assemble prog.s, run N steps
//   facilec stats  sim.fac                 binding-time statistics
//
// Multiple .fac inputs are concatenated (so `facilec run src/sims/isa.fac
// src/sims/functional.fac prog.s` runs the shipped functional simulator).
//
//===----------------------------------------------------------------------===//

#include "src/facile/CEmitter.h"
#include "src/facile/Compiler.h"
#include "src/isa/Assembler.h"
#include "src/isa/Isa.h"
#include "src/runtime/Simulation.h"
#include "src/support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace facile;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: facilec <check|ir|actions|cfast|cslow|stats> <sim.fac>...\n"
      "       facilec run <sim.fac>... <prog.s> [max-steps]\n"
      "options:\n"
      "  --dump-ir=<before|after>  print the IR before or after the\n"
      "                            optimization passes (to stdout)\n"
      "  --pass-stats              print per-pass optimization statistics\n"
      "  --no-passes               disable the optimization pipeline\n");
  return 2;
}

bool readFile(const std::string &Path, std::string *Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    std::fprintf(stderr, "facilec: error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  char Buffer[4096];
  size_t N;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), File)) != 0)
    Out->append(Buffer, N);
  std::fclose(File);
  return true;
}

bool endsWith(const std::string &S, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return S.size() >= N && S.compare(S.size() - N, N, Suffix) == 0;
}

void printActions(const CompiledProgram &P) {
  std::printf("%u actions over %zu blocks (%u dynamic / %u rt-static "
              "instructions)\n",
              P.Actions.numActions(), P.Step.Blocks.size(),
              P.Bta.DynamicInsts, P.Bta.StaticInsts);
  for (uint32_t A = 0; A != P.Actions.numActions(); ++A) {
    uint32_t B = P.Actions.ActionToBlock[A];
    const ActionBlockInfo &AI = P.Actions.Blocks[B];
    const char *Kind = AI.EndsWithRet    ? "end-of-step"
                       : AI.EndsWithTest ? "result-test"
                                         : "plain";
    std::printf("  action %3u: block b%u, %zu dynamic instruction(s), %s\n",
                A, B, AI.DynInsts.size(), Kind);
  }
}

int runProgram(const CompiledProgram &P, const std::string &AsmPath,
               uint64_t MaxSteps) {
  std::string Source;
  if (!readFile(AsmPath, &Source))
    return 1;
  std::string Error;
  std::optional<isa::TargetImage> Image = isa::assemble(Source, &Error);
  if (!Image) {
    std::fprintf(stderr, "facilec: %s: %s\n", AsmPath.c_str(),
                 Error.c_str());
    return 1;
  }

  rt::Simulation Sim(P, *Image);
  if (P.findGlobal("PC"))
    Sim.setGlobal("PC", Image->Entry);
  if (const ir::GlobalVar *R = P.findGlobal("R"); R && R->IsArray)
    Sim.setGlobalElem("R", isa::StackReg, isa::DefaultStackTop);
  uint64_t Steps = Sim.run(MaxSteps).Steps;

  const rt::Simulation::Stats &S = Sim.stats();
  std::printf("steps:            %llu (%s)\n",
              static_cast<unsigned long long>(Steps),
              Sim.halted() ? "halted" : "budget exhausted");
  std::printf("retired:          %llu\n",
              static_cast<unsigned long long>(S.RetiredTotal));
  std::printf("cycles:           %llu\n",
              static_cast<unsigned long long>(S.Cycles));
  std::printf("fast-forwarded:   %.3f%%\n", S.fastForwardedPct());
  std::printf("action cache:     %zu entries, %zu bytes, %llu misses\n",
              Sim.cache().entryCount(), Sim.cache().bytes(),
              static_cast<unsigned long long>(S.Misses));
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  std::string Mode = Argv[1];

  // Gather .fac inputs; for `run`, the first non-.fac path is the program.
  std::string FacSource;
  std::string AsmPath;
  uint64_t MaxSteps = 10'000'000;
  std::string DumpIr; // "", "before" or "after"
  bool PassStats = false;
  CompileOptions Opts;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--dump-ir=before" || Arg == "--dump-ir=after") {
      DumpIr = Arg.substr(std::strlen("--dump-ir="));
      Opts.CaptureIrBeforePasses = DumpIr == "before";
    } else if (Arg == "--pass-stats") {
      PassStats = true;
    } else if (Arg == "--no-passes") {
      Opts.RunPasses = false;
    } else if (endsWith(Arg, ".fac")) {
      if (!readFile(Arg, &FacSource))
        return 1;
      FacSource += "\n";
    } else if (AsmPath.empty() && Mode == "run") {
      AsmPath = Arg;
    } else if (Mode == "run") {
      if (!parseDecimal(Arg, MaxSteps)) {
        std::fprintf(stderr,
                     "facilec: error: max-steps must be a decimal count, "
                     "got '%s'\n",
                     Arg.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "facilec: unexpected argument '%s'\n",
                   Arg.c_str());
      return usage();
    }
  }
  if (FacSource.empty())
    return usage();

  DiagnosticEngine Diag;
  std::optional<CompiledProgram> P = compileFacile(FacSource, Diag, Opts);
  // Warnings (and errors) go to stderr in either case.
  if (!Diag.diagnostics().empty())
    std::fprintf(stderr, "%s", Diag.str().c_str());
  if (!P)
    return 1;

  if (DumpIr == "before")
    std::printf("%s", P->IrBeforePasses.c_str());
  else if (DumpIr == "after")
    std::printf("%s", ir::printStepFunction(P->Step).c_str());
  if (PassStats) {
    const PassPipelineStats &PS = P->Passes;
    std::printf("pass pipeline (%u round%s):\n", PS.Rounds,
                PS.Rounds == 1 ? "" : "s");
    std::printf("  instructions:      %u -> %u\n", PS.InstsBefore,
                PS.InstsAfter);
    std::printf("  blocks:            %u -> %u\n", PS.BlocksBefore,
                PS.BlocksAfter);
    std::printf("  folded:            %u (+%u branches)\n", PS.Folded,
                PS.BranchesFolded);
    std::printf("  copies propagated: %u\n", PS.CopiesPropagated);
    std::printf("  dead removed:      %u\n", PS.DeadRemoved);
    std::printf("  jumps threaded:    %u\n", PS.JumpsThreaded);
    std::printf("  blocks merged:     %u\n", PS.BlocksMerged);
    std::printf("  blocks removed:    %u\n", PS.BlocksRemoved);
  }

  if (Mode == "check") {
    std::printf("ok\n");
    return 0;
  }
  if (Mode == "ir") {
    std::printf("%s", ir::printStepFunction(P->Step).c_str());
    return 0;
  }
  if (Mode == "actions") {
    printActions(*P);
    return 0;
  }
  if (Mode == "cfast") {
    std::printf("%s", emitFastSimulatorC(*P).c_str());
    return 0;
  }
  if (Mode == "cslow") {
    std::printf("%s", emitSlowSimulatorC(*P).c_str());
    return 0;
  }
  if (Mode == "stats") {
    std::printf("rt-static instructions: %u\n", P->Bta.StaticInsts);
    std::printf("dynamic instructions:   %u\n", P->Bta.DynamicInsts);
    std::printf("sync (flush) ops:       %u\n", P->Bta.SyncInsts);
    std::printf("split edges:            %u\n", P->Bta.SplitEdges);
    std::printf("array restarts:         %u\n", P->Bta.ArrayRestarts);
    std::printf("actions:                %u\n", P->Actions.numActions());
    std::printf("globals:                %zu (%zu init)\n",
                P->Globals.size(), P->InitGlobals.size());
    std::printf("externs:                %zu\n", P->Externs.size());
    return 0;
  }
  if (Mode == "run") {
    if (AsmPath.empty())
      return usage();
    return runProgram(*P, AsmPath, MaxSteps);
  }
  return usage();
}
