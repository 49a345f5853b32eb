//===- examples/cealc.cpp - The compiler driver ---------------------------===//
//
// A command-line front end mirroring the paper's cealc: parse CL, verify,
// normalize (Sec. 5), and translate to C (Sec. 6).
//
//   cealc [options] [file.cl]         reads stdin if no file is given
//     --emit=c|c-basic|cl|cl-normal   output kind (default: c, refined)
//     --stats                         print pipeline statistics to stderr
//     --sample=NAME                   use a built-in sample program
//                                     (exptrees, listprims, quicksort,
//                                      mergesort, quickhull, testdriver)
//
//===----------------------------------------------------------------------===//

#include "cl/Parser.h"
#include "cl/Printer.h"
#include "cl/Samples.h"
#include "cl/Verifier.h"
#include "normalize/Normalize.h"
#include "support/Timer.h"
#include "translate/EmitC.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace ceal;

int main(int argc, char **argv) {
  std::string Emit = "c";
  bool Stats = false;
  std::string Sample;
  std::string Path;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A.rfind("--emit=", 0) == 0)
      Emit = A.substr(7);
    else if (A == "--stats")
      Stats = true;
    else if (A.rfind("--sample=", 0) == 0)
      Sample = A.substr(9);
    else if (A == "--help" || A == "-h") {
      std::fprintf(stderr,
                   "usage: cealc [--emit=c|c-basic|cl|cl-normal] [--stats] "
                   "[--sample=NAME | file.cl]\n");
      return 0;
    } else if (A.size() > 1 && A[0] == '-') {
      std::fprintf(stderr, "cealc: unknown option '%s'\n", A.c_str());
      return 1;
    } else
      Path = A;
  }

  std::string Source;
  if (!Sample.empty()) {
    for (const auto &[Name, Src] : cl::samples::allPrograms())
      if (Name == Sample)
        Source = Src;
    if (Source.empty()) {
      std::fprintf(stderr, "cealc: unknown sample '%s'\n", Sample.c_str());
      return 1;
    }
  } else if (!Path.empty()) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "cealc: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  } else {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Source = SS.str();
  }

  Timer Total;
  auto Parsed = cl::parseProgram(Source);
  if (!Parsed) {
    std::fprintf(stderr, "cealc: %s\n", Parsed.Error.c_str());
    return 1;
  }
  auto Diags = cl::verifyProgramDiags(*Parsed.Prog);
  if (!Diags.empty()) {
    std::fputs(cl::renderDiagnostics(*Parsed.Prog, Diags).c_str(), stderr);
    return 1;
  }
  if (Emit == "cl") {
    std::fputs(cl::printProgram(*Parsed.Prog).c_str(), stdout);
    return 0;
  }

  normalize::NormalizeResult Norm = normalize::normalizeProgram(*Parsed.Prog);
  if (Emit == "cl-normal") {
    std::fputs(cl::printProgram(Norm.Prog).c_str(), stdout);
  } else if (Emit == "c" || Emit == "c-basic") {
    auto Limits = translate::checkShimLimits(Norm.Prog);
    if (!Limits.empty()) {
      std::fputs(cl::renderDiagnostics(Norm.Prog, Limits).c_str(), stderr);
      return 1;
    }
    auto Out = translate::emitC(Norm.Prog, Emit == "c"
                                               ? translate::Mode::Refined
                                               : translate::Mode::Basic);
    std::fputs(Out.Code.c_str(), stdout);
    if (Stats)
      std::fprintf(stderr, "cealc: %zu monomorphized closure_make "
                           "instances, %zu bytes of C\n",
                   Out.MonomorphInstances, Out.EmittedBytes);
  } else {
    std::fprintf(stderr, "cealc: unknown --emit kind '%s'\n", Emit.c_str());
    return 1;
  }
  if (Stats)
    std::fprintf(
        stderr,
        "cealc: %zu blocks in, %zu blocks out, %zu fresh functions, "
        "max live %zu, %.2f ms\n",
        Norm.Stats.InputBlocks, Norm.Stats.OutputBlocks,
        Norm.Stats.FreshFunctions, Norm.Stats.MaxLive, Total.milliseconds());
  return 0;
}
