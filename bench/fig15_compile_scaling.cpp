//===- bench/fig15_compile_scaling.cpp - Reproduces Figure 15 -------------===//
//
// cealc compilation time versus the size of the compiled output: the
// paper observes a near-linear relationship (Theorem 5 predicts
// O(m + n*ML + liveness)). Data points come from the benchmark programs
// plus synthetically scaled translation units (the list-primitive
// program replicated K times with renamed functions).
//
//===----------------------------------------------------------------------===//

#include "cl/Parser.h"
#include "cl/Samples.h"
#include "normalize/Normalize.h"
#include "support/Timer.h"
#include "translate/EmitC.h"

#include <cstdio>
#include <string>

using namespace ceal;
using namespace ceal::cl;

namespace {

/// Replicates the list-primitives unit \p K times with unique names.
std::string replicatedUnit(int K) {
  std::string Out;
  std::string Base = samples::ListPrims;
  for (int I = 0; I < K; ++I) {
    std::string Copy = Base;
    // Rename every function; their names are unique tokens.
    for (const char *Fn :
         {"lp_cellinit", "map", "filter", "reverse", "rev_go", "sum_go",
          "sum"}) {
      std::string From = Fn;
      std::string To = "u";
      To += std::to_string(I);
      To += '_';
      To += Fn;
      size_t Pos = 0;
      while ((Pos = Copy.find(From, Pos)) != std::string::npos) {
        // Token boundary check to avoid renaming inside longer names.
        bool LeftOk = Pos == 0 || !(isalnum(Copy[Pos - 1]) || Copy[Pos - 1] == '_');
        size_t End = Pos + From.size();
        bool RightOk =
            End >= Copy.size() || !(isalnum(Copy[End]) || Copy[End] == '_');
        if (LeftOk && RightOk) {
          Copy.replace(Pos, From.size(), To);
          Pos += To.size();
        } else {
          Pos += 1;
        }
      }
    }
    Out += Copy;
  }
  return Out;
}

struct PointData {
  std::string Name;
  double CompileMs;
  size_t OutBytes;
};

PointData measure(const std::string &Name, const std::string &Source) {
  double Ms = 1e99;
  size_t Bytes = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    Timer T;
    auto Parsed = parseProgram(Source);
    if (!Parsed) {
      std::fprintf(stderr, "parse error: %s\n", Parsed.Error.c_str());
      std::exit(1);
    }
    auto Norm = normalize::normalizeProgram(*Parsed.Prog);
    auto Emitted = translate::emitC(Norm.Prog, translate::Mode::Refined);
    Ms = std::min(Ms, T.milliseconds());
    Bytes = Emitted.EmittedBytes;
  }
  return {Name, Ms, Bytes};
}

} // namespace

int main() {
  std::printf("Figure 15: cealc compile time versus size of compiled "
              "output\n\n");
  std::printf("%-16s %12s %12s %14s\n", "program", "compile(ms)", "out(KB)",
              "ms per 100KB");
  std::printf("%.*s\n", 58,
              "----------------------------------------------------------");

  std::vector<PointData> Points;
  for (const auto &[Name, Source] : samples::allPrograms())
    Points.push_back(measure(Name, Source));
  for (int K : {2, 4, 8, 16, 32})
    Points.push_back(
        measure("listprims x" + std::to_string(K), replicatedUnit(K)));

  for (const PointData &P : Points)
    std::printf("%-16s %12.3f %12.1f %14.2f\n", P.Name.c_str(), P.CompileMs,
                double(P.OutBytes) / 1024.0,
                P.CompileMs / (double(P.OutBytes) / 102400.0));
  std::printf("\n(near-constant ms-per-output-byte across a ~50x size "
              "range indicates the\n near-linear scaling of the paper's "
              "Fig. 15)\n");
  return 0;
}
