//===- bench/fig13_tcon.cpp - Reproduces Figure 13 ------------------------===//
//
// Tree contraction over a size sweep: (left) conventional and
// self-adjusting from-scratch times, (middle) average update time —
// growing slowly/logarithmically — and (right) the speedup, which grows
// roughly linearly with n and exceeds orders of magnitude even at
// moderate sizes.
//
//===----------------------------------------------------------------------===//

#include "AppBench.h"

#include <cstdio>

using namespace ceal;
using namespace ceal::bench;

int main(int argc, char **argv) {
  BenchArgs Args(argc, argv);
  std::printf("Figure 13: tree contraction (tcon) versus input size\n\n");
  std::printf("%10s %12s %12s %8s %14s %12s\n", "n", "Cnv.(s)", "Self.(s)",
              "O.H.", "Ave.Update(s)", "Speedup");
  std::printf("%.*s\n", 74,
              "-----------------------------------------------------------"
              "---------------");
  for (size_t Base : {1000, 2000, 4000, 8000, 16000, 32000}) {
    size_t N = Args.scaled(Base);
    Measurement M =
        measureRow(treeContractionApp(N), std::min<size_t>(Args.Samples, 100));
    std::printf("%10s %12.5f %12.5f %8.1f %14.3e %12.2e\n",
                fmtCount(N).c_str(), M.ConvSeconds, M.SelfSeconds,
                M.overhead(), M.AvgUpdateSeconds, M.speedup());
  }
  std::printf("\n(paper: overhead a constant ~8x, update time growing "
              "logarithmically,\n speedup exceeding 10^4 at moderate "
              "sizes and scaling with n)\n");
  return 0;
}
