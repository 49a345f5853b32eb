//===- bench/table2_vs_sasml.cpp - Reproduces Table 2 ---------------------===//
//
// "Times and space for CEAL versus SaSML": the common benchmark set,
// comparing the CEAL runtime against the SaSML comparator (see
// Runtime::Config::SimulateSaSml for the substitution rationale). The paper
// reports CEAL 5-27x faster from scratch, 3-16x faster in change
// propagation, and up to 5x smaller with plentiful memory; this harness
// reproduces that uniform constant-factor gap (the super-linear collapse
// under memory pressure is fig14_heaplimit).
//
//===----------------------------------------------------------------------===//

#include "AppBench.h"

#include <cstdio>
#include <vector>

using namespace ceal;
using namespace ceal::bench;

int main(int argc, char **argv) {
  BenchArgs Args(argc, argv);
  size_t NBig = Args.scaled(50000);   // Paper: 1M.
  size_t NSmall = Args.scaled(10000); // Paper: 100K.

  struct Row {
    Measurement Ceal, Sasml;
  };
  std::vector<Row> Rows;
  Runtime::Config Plain;
  Runtime::Config Sim;
  Sim.SimulateSaSml = true;

  for (const AppSpec &App :
       {listApp(ListKind::Filter, NBig), listApp(ListKind::Map, NBig),
        listApp(ListKind::Reverse, NBig), listApp(ListKind::Minimum, NBig),
        listApp(ListKind::Sum, NBig), listApp(ListKind::Quicksort, NSmall),
        geometryApp(GeoKind::Quickhull, NSmall),
        geometryApp(GeoKind::Diameter, NSmall)})
    Rows.push_back({measureRow(App, Args.Samples, Plain),
                    measureRow(App, Args.Samples, Sim)});

  std::printf("Table 2: CEAL versus SaSML (simulated comparator; see "
              "DESIGN.md sec. 3)\n\n");
  std::printf("%-10s %8s | %9s %9s %6s | %10s %10s %6s | %8s %8s %6s\n",
              "App", "n", "FS CEAL", "FS SaSML", "ratio", "Prop CEAL",
              "Prop SaSML", "ratio", "Sp CEAL", "Sp SaSML", "ratio");
  std::printf("%.*s\n", 112,
              "------------------------------------------------------------"
              "------------------------------------------------------------");
  for (const Row &R : Rows) {
    const Measurement &C = R.Ceal;
    const Measurement &S = R.Sasml;
    std::printf(
        "%-10s %8s | %9.4f %9.4f %6.1f | %10.3e %10.3e %6.1f | %8s %8s "
        "%6.1f\n",
        C.Name.c_str(), fmtCount(C.N).c_str(), C.SelfSeconds, S.SelfSeconds,
        S.SelfSeconds / C.SelfSeconds, C.AvgUpdateSeconds,
        S.AvgUpdateSeconds, S.AvgUpdateSeconds / C.AvgUpdateSeconds,
        fmtBytes(C.MaxLiveBytes).c_str(), fmtBytes(S.MaxLiveBytes).c_str(),
        double(S.MaxLiveBytes) / double(C.MaxLiveBytes));
  }
  return 0;
}
