//===- bench/table1_summary.cpp - Reproduces Table 1 ----------------------===//
//
// "Summary of measurements with CEAL": for every benchmark, the
// conventional and self-adjusting from-scratch times, the overhead, the
// average update time under the delete/reinsert test mutator, the
// speedup, and the maximum live space. Every row comes from AppBench.h's
// one driver (measureRow), so all rows share one methodology, and
// BENCH_table1.json mirrors the table in the row format of
// BENCH_rt.json.
//
// The paper runs the simple list benchmarks at n = 10M and the complex
// ones at 1M on a 2 GHz Xeon with 32 GB; the defaults here are scaled to
// a single-core container (run with --scale=10 or more on a bigger
// machine; shapes — overheads in the 3-20x band, speedups of orders of
// magnitude growing with n — are size-stable).
//
//===----------------------------------------------------------------------===//

#include "AppBench.h"

#include <cstdio>
#include <fstream>
#include <vector>

using namespace ceal;
using namespace ceal::bench;

int main(int argc, char **argv) {
  BenchArgs Args(argc, argv);

  // Paper sizes: 10M for the simple list primitives and exptrees, 1M for
  // the rest. We keep the same 10:1 ratio at container-friendly sizes.
  size_t NBig = Args.scaled(100000);
  size_t NSmall = Args.scaled(10000);

  std::printf("Table 1: summary of measurements with CEAL\n");
  std::printf("(paper: Xeon 2GHz, n=10M/1M; here: scaled by --scale, "
              "updates sampled at %zu positions)\n\n",
              Args.Samples);

  // With --profile the propagation profiler runs during the update loops
  // and each JSON row carries its phase breakdown (expect a few percent
  // of timer overhead on the update column; leave it off for numbers
  // meant to be compared against unprofiled runs).
  Runtime::Config Cfg;
  Cfg.EnableProfile = Args.Profile;

  std::vector<Measurement> Rows;
  for (const AppSpec &App :
       {listApp(ListKind::Filter, NBig), listApp(ListKind::Map, NBig),
        listApp(ListKind::Reverse, NBig), listApp(ListKind::Minimum, NBig),
        listApp(ListKind::Sum, NBig), listApp(ListKind::Quicksort, NSmall),
        geometryApp(GeoKind::Quickhull, NSmall),
        geometryApp(GeoKind::Diameter, NSmall), expTreesApp(NBig),
        listApp(ListKind::Mergesort, NSmall),
        geometryApp(GeoKind::Distance, NSmall), treeContractionApp(NSmall)})
    Rows.push_back(measureRow(App, Args.Samples, Cfg));

  std::printf("%-12s %8s | %9s %9s %6s | %11s %9s | %9s | %9s %8s\n",
              "Application", "n", "Cnv.(s)", "Self.(s)", "O.H.", "Ave.Update",
              "Speedup", "Max Live", "Warm(s)", "Snap");
  std::printf("%.*s\n", 117,
              "-----------------------------------------------------------"
              "-----------------------------------------------------------");
  double OhSum = 0, SpSum = 0;
  for (const Measurement &M : Rows) {
    std::printf("%-12s %8s | %9.4f %9.4f %6.1f | %11.3e %9.2e | %9s | "
                "%9.5f %8s\n",
                M.Name.c_str(), fmtCount(M.N).c_str(), M.ConvSeconds,
                M.SelfSeconds, M.overhead(), M.AvgUpdateSeconds, M.speedup(),
                fmtBytes(M.MaxLiveBytes).c_str(), M.WarmStartSeconds,
                fmtBytes(M.SnapshotBytes).c_str());
    OhSum += M.overhead();
    SpSum += M.speedup();
  }
  std::printf("\naverage overhead: %.1f   average speedup: %.2e\n",
              OhSum / double(Rows.size()), SpSum / double(Rows.size()));

  // Machine-readable mirror of the table for CI tracking.
  std::ofstream Json("BENCH_table1.json");
  Json << "{\n";
  writeRowsJson(Json, "rows", Rows);
  Json << ",\n  \"average_overhead\": " << OhSum / double(Rows.size())
       << ",\n  \"average_speedup\": " << SpSum / double(Rows.size())
       << "\n}\n";
  std::printf("wrote BENCH_table1.json\n");
  return 0;
}
