//===- bench/rt_microbench.cpp - Runtime primitive microbenchmarks --------===//
//
// google-benchmark microbenchmarks for the primitives whose constant
// factors determine the paper's overhead column: order-maintenance
// insertion, closure creation, traced reads/writes, memo lookups, and
// small change-propagation cycles.
//
// Before the timing loops run, main() writes BENCH_rt.json with two
// sections CI tracks PR over PR, both in AppBench.h's row format
// (writeRowsJson, shared with BENCH_table1.json):
//
//  * "update_bench" — one measureRow row per headline application
//    (--app-scale=F / --app-samples=K shrink it for smoke runs): times,
//    from-scratch overhead (the paper's Table 1 "Ovr." column), update
//    speedup, max-live bytes, the per-kind live-byte accounting
//    ("memory"), and trace-persistence accounting — the checkpoint size
//    (snapshot_bytes) and the mmap warm-start time (warm_start_seconds;
//    scripts/check_warmstart.py gates warm_speedup on quickhull);
//  * "profiles" — the same rows for map and quicksort (whose update
//    speedup is an outlier needing a phase breakdown on record), run
//    with the profiler on: a "construction_profile" of the from-scratch
//    run (run_core time, OM / arena / memo / dispatch counters, deferred
//    memo-build time) with the minor page faults it took, and a
//    "propagation_profile" of the update loop (re-execute / revoke /
//    memo-lookup / queue time, interval-size and use-scan histograms).
//
//===----------------------------------------------------------------------===//

#include "AppBench.h"
#include "apps/ListApps.h"
#include "om/OrderList.h"
#include "runtime/Runtime.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <cstddef>
#include <fstream>

using namespace ceal;
using namespace ceal::apps;

namespace {

// The order list is intrusive: each insertion links a node the caller
// allocates from the list's arena, as Runtime::newNode does for a trace
// node, so the timed loops pay that allocation too.

void BM_OrderListAppend(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    Arena A;
    OrderList L(A);
    OmNode *Cur = L.base();
    State.ResumeTiming();
    for (int I = 0; I < 1000; ++I) {
      OmNode *N = A.create<OmNode>();
      L.insertAfter(Cur, N);
      Cur = N;
    }
    benchmark::DoNotOptimize(Cur);
  }
  State.SetItemsProcessed(State.iterations() * 1000);
}
BENCHMARK(BM_OrderListAppend);

void BM_OrderListFrontInsert(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    Arena A;
    OrderList L(A);
    State.ResumeTiming();
    for (int I = 0; I < 1000; ++I) {
      OmNode *N = A.create<OmNode>();
      L.insertAfter(L.base(), N);
      benchmark::DoNotOptimize(N);
    }
  }
  State.SetItemsProcessed(State.iterations() * 1000);
}
BENCHMARK(BM_OrderListFrontInsert);

void BM_OrderListCompare(benchmark::State &State) {
  Arena A;
  OrderList L(A);
  Rng R(5);
  std::vector<OmNode *> Nodes{L.base()};
  for (int I = 0; I < 10000; ++I) {
    OmNode *N = A.create<OmNode>();
    L.insertAfter(Nodes[R.below(Nodes.size())], N);
    Nodes.push_back(N);
  }
  size_t I = 0;
  for (auto _ : State) {
    const OmNode *X = Nodes[(I * 7919) % Nodes.size()];
    const OmNode *Y = Nodes[(I * 104729) % Nodes.size()];
    benchmark::DoNotOptimize(L.precedes(X, Y));
    ++I;
  }
}
BENCHMARK(BM_OrderListCompare);

Closure *noopBody(Runtime &, Word, Modref *) { return nullptr; }

void BM_ClosureMake(benchmark::State &State) {
  Runtime RT;
  Modref *M = RT.modref();
  for (auto _ : State) {
    Closure *C = RT.make<&noopBody>(Word(0), M);
    benchmark::DoNotOptimize(C);
    RT.arena().deallocate(C, C->byteSize());
  }
}
BENCHMARK(BM_ClosureMake);

Word identityMap(Word X, Word) { return X; }

void BM_InitialRunMapPerElement(benchmark::State &State) {
  std::vector<Word> In(size_t(State.range(0)));
  Rng R(9);
  for (Word &W : In)
    W = R.below(1000);
  for (auto _ : State) {
    Runtime RT;
    ListHandle L = buildList(RT, In);
    Modref *Dst = RT.modref();
    RT.runCore<&mapCore>(L.Head, Dst, &identityMap, Word(0));
    benchmark::DoNotOptimize(RT.deref(Dst));
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_InitialRunMapPerElement)->Arg(1000)->Arg(10000);

/// Deletes and reinserts cells of an \p N-element mapped list, one
/// propagation after each half.
void propagateEdits(benchmark::State &State, size_t N,
                    const Runtime::Config &Cfg) {
  std::vector<Word> In(N);
  Rng R(10);
  for (Word &W : In)
    W = R.below(1000);
  Runtime RT(Cfg);
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(L.Head, Dst, &identityMap, Word(0));
  size_t I = 0;
  for (auto _ : State) {
    size_t Index = (I * 37) % In.size();
    detachCell(RT, L, Index);
    RT.propagate();
    reattachCell(RT, L, Index);
    RT.propagate();
    ++I;
  }
  State.SetItemsProcessed(State.iterations() * 2);
}

void BM_PropagateSingleEdit(benchmark::State &State) {
  propagateEdits(State, 10000, Runtime::Config());
}
BENCHMARK(BM_PropagateSingleEdit);

/// The same edit loop with the trace sanitizer auditing after every
/// propagation. Not a performance target — it quantifies what
/// Config::Audit costs (the audit walks the whole trace,
/// so expect orders of magnitude) and keeps the audited path exercised
/// from the bench binary. Compare against BM_PropagateSingleEdit to see
/// the audit-off delta, which must stay at noise level.
void BM_PropagateSingleEditAudited(benchmark::State &State) {
  Runtime::Config Cfg;
  Cfg.Audit = true;
  propagateEdits(State, size_t(State.range(0)), Cfg);
}
BENCHMARK(BM_PropagateSingleEditAudited)->Arg(1000);

void BM_MetaModifyDeref(benchmark::State &State) {
  Runtime RT;
  Modref *M = RT.modref<int64_t>(1);
  int64_t V = 0;
  for (auto _ : State) {
    RT.modifyT<int64_t>(M, ++V);
    benchmark::DoNotOptimize(RT.derefT<int64_t>(M));
  }
}
BENCHMARK(BM_MetaModifyDeref);

//===----------------------------------------------------------------------===//
// Application update times and phase profiles (BENCH_rt.json)
//===----------------------------------------------------------------------===//

void writeBenchJson(const char *Path, double Scale, size_t Samples) {
  using namespace bench;
  auto Scaled = [&](size_t Base) { return scaledSize(Base, Scale); };
  std::vector<Measurement> Rows;
  for (const AppSpec &App :
       {listApp(ListKind::Filter, Scaled(100000)),
        listApp(ListKind::Map, Scaled(100000)),
        listApp(ListKind::Minimum, Scaled(100000)),
        listApp(ListKind::Quicksort, Scaled(10000)),
        expTreesApp(Scaled(100000)),
        geometryApp(GeoKind::Quickhull, Scaled(20000)),
        treeContractionApp(Scaled(20000))})
    Rows.push_back(measureRow(App, Samples));

  // Profiled runs for the phase breakdowns. Kept out of the rows above so
  // their timings stay comparable against unprofiled baselines. Map is
  // the representative list app; quicksort's update speedup is an order
  // of magnitude below the others', so its breakdown stays on record.
  Runtime::Config PCfg;
  PCfg.EnableProfile = true;
  std::vector<Measurement> Profiled;
  for (const AppSpec &App : {listApp(ListKind::Map, Scaled(100000)),
                             listApp(ListKind::Quicksort, Scaled(10000))})
    Profiled.push_back(measureRow(App, Samples, PCfg));

  std::ofstream Out(Path);
  Out << "{\n";
  writeRowsJson(Out, "update_bench", Rows);
  Out << ",\n";
  writeRowsJson(Out, "profiles", Profiled);
  Out << "\n}\n";
  std::printf("wrote update bench and phase profiles to %s\n", Path);
}

} // namespace

int main(int argc, char **argv) {
  // Harness-specific arguments must be stripped before google-benchmark
  // sees argv (it rejects flags it does not know).
  double AppScale = 1.0;
  size_t AppSamples = 200;
  int Kept = 1;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A.rfind("--app-scale=", 0) == 0)
      AppScale = std::stod(A.substr(12));
    else if (A.rfind("--app-samples=", 0) == 0)
      AppSamples = std::stoul(A.substr(14));
    else
      argv[Kept++] = argv[I];
  }
  argc = Kept;
  writeBenchJson("BENCH_rt.json", AppScale, AppSamples);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
