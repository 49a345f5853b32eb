//===- bench/rt_microbench.cpp - Runtime primitive microbenchmarks --------===//
//
// google-benchmark microbenchmarks for the primitives whose constant
// factors determine the paper's overhead column: order-maintenance
// insertion, closure creation, traced reads/writes, memo lookups, and
// small change-propagation cycles.
//
// Before the timing loops run, main() writes BENCH_rt.json with four
// sections CI tracks PR over PR:
//
//  * "closure_env" — a deterministic closure-environment census over the
//    CL samples (the VM's per-closure word counts with and without the
//    analysis-driven pass pipeline), the trace-size win of closure
//    slimming without timing noise;
//  * "update_bench" — average update times and from-scratch overheads
//    (self_seconds / conv_seconds, the paper's Table 1 "Ovr." column) for
//    the headline applications through the shared AppBench harness
//    (--app-scale=F / --app-samples=K shrink it for smoke runs), plus
//    trace-persistence accounting per app: the checkpoint size
//    (snapshot_bytes) and the mmap warm-start time (warm_start_seconds;
//    scripts/check_warmstart.py gates warm_speedup on quickhull);
//  * "profiles" — per app (map, plus quicksort, whose update speedup is
//    an outlier needing a phase breakdown on record), a
//    "construction_profile" of the from-scratch run (run_core time, OM /
//    arena / memo / dispatch counters, deferred memo-build time) and a
//    "propagation_profile" of the update loop (re-execute / revoke /
//    memo-lookup / queue time, interval-size and use-scan histograms);
//
//===----------------------------------------------------------------------===//

#include "AppBench.h"
#include "apps/ListApps.h"
#include "cl/Parser.h"
#include "cl/Samples.h"
#include "interp/Vm.h"
#include "normalize/Normalize.h"
#include "normalize/Optimize.h"
#include "om/OrderList.h"
#include "runtime/Runtime.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <cstddef>
#include <fstream>

using namespace ceal;
using namespace ceal::apps;

namespace {

void BM_OrderListAppend(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    OrderList L;
    Handle<OmNode> Cur = L.base();
    State.ResumeTiming();
    for (int I = 0; I < 1000; ++I)
      Cur = L.insertAfter(Cur);
    benchmark::DoNotOptimize(Cur);
  }
  State.SetItemsProcessed(State.iterations() * 1000);
}
BENCHMARK(BM_OrderListAppend);

void BM_OrderListFrontInsert(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    OrderList L;
    State.ResumeTiming();
    for (int I = 0; I < 1000; ++I)
      benchmark::DoNotOptimize(L.insertAfter(L.base()));
  }
  State.SetItemsProcessed(State.iterations() * 1000);
}
BENCHMARK(BM_OrderListFrontInsert);

void BM_OrderListCompare(benchmark::State &State) {
  OrderList L;
  Rng R(5);
  std::vector<Handle<OmNode>> Nodes{L.base()};
  for (int I = 0; I < 10000; ++I)
    Nodes.push_back(L.insertAfter(Nodes[R.below(Nodes.size())]));
  size_t I = 0;
  for (auto _ : State) {
    Handle<OmNode> A = Nodes[(I * 7919) % Nodes.size()];
    Handle<OmNode> B = Nodes[(I * 104729) % Nodes.size()];
    benchmark::DoNotOptimize(L.precedes(A, B));
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

void BM_PropagateSingleEdit(benchmark::State &State) {
  std::vector<Word> In(10000);
  Rng R(10);
  for (Word &W : In)
    W = R.below(1000);
  Runtime RT;
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
BENCHMARK(BM_PropagateSingleEdit);

/// The same edit loop with the trace sanitizer auditing after every
/// propagation. Not a performance target — it quantifies what
/// AuditLevel::EveryPropagation costs (the audit walks the whole trace,
/// so expect orders of magnitude) and keeps the audited path exercised
/// from the bench binary. Compare against BM_PropagateSingleEdit to see
/// the audit-off delta, which must stay at noise level.
void BM_PropagateSingleEditAudited(benchmark::State &State) {
  std::vector<Word> In(size_t(State.range(0)));
  Rng R(10);
  for (Word &W : In)
    W = R.below(1000);
  Runtime::Config Cfg;
  Cfg.Audit = AuditLevel::EveryPropagation;
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
// Closure-environment census (BENCH_rt.json)
//===----------------------------------------------------------------------===//

struct ClosureCensusRow {
  const char *Program;
  const char *Entry;
  size_t N;
  uint64_t ClosuresBase = 0, EnvWordsBase = 0;
  uint64_t ClosuresOpt = 0, EnvWordsOpt = 0;
  size_t StaticEnvBase = 0, StaticEnvOpt = 0;
};

/// Runs \p Entry over a deterministic modifiable list of \p N elements
/// and returns the VM's closure accounting.
void censusListRun(const cl::Program &Prog, const char *Entry, size_t N,
                   uint64_t &Closures, uint64_t &EnvWords) {
  Runtime RT;
  interp::Vm M(RT, Prog);
  Modref *Head = M.metaModref();
  Modref *Cur = Head;
  for (size_t I = 0; I < N; ++I) {
    auto *Blk = static_cast<Word *>(M.metaAlloc(16));
    Modref *Tail = M.metaModref();
    Blk[0] = toWord(int64_t((I * 7919) % 1000));
    Blk[1] = toWord(Tail);
    M.metaWrite(Cur, toWord(Blk));
    Cur = Tail;
  }
  Modref *Out = M.metaModref();
  M.runCore(Entry, {toWord(Head), toWord(Out)});
  Closures = M.closuresMade();
  EnvWords = M.closureEnvWords();
}

ClosureCensusRow censusRow(const char *Program, const char *Source,
                           const char *Entry, size_t N) {
  ClosureCensusRow Row{Program, Entry, N};
  auto Parsed = cl::parseProgram(Source);
  cl::Program Base = normalize::normalizeProgram(*Parsed.Prog).Prog;
  optimize::PipelineResult PR = optimize::runPassPipeline(*Parsed.Prog);
  Row.StaticEnvBase = optimize::readTailEnvWords(Base);
  Row.StaticEnvOpt = PR.Post.ReadEnvWordsAfter;
  censusListRun(Base, Entry, N, Row.ClosuresBase, Row.EnvWordsBase);
  censusListRun(PR.Prog, Entry, N, Row.ClosuresOpt, Row.EnvWordsOpt);
  return Row;
}

void writeClosureCensus(std::ostream &Out) {
  constexpr size_t N = 256;
  std::vector<ClosureCensusRow> Rows = {
      censusRow("listprims", cl::samples::ListPrims, "map", N),
      censusRow("listreduce", cl::samples::ListReduce, "lrsum", N),
      censusRow("mergesort", cl::samples::Mergesort, "msort", N),
  };
  Out << "  \"closure_env\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const ClosureCensusRow &R = Rows[I];
    double PerBase =
        R.ClosuresBase ? double(R.EnvWordsBase) / double(R.ClosuresBase) : 0;
    double PerOpt =
        R.ClosuresOpt ? double(R.EnvWordsOpt) / double(R.ClosuresOpt) : 0;
    Out << "    {\"program\": \"" << R.Program << "\", \"entry\": \""
        << R.Entry << "\", \"n\": " << R.N
        << ",\n     \"closures_base\": " << R.ClosuresBase
        << ", \"env_words_base\": " << R.EnvWordsBase
        << ", \"env_words_per_closure_base\": " << PerBase
        << ",\n     \"closures_opt\": " << R.ClosuresOpt
        << ", \"env_words_opt\": " << R.EnvWordsOpt
        << ", \"env_words_per_closure_opt\": " << PerOpt
        << ",\n     \"static_read_env_words_base\": " << R.StaticEnvBase
        << ", \"static_read_env_words_opt\": " << R.StaticEnvOpt << "}"
        << (I + 1 < Rows.size() ? ",\n" : "\n");
  }
  Out << "  ]";
}

//===----------------------------------------------------------------------===//
// Application update times and phase profiles (BENCH_rt.json)
//===----------------------------------------------------------------------===//

void writeUpdateBench(std::ostream &Out, double Scale, size_t Samples) {
  using namespace bench;
  auto Scaled = [&](size_t Base) {
    return std::max<size_t>(16, size_t(double(Base) * Scale));
  };
  std::vector<Measurement> Rows;
  Rows.push_back(benchList(ListKind::Filter, Scaled(100000), Samples));
  Rows.push_back(benchList(ListKind::Map, Scaled(100000), Samples));
  Rows.push_back(benchList(ListKind::Minimum, Scaled(100000), Samples));
  Rows.push_back(benchList(ListKind::Quicksort, Scaled(10000), Samples));
  Rows.push_back(benchExpTrees(Scaled(100000), Samples));
  Rows.push_back(benchGeometry(GeoKind::Quickhull, Scaled(20000), Samples));
  Rows.push_back(benchTreeContraction(Scaled(20000), Samples));

  Out << "  \"update_bench\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Measurement &M = Rows[I];
    Out << "    {\"name\": \"" << M.Name << "\", \"n\": " << M.N
        << ", \"conv_seconds\": " << M.ConvSeconds
        << ", \"self_seconds\": " << M.SelfSeconds
        << ", \"avg_update_seconds\": " << M.AvgUpdateSeconds
        << ", \"speedup\": " << M.speedup()
        << ", \"fromscratch_overhead\": " << M.overhead()
        << ", \"max_live_bytes\": " << M.MaxLiveBytes
        << ",\n     \"om_bytes\": " << M.Mem.OmBytes
        << ", \"memo_index_bytes\": " << M.Mem.MemoIndexBytes
        << ", \"total_live_bytes\": " << M.totalLiveBytes()
        << ",\n     \"warm_start_seconds\": " << M.WarmStartSeconds
        << ", \"snapshot_bytes\": " << M.SnapshotBytes
        << ", \"warm_speedup\": " << M.warmSpeedup() << "}"
        << (I + 1 < Rows.size() ? ",\n" : "\n");
  }
  Out << "  ],\n";

  // Per-kind live-byte accounting for the same runs: where every live
  // arena byte went (nodes, closures, user blocks, meta), plus OM and
  // memo-index footprints and arena occupancy. CI's check_max_live.py
  // gates on update_bench's max_live_bytes and total_live_bytes; this
  // section explains any movement in them.
  Out << "  \"memory\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Measurement &M = Rows[I];
    Out << "    {\"name\": \"" << M.Name << "\", \"n\": " << M.N
        << ", \"stats\": ";
    M.Mem.writeJson(Out);
    Out << "}" << (I + 1 < Rows.size() ? ",\n" : "\n");
  }
  Out << "  ],\n";

  // Profiled runs for the phase breakdowns. Kept out of the rows above so
  // their timings stay comparable against unprofiled baselines. Map is
  // the representative list app; quicksort's update speedup is an order
  // of magnitude below the others', so its breakdown stays on record.
  Runtime::Config PCfg;
  PCfg.EnableProfile = true;
  std::vector<Measurement> Profiled;
  Profiled.push_back(benchList(ListKind::Map, Scaled(100000), Samples, PCfg));
  Profiled.push_back(
      benchList(ListKind::Quicksort, Scaled(10000), Samples, PCfg));
  Out << "  \"profiles\": [\n";
  for (size_t I = 0; I < Profiled.size(); ++I) {
    const Measurement &P = Profiled[I];
    Out << "    {\"name\": \"" << P.Name << "\", \"n\": " << P.N
        << ",\n     \"construction_profile\": ";
    P.BuildProf.writeJson(Out);
    Out << ",\n     \"propagation_profile\": ";
    P.Prof.writeJson(Out);
    Out << "}" << (I + 1 < Profiled.size() ? ",\n" : "\n");
  }
  Out << "  ]";
}

void writeBenchJson(const char *Path, double Scale, size_t Samples) {
  std::ofstream Out(Path);
  Out << "{\n";
  writeClosureCensus(Out);
  Out << ",\n";
  writeUpdateBench(Out, Scale, Samples);
  Out << "\n}\n";
  std::printf("wrote closure census, update bench and phase profiles to "
              "%s\n",
              Path);
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
