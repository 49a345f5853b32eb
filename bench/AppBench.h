//===- bench/AppBench.h - The Table 1 measurement driver -------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one measurement driver of the table/figure harnesses. measureRow
/// measures one row of the paper's Table 1 by its methodology (Sec. 8.1):
///
///  * a conventional from-scratch run (the "Cnv." column),
///  * a self-adjusting from-scratch run (the "Self." column; their ratio
///    is the overhead),
///  * a test mutator that edits the input, propagates, undoes the edit,
///    and propagates again; the average time per propagate is the "Ave.
///    Update" column and conventional-time / update-time is the speedup,
///  * the maximum live bytes of the self-adjusting runtime,
///
/// plus the trace's checkpoint size and mmap warm-start time. Each
/// application supplies only what is specific to it (an AppSpec: build
/// the input from an Rng, run the core, run the conventional baseline,
/// count the edit sites, apply and undo one edit); every row runs the
/// same reps in the same order. writeRowsJson prints the rows of both
/// BENCH_rt.json and BENCH_table1.json.
///
/// Deviation from the paper: the test mutator samples uniformly random
/// edit sites (default a few hundred) instead of cycling through all n
/// elements — the estimator matches the full sweep in expectation, and
/// full cycles would take hours at the larger sizes on one core.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_BENCH_APPBENCH_H
#define CEAL_BENCH_APPBENCH_H

#include "apps/ExpTrees.h"
#include "apps/Geometry.h"
#include "apps/ListApps.h"
#include "apps/ListConv.h"
#include "apps/TreeContraction.h"
#include "runtime/Snapshot.h"
#include "support/Timer.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

namespace ceal {
namespace bench {

struct Measurement {
  std::string Name;
  size_t N = 0;
  double ConvSeconds = 0;
  double SelfSeconds = 0;
  double AvgUpdateSeconds = 0;
  /// The trace arena's high-water mark. The arena holds the trace nodes
  /// with their timestamps, the order-list groups, closures, blocks and
  /// the memo bucket arrays, so this is the whole footprint.
  size_t MaxLiveBytes = 0;
  /// Captured when Config::EnableProfile is set: BuildProf covers the
  /// from-scratch run (construction counters, run_core time), Prof the
  /// update loop (the profile is reset in between, so the two phases are
  /// cleanly separated).
  bool HasProfile = false;
  PropagationProfile BuildProf;
  PropagationProfile Prof;
  /// Minor page faults the process took during the kept from-scratch run:
  /// one per page of fresh memory the run touched.
  long MinorFaults = 0;
  /// Per-kind live-byte accounting, captured after the update loop (the
  /// trace is back to its steady-state shape by then).
  MemoryStats Mem;
  /// Trace-persistence accounting: the checkpoint's on-disk size and the
  /// min-of-reps wall time of an mmap warm-start (Snapshot::mmapWarmStart
  /// into a fresh runtime, including the mandatory load-time trace
  /// validation). Zero when the driver could not checkpoint (e.g. the
  /// temp file could not be created).
  double WarmStartSeconds = 0;
  size_t SnapshotBytes = 0;

  /// From-scratch overhead over the conventional baseline — the paper's
  /// Table 1 "Ovr." column (3-10x there; tracked in BENCH_*.json).
  double overhead() const { return SelfSeconds / ConvSeconds; }
  double speedup() const { return ConvSeconds / AvgUpdateSeconds; }
  /// How much a warm start beats re-running the self-adjusting
  /// construction — the payoff of persisting the trace.
  double warmSpeedup() const {
    return WarmStartSeconds > 0 ? SelfSeconds / WarmStartSeconds : 0;
  }
};

/// The process's minor page faults so far (getrusage).
inline long minorFaults() {
  struct rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  return U.ru_minflt;
}

inline std::vector<Word> randomWords(Rng &R, size_t N) {
  std::vector<Word> V(N);
  for (Word &W : V)
    W = R.below(1u << 30);
  return V;
}

/// Owns the bench's snapshot temp file and unlinks it on destruction, so
/// the file cannot leak on any exit path — early gate returns, load
/// failures, or an exception thrown from a later bench step (save, the
/// runtime destructor, or a warm-start load).
struct ScopedBenchFile {
  std::string Path;
  ScopedBenchFile() {
    char Buf[] = "/tmp/ceal-bench-snap-XXXXXX";
    int Fd = ::mkstemp(Buf);
    if (Fd < 0)
      return;
    ::close(Fd);
    Path = Buf;
  }
  ~ScopedBenchFile() {
    if (!Path.empty())
      ::unlink(Path.c_str());
  }
  ScopedBenchFile(const ScopedBenchFile &) = delete;
  ScopedBenchFile &operator=(const ScopedBenchFile &) = delete;
  bool ok() const { return !Path.empty(); }
};

/// Checkpoints \p RT, destroys it (snapshots are same-base, so the saved
/// regions must be unmapped before a loader can claim them), and times
/// Snapshot::mmapWarmStart into fresh runtimes, min over \p Reps. Runs
/// last in measureRow, after every timing and memory capture, so the
/// extra churn cannot perturb them. Fills M.SnapshotBytes and
/// M.WarmStartSeconds; leaves both zero on any save/load failure rather
/// than failing the bench.
inline void measureWarmStart(std::unique_ptr<Runtime> RT, Measurement &M,
                             const Runtime::Config &Cfg, int Reps = 3) {
  if (!RT->readyForCheckpoint())
    return;
  ScopedBenchFile Snap;
  if (!Snap.ok())
    return;
  Snapshot::SaveResult SR = Snapshot::save(*RT, Snap.Path);
  if (!SR.ok())
    return;
  RT.reset();
  double Best = 1e99;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Runtime Fresh(Cfg);
    Timer T;
    Snapshot::LoadResult LR = Snapshot::mmapWarmStart(Fresh, Snap.Path);
    double Sec = T.seconds();
    if (!LR.ok()) {
      std::fprintf(stderr, "warm-start (%s): %s: %s\n", M.Name.c_str(),
                   Snapshot::statusName(LR.St), LR.Diagnostic.c_str());
      return;
    }
    Best = std::min(Best, Sec);
  }
  M.SnapshotBytes = size_t(SR.FileBytes);
  M.WarmStartSeconds = Best;
}

//===----------------------------------------------------------------------===//
// Element functions (the paper's choices, Sec. 8.2)
//===----------------------------------------------------------------------===//

inline Word paperMapFn(Word X, Word) { return X / 3 + X / 7 + X / 9; }
inline bool paperFilterFn(Word X, Word) {
  return (paperMapFn(X, 0) & 1) == 0;
}
inline Word combineMinW(Word A, Word B, Word) { return A < B ? A : B; }
inline Word combineSumW(Word A, Word B, Word) { return A + B; }
inline int cmpWordKeys(Word A, Word B) {
  return A < B ? -1 : (A > B ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// The applications
//===----------------------------------------------------------------------===//

/// One application's input, laid out in the runtime it was built in: the
/// part of a Table 1 row that is specific to the app.
class AppRun {
public:
  explicit AppRun(Runtime &RT) : RT(RT) {}
  virtual ~AppRun() = default;
  AppRun(const AppRun &) = delete;
  AppRun &operator=(const AppRun &) = delete;

  /// The self-adjusting core, from scratch.
  virtual void run() = 0;
  /// One timed conventional run over the same input, in seconds.
  virtual double convSeconds() = 0;
  /// The number of positions the test mutator picks its edits from.
  virtual size_t editSites() const = 0;
  /// Edits the input at \p Site; undo() reverts that edit.
  virtual void edit(size_t Site) = 0;
  virtual void undo(size_t Site) = 0;

protected:
  Runtime &RT;
};

/// A Table 1 row's application: its name and size, the seed of its input,
/// the Runtime::reserveTrace hint (rough traced reads + writes +
/// allocations; being off in either direction is harmless), and a builder
/// that draws the input from an Rng and lays it out in a runtime. The
/// test mutator draws its edit sites from the same Rng afterwards.
struct AppSpec {
  std::string Name;
  size_t N = 0;
  uint64_t Seed = 0;
  size_t TraceOps = 0;
  std::function<std::unique_ptr<AppRun>(Runtime &, Rng &)> Build;
};

enum class ListKind { Filter, Map, Reverse, Minimum, Sum, Quicksort,
                      Mergesort };

inline const char *listKindName(ListKind K) {
  switch (K) {
  case ListKind::Filter:    return "filter";
  case ListKind::Map:       return "map";
  case ListKind::Reverse:   return "reverse";
  case ListKind::Minimum:   return "minimum";
  case ListKind::Sum:       return "sum";
  case ListKind::Quicksort: return "quicksort";
  case ListKind::Mergesort: return "mergesort";
  }
  return "?";
}

/// A list primitive over random words; an edit deletes one cell.
class ListRun final : public AppRun {
  ListKind K;
  std::vector<Word> In;
  apps::ListHandle L;
  Modref *Dst;

public:
  ListRun(Runtime &RT, Rng &R, ListKind K, size_t N)
      : AppRun(RT), K(K), In(randomWords(R, N)), L(apps::buildList(RT, In)),
        Dst(RT.modref()) {}

  void run() override {
    using namespace apps;
    switch (K) {
    case ListKind::Filter:
      RT.runCore<&filterCore>(L.Head, Dst, &paperFilterFn, Word(0));
      break;
    case ListKind::Map:
      RT.runCore<&mapCore>(L.Head, Dst, &paperMapFn, Word(0));
      break;
    case ListKind::Reverse:
      RT.runCore<&reverseCore>(L.Head, Dst);
      break;
    case ListKind::Minimum:
      RT.runCore<&reduceCore>(L.Head, Dst, &combineMinW, Word(0), ~Word(0));
      break;
    case ListKind::Sum:
      RT.runCore<&reduceCore>(L.Head, Dst, &combineSumW, Word(0), Word(0));
      break;
    case ListKind::Quicksort:
      RT.runCore<&quicksortCore>(L.Head, Dst, &cmpWordKeys);
      break;
    case ListKind::Mergesort:
      RT.runCore<&mergesortCore>(L.Head, Dst, &cmpWordKeys);
      break;
    }
  }

  double convSeconds() override {
    using namespace apps;
    Arena A;
    conv::PCell *CL = conv::buildList(A, In);
    Timer T;
    switch (K) {
    case ListKind::Filter:
      conv::filterList(A, CL, &paperFilterFn, 0);
      break;
    case ListKind::Map:
      conv::mapList(A, CL, &paperMapFn, 0);
      break;
    case ListKind::Reverse:
      conv::reverseList(A, CL);
      break;
    case ListKind::Minimum:
      // The paper derives the conventional version from the same CEAL
      // code (modrefs -> words), so the baseline runs the same
      // contraction-rounds algorithm.
      conv::reduceRoundsList(A, CL, &combineMinW, 0, ~Word(0));
      break;
    case ListKind::Sum:
      conv::reduceRoundsList(A, CL, &combineSumW, 0, 0);
      break;
    case ListKind::Quicksort:
      conv::quicksortList(A, CL, &cmpWordKeys);
      break;
    case ListKind::Mergesort:
      conv::mergesortList(A, CL, &cmpWordKeys);
      break;
    }
    return T.seconds();
  }

  size_t editSites() const override { return In.size(); }
  void edit(size_t Site) override { apps::detachCell(RT, L, Site); }
  void undo(size_t Site) override { apps::reattachCell(RT, L, Site); }
};

inline AppSpec listApp(ListKind K, size_t N, uint64_t Seed = 42) {
  size_t Ops = 4 * N;
  if (K == ListKind::Minimum || K == ListKind::Sum) {
    // Contraction rounds: ~3x the list length summed over rounds, times
    // reads+writes+allocs per element.
    Ops = 16 * N;
  } else if (K == ListKind::Quicksort || K == ListKind::Mergesort) {
    size_t Log2 = 1;
    for (size_t X = N; X >>= 1;)
      ++Log2;
    Ops = 6 * N * Log2;
  }
  return {listKindName(K), N, Seed, Ops, [K, N](Runtime &RT, Rng &R) {
            return std::make_unique<ListRun>(RT, R, K, N);
          }};
}

enum class GeoKind { Quickhull, Diameter, Distance };

/// A geometry app over random points (distance: two point sets, the
/// second shifted right); an edit deletes one point of the first set.
class GeoRun final : public AppRun {
  GeoKind K;
  std::vector<apps::Point *> A, B;
  apps::ListHandle LA, LB;
  Modref *Dst;

public:
  GeoRun(Runtime &RT, Rng &R, GeoKind K, size_t N)
      : AppRun(RT), K(K),
        A(apps::randomPoints(RT, R, K == GeoKind::Distance ? N / 2 : N)),
        B(K == GeoKind::Distance ? apps::randomPoints(RT, R, N - N / 2, 2.5)
                                 : std::vector<apps::Point *>()),
        LA(apps::buildPointList(RT, A)),
        LB(K == GeoKind::Distance ? apps::buildPointList(RT, B)
                                  : apps::ListHandle()),
        Dst(RT.modref()) {}

  void run() override {
    using namespace apps;
    switch (K) {
    case GeoKind::Quickhull:
      RT.runCore<&quickhullCore>(LA.Head, Dst);
      break;
    case GeoKind::Diameter:
      RT.runCore<&diameterCore>(LA.Head, Dst);
      break;
    case GeoKind::Distance:
      RT.runCore<&distanceCore>(LA.Head, LB.Head, Dst);
      break;
    }
  }

  double convSeconds() override {
    using namespace apps;
    std::vector<const Point *> CA(A.begin(), A.end());
    std::vector<const Point *> CB(B.begin(), B.end());
    Timer T;
    switch (K) {
    case GeoKind::Quickhull:
      conv::quickhull(CA);
      break;
    case GeoKind::Diameter:
      conv::diameter2(CA);
      break;
    case GeoKind::Distance:
      conv::distance2(CA, CB);
      break;
    }
    return T.seconds();
  }

  size_t editSites() const override { return LA.Cells.size(); }
  void edit(size_t Site) override { apps::detachCell(RT, LA, Site); }
  void undo(size_t Site) override { apps::reattachCell(RT, LA, Site); }
};

inline AppSpec geometryApp(GeoKind K, size_t N, uint64_t Seed = 43) {
  const char *Name = K == GeoKind::Quickhull  ? "quickhull"
                     : K == GeoKind::Diameter ? "diameter"
                                              : "distance";
  return {Name, N, Seed, 8 * N, [K, N](Runtime &RT, Rng &R) {
            return std::make_unique<GeoRun>(RT, R, K, N);
          }};
}

/// Expression-tree evaluation; an edit replaces a leaf by a fresh leaf
/// one larger, and its undo by a fresh leaf with the old value, mirroring
/// delete + reinsert.
class ExpTreesRun final : public AppRun {
  apps::ExpTree T;
  Modref *Res;
  double Saved = 0;

public:
  ExpTreesRun(Runtime &RT, Rng &R, size_t NumLeaves)
      : AppRun(RT), T(apps::buildExpTree(RT, R, NumLeaves)),
        Res(RT.modref()) {}

  void run() override { RT.runCore<&apps::evalExpCore>(T.Root, Res); }
  double convSeconds() override {
    Timer Tm;
    apps::evalExpConventional(RT, T.Root);
    return Tm.seconds();
  }
  size_t editSites() const override { return T.Leaves.size(); }
  void edit(size_t Site) override {
    Saved = T.Leaves[Site]->Num;
    apps::replaceLeaf(RT, T, Site, Saved + 1.0);
  }
  void undo(size_t Site) override { apps::replaceLeaf(RT, T, Site, Saved); }
};

inline AppSpec expTreesApp(size_t NumLeaves, uint64_t Seed = 44) {
  return {"exptrees", NumLeaves, Seed, 8 * NumLeaves,
          [NumLeaves](Runtime &RT, Rng &R) {
            return std::make_unique<ExpTreesRun>(RT, R, NumLeaves);
          }};
}

/// Tree contraction over a random binary tree; an edit deletes one edge.
class TreeContractionRun final : public AppRun {
  apps::TcForest F;
  Modref *Dst;
  std::vector<std::pair<Word, Word>> Edges;

public:
  TreeContractionRun(Runtime &RT, Rng &R, size_t N)
      : AppRun(RT), F(apps::buildRandomTree(RT, R, N)), Dst(RT.modref()),
        Edges(F.edges()) {}

  void run() override {
    RT.runCore<&apps::treeContractCore>(F.Live.Head, F.Table0, Word(F.N),
                                        Dst);
  }
  double convSeconds() override {
    Timer T;
    apps::tcContractConventional(F.Adj);
    return T.seconds();
  }
  size_t editSites() const override { return Edges.size(); }
  void edit(size_t Site) override {
    apps::tcDeleteEdge(RT, F, Edges[Site].first, Edges[Site].second);
  }
  void undo(size_t Site) override {
    apps::tcInsertEdge(RT, F, Edges[Site].first, Edges[Site].second);
  }
};

inline AppSpec treeContractionApp(size_t N, uint64_t Seed = 45) {
  return {"rctree-opt", N, Seed, 16 * N, [N](Runtime &RT, Rng &R) {
            return std::make_unique<TreeContractionRun>(RT, R, N);
          }};
}

//===----------------------------------------------------------------------===//
// The driver
//===----------------------------------------------------------------------===//

/// The test mutator: \p Samples random edit sites (at most as many as the
/// app has), each edited and undone, with a propagation after each half.
/// Returns the average seconds per propagation, or a negative value if
/// the runtime exhausted its heap limit.
inline double timeUpdates(Runtime &RT, AppRun &App, Rng &R, size_t Samples) {
  Samples = std::min(Samples, App.editSites());
  Timer T;
  for (size_t S = 0; S < Samples; ++S) {
    size_t Site = R.below(App.editSites());
    App.edit(Site);
    RT.propagate();
    App.undo(Site);
    RT.propagate();
    if (RT.outOfMemory())
      return -1.0;
  }
  return T.seconds() / double(2 * Samples);
}

/// Measures one Table 1 row of \p App under \p Cfg.
inline Measurement measureRow(const AppSpec &App, size_t UpdateSamples,
                              const Runtime::Config &Cfg = Runtime::Config()) {
  constexpr int Reps = 3;
  Measurement M;
  M.Name = App.Name;
  M.N = App.N;

  // A construction is one-shot per runtime, so time it the way the
  // conventional side is timed — min over reps — and record the
  // machine's floor rather than one draw from its noise (single draws
  // of these 40-300ms runs swing +-20% on a busy box). The throwaway
  // reps run *before* the kept runtime exists: their memory churn would
  // otherwise evict the kept trace between construction and the update
  // loop and inflate the update times with cold-cache misses.
  double SelfBest = 1e99;
  for (int Rep = 1; Rep < Reps; ++Rep) {
    Runtime RepRT(Cfg);
    RepRT.reserveTrace(App.TraceOps);
    Rng RepR(App.Seed);
    std::unique_ptr<AppRun> Run = App.Build(RepRT, RepR);
    Timer T;
    Run->run();
    SelfBest = std::min(SelfBest, T.seconds());
  }

  // Heap-allocated so measureWarmStart can destroy the kept runtime
  // before timing loads against its checkpoint.
  auto RTH = std::make_unique<Runtime>(Cfg);
  Runtime &RT = *RTH;
  RT.reserveTrace(App.TraceOps);
  Rng R(App.Seed);
  std::unique_ptr<AppRun> Run = App.Build(RT, R);
  M.ConvSeconds = 1e99;
  for (int Rep = 0; Rep < Reps; ++Rep)
    M.ConvSeconds = std::min(M.ConvSeconds, Run->convSeconds());
  {
    long FaultsBefore = minorFaults();
    Timer T;
    Run->run();
    M.SelfSeconds = std::min(T.seconds(), SelfBest);
    M.MinorFaults = minorFaults() - FaultsBefore;
  }

  if (Cfg.EnableProfile) {
    M.HasProfile = true;
    M.BuildProf = RT.profile(); // The from-scratch construction phases.
    RT.resetProfile();          // Scope the second profile to the updates.
  }
  M.AvgUpdateSeconds = timeUpdates(RT, *Run, R, UpdateSamples);
  M.MaxLiveBytes = RT.maxLiveBytes();
  M.Mem = RT.memoryStats();
  if (Cfg.EnableProfile)
    M.Prof = RT.profile();
  Run.reset();
  measureWarmStart(std::move(RTH), M, Cfg);
  return M;
}

//===----------------------------------------------------------------------===//
// Output helpers
//===----------------------------------------------------------------------===//

/// Writes `"Key": [rows]` (no trailing comma or newline), the row format
/// of both BENCH_rt.json and BENCH_table1.json. A profiled row also
/// carries the kept run's minor page faults and its two profiles.
inline void writeRowsJson(std::ostream &Out, const char *Key,
                          const std::vector<Measurement> &Rows) {
  Out << "  \"" << Key << "\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Measurement &M = Rows[I];
    Out << "    {\"name\": \"" << M.Name << "\", \"n\": " << M.N
        << ", \"conv_seconds\": " << M.ConvSeconds
        << ", \"self_seconds\": " << M.SelfSeconds
        << ", \"fromscratch_overhead\": " << M.overhead()
        << ", \"avg_update_seconds\": " << M.AvgUpdateSeconds
        << ", \"speedup\": " << M.speedup()
        << ", \"max_live_bytes\": " << M.MaxLiveBytes
        << ",\n     \"warm_start_seconds\": " << M.WarmStartSeconds
        << ", \"snapshot_bytes\": " << M.SnapshotBytes
        << ", \"warm_speedup\": " << M.warmSpeedup()
        << ",\n     \"memory\": ";
    M.Mem.writeJson(Out);
    if (M.HasProfile) {
      Out << ",\n     \"minor_faults\": " << M.MinorFaults
          << ", \"construction_profile\": ";
      M.BuildProf.writeJson(Out);
      Out << ",\n     \"propagation_profile\": ";
      M.Prof.writeJson(Out);
    }
    Out << "}" << (I + 1 < Rows.size() ? ",\n" : "\n");
  }
  Out << "  ]";
}

inline std::string fmtCount(size_t N) {
  char Buf[32];
  if (N >= 1000000 && N % 100000 == 0)
    std::snprintf(Buf, sizeof(Buf), "%.1fM", double(N) / 1e6);
  else if (N >= 1000 && N % 100 == 0)
    std::snprintf(Buf, sizeof(Buf), "%.1fK", double(N) / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%zu", N);
  return Buf;
}

inline std::string fmtBytes(size_t B) {
  char Buf[32];
  if (B >= (size_t(1) << 30))
    std::snprintf(Buf, sizeof(Buf), "%.1fG", double(B) / double(1 << 30));
  else if (B >= (1 << 20))
    std::snprintf(Buf, sizeof(Buf), "%.1fM", double(B) / double(1 << 20));
  else
    std::snprintf(Buf, sizeof(Buf), "%.1fK", double(B) / double(1 << 10));
  return Buf;
}

/// Multiplies a default input size by \p Scale, never below 16.
inline size_t scaledSize(size_t Base, double Scale) {
  return std::max<size_t>(16, size_t(double(Base) * Scale));
}

/// Parses `--scale=F` (multiplies default sizes), `--samples=K`, and
/// `--profile` (run with the propagation profiler enabled and emit its
/// phase breakdown alongside the timings).
struct BenchArgs {
  double Scale = 1.0;
  size_t Samples = 200;
  bool Profile = false;

  BenchArgs(int Argc, char **Argv) {
    for (int I = 1; I < Argc; ++I) {
      std::string A = Argv[I];
      if (A.rfind("--scale=", 0) == 0)
        Scale = std::stod(A.substr(8));
      else if (A.rfind("--samples=", 0) == 0)
        Samples = std::stoul(A.substr(10));
      else if (A == "--profile")
        Profile = true;
      else
        std::fprintf(stderr, "unknown argument: %s\n", A.c_str());
    }
  }

  size_t scaled(size_t Base) const { return scaledSize(Base, Scale); }
};

} // namespace bench
} // namespace ceal

#endif // CEAL_BENCH_APPBENCH_H
