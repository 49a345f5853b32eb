//===- bench/AppBench.h - Shared measurement harness -----------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measurement drivers shared by the table/figure harnesses. Each driver
/// reproduces the paper's methodology (Sec. 8.1):
///
///  * a conventional from-scratch run (the "Cnv." column),
///  * a self-adjusting from-scratch run (the "Self." column; their ratio
///    is the overhead),
///  * a test mutator that deletes an element, propagates, reinserts it,
///    and propagates again; the average time per propagate is the "Ave.
///    Update" column and conventional-time / update-time is the speedup,
///  * the maximum live bytes of the self-adjusting runtime.
///
/// Deviation from the paper: the test mutator samples uniformly random
/// element positions (default a few hundred) instead of cycling through
/// all n elements — the estimator matches the full sweep in expectation,
/// and full cycles would take hours at the larger sizes on one core.
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
#include <memory>
#include <string>

#include <unistd.h>

namespace ceal {
namespace bench {

struct Measurement {
  std::string Name;
  size_t N = 0;
  double ConvSeconds = 0;
  double SelfSeconds = 0;
  double AvgUpdateSeconds = 0;
  size_t MaxLiveBytes = 0;
  /// Captured when Config::EnableProfile is set: BuildProf covers the
  /// from-scratch run (construction counters, run_core time), Prof the
  /// update loop (the profile is reset in between, so the two phases are
  /// cleanly separated).
  bool HasProfile = false;
  PropagationProfile BuildProf;
  PropagationProfile Prof;
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
  /// The whole footprint: trace-arena high-water mark plus the order-list
  /// arena and memo bucket arrays at the end of the update loop.
  size_t totalLiveBytes() const {
    return MaxLiveBytes + Mem.OmBytes + Mem.MemoIndexBytes;
  }
};

inline std::vector<Word> randomWords(Rng &R, size_t N) {
  std::vector<Word> V(N);
  for (Word &W : V)
    W = R.below(1u << 30);
  return V;
}

/// Checkpoints \p RT, destroys it (snapshots are same-base, so the saved
/// regions must be unmapped before a loader can claim them), and times
/// Snapshot::mmapWarmStart into fresh runtimes, min over \p Reps. Runs
/// last in each driver, after every timing and memory capture, so the
/// extra churn cannot perturb them. Fills M.SnapshotBytes and
/// M.WarmStartSeconds; leaves both zero on any save/load failure rather
/// than failing the bench.
/// Owns the bench's snapshot temp file and unlinks it on destruction, so
/// the file cannot leak on any exit path — early gate returns, load
/// failures, or an exception thrown from a later bench step (save, the
/// runtime destructor, or a warm-start load). The manual ::unlink calls
/// this replaces left the file behind on every throwing path.
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

inline void measureWarmStart(std::unique_ptr<Runtime> RT, Measurement &M,
                             const Runtime::Config &Cfg, int Reps = 3) {
  if (!Snapshot::readyToSave(*RT))
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
// List benchmarks
//===----------------------------------------------------------------------===//

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

/// Rough traced-operation counts (reads + writes + allocations) per app,
/// used as the Runtime::reserveTrace input-size hint. Measured once per
/// app; being off in either direction is harmless (tables and chunks
/// still grow on demand, extra reservation is untouched address space).
inline size_t listExpectedOps(ListKind K, size_t N) {
  size_t Log2 = 1;
  for (size_t X = N; X >>= 1;)
    ++Log2;
  switch (K) {
  case ListKind::Filter:
  case ListKind::Map:
  case ListKind::Reverse:
    return 4 * N;
  case ListKind::Minimum:
  case ListKind::Sum:
    // Contraction rounds: ~3x the list length summed over rounds, times
    // reads+writes+allocs per element.
    return 16 * N;
  case ListKind::Quicksort:
  case ListKind::Mergesort:
    return 6 * N * Log2;
  }
  return 4 * N;
}

inline double convListSeconds(ListKind K, const std::vector<Word> &In,
                              int Reps = 3) {
  using namespace apps;
  double Best = 1e99;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Arena A;
    conv::PCell *L = conv::buildList(A, In);
    Timer T;
    switch (K) {
    case ListKind::Filter:
      conv::filterList(A, L, &paperFilterFn, 0);
      break;
    case ListKind::Map:
      conv::mapList(A, L, &paperMapFn, 0);
      break;
    case ListKind::Reverse:
      conv::reverseList(A, L);
      break;
    case ListKind::Minimum:
      // The paper derives the conventional version from the same CEAL
      // code (modrefs -> words), so the baseline runs the same
      // contraction-rounds algorithm.
      conv::reduceRoundsList(A, L, &combineMinW, 0, ~Word(0));
      break;
    case ListKind::Sum:
      conv::reduceRoundsList(A, L, &combineSumW, 0, 0);
      break;
    case ListKind::Quicksort:
      conv::quicksortList(A, L, &cmpWordKeys);
      break;
    case ListKind::Mergesort:
      conv::mergesortList(A, L, &cmpWordKeys);
      break;
    }
    Best = std::min(Best, T.seconds());
  }
  return Best;
}

inline void runListCore(Runtime &RT, ListKind K, Modref *Src, Modref *Dst) {
  using namespace apps;
  switch (K) {
  case ListKind::Filter:
    RT.runCore<&filterCore>(Src, Dst, &paperFilterFn, Word(0));
    break;
  case ListKind::Map:
    RT.runCore<&mapCore>(Src, Dst, &paperMapFn, Word(0));
    break;
  case ListKind::Reverse:
    RT.runCore<&reverseCore>(Src, Dst);
    break;
  case ListKind::Minimum:
    RT.runCore<&reduceCore>(Src, Dst, &combineMinW, Word(0), ~Word(0));
    break;
  case ListKind::Sum:
    RT.runCore<&reduceCore>(Src, Dst, &combineSumW, Word(0), Word(0));
    break;
  case ListKind::Quicksort:
    RT.runCore<&quicksortCore>(Src, Dst, &cmpWordKeys);
    break;
  case ListKind::Mergesort:
    RT.runCore<&mergesortCore>(Src, Dst, &cmpWordKeys);
    break;
  }
}

inline Measurement benchList(ListKind K, size_t N, size_t UpdateSamples,
                             const Runtime::Config &Cfg = Runtime::Config(),
                             uint64_t Seed = 42) {
  using namespace apps;
  Measurement M;
  M.Name = listKindName(K);
  M.N = N;
  Rng R(Seed);
  std::vector<Word> In = randomWords(R, N);
  M.ConvSeconds = convListSeconds(K, In);

  // A construction is one-shot per runtime, so time it the way the
  // conventional side is timed — min over reps — and record the
  // machine's floor rather than one draw from its noise (single draws
  // of these 40-300ms runs swing +-20% on a busy box). The throwaway
  // reps run *before* the kept runtime: their memory churn would
  // otherwise evict the kept trace between construction and the update
  // loop and inflate the update times with cold-cache misses.
  double RepBest = 1e99;
  for (int Rep = 1; Rep < 3; ++Rep) {
    Runtime RepRT(Cfg);
    RepRT.reserveTrace(listExpectedOps(K, N));
    ListHandle RepL = buildList(RepRT, In);
    Modref *RepDst = RepRT.modref();
    Timer T;
    runListCore(RepRT, K, RepL.Head, RepDst);
    RepBest = std::min(RepBest, T.seconds());
  }

  // Heap-allocated so measureWarmStart can destroy the source runtime
  // before timing loads against its checkpoint.
  auto RTH = std::make_unique<Runtime>(Cfg);
  Runtime &RT = *RTH;
  RT.reserveTrace(listExpectedOps(K, N));
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  {
    Timer T;
    runListCore(RT, K, L.Head, Dst);
    M.SelfSeconds = std::min(T.seconds(), RepBest);
  }

  size_t Samples = std::min(UpdateSamples, N);
  if (Cfg.EnableProfile) {
    M.HasProfile = true;
    M.BuildProf = RT.profile(); // The from-scratch construction phases.
    RT.resetProfile();          // Scope the second profile to the updates.
  }
  Timer T;
  for (size_t S = 0; S < Samples; ++S) {
    size_t Index = R.below(N);
    detachCell(RT, L, Index);
    RT.propagate();
    reattachCell(RT, L, Index);
    RT.propagate();
  }
  M.AvgUpdateSeconds = T.seconds() / double(2 * Samples);
  M.MaxLiveBytes = RT.maxLiveBytes();
  M.Mem = RT.memoryStats();
  if (Cfg.EnableProfile)
    M.Prof = RT.profile();
  measureWarmStart(std::move(RTH), M, Cfg);
  return M;
}

//===----------------------------------------------------------------------===//
// Geometry benchmarks
//===----------------------------------------------------------------------===//

enum class GeoKind { Quickhull, Diameter, Distance };

inline Measurement benchGeometry(GeoKind K, size_t N, size_t UpdateSamples,
                                 const Runtime::Config &Cfg = Runtime::Config(),
                                 uint64_t Seed = 43) {
  using namespace apps;
  Measurement M;
  M.Name = K == GeoKind::Quickhull  ? "quickhull"
           : K == GeoKind::Diameter ? "diameter"
                                    : "distance";
  M.N = N;
  Rng R(Seed);

  auto RTH = std::make_unique<Runtime>(Cfg);
  Runtime &RT = *RTH;
  RT.reserveTrace(8 * N);
  std::vector<Point *> A = randomPoints(RT, R, K == GeoKind::Distance
                                                   ? N / 2
                                                   : N);
  std::vector<Point *> B =
      K == GeoKind::Distance ? randomPoints(RT, R, N - N / 2, 2.5)
                             : std::vector<Point *>();

  // Conventional runs.
  {
    std::vector<const Point *> CA(A.begin(), A.end());
    std::vector<const Point *> CB(B.begin(), B.end());
    double Best = 1e99;
    for (int Rep = 0; Rep < 3; ++Rep) {
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
      Best = std::min(Best, T.seconds());
    }
    M.ConvSeconds = Best;
  }

  auto TimeGeoCore = [K](Runtime &R, ListHandle &PA, ListHandle &PB,
                         Modref *D) {
    Timer T;
    switch (K) {
    case GeoKind::Quickhull:
      R.runCore<&quickhullCore>(PA.Head, D);
      break;
    case GeoKind::Diameter:
      R.runCore<&diameterCore>(PA.Head, D);
      break;
    case GeoKind::Distance:
      R.runCore<&distanceCore>(PA.Head, PB.Head, D);
      break;
    }
    return T.seconds();
  };
  // Min-of-reps, symmetric with the conventional timing; throwaway reps
  // run before the kept trace is built (see benchList for why).
  double RepBest = 1e99;
  for (int Rep = 1; Rep < 3; ++Rep) {
    Runtime RepRT(Cfg);
    RepRT.reserveTrace(8 * N);
    Rng RepR(Seed);
    std::vector<Point *> RepA =
        randomPoints(RepRT, RepR, K == GeoKind::Distance ? N / 2 : N);
    std::vector<Point *> RepB =
        K == GeoKind::Distance
            ? randomPoints(RepRT, RepR, N - N / 2, 2.5)
            : std::vector<Point *>();
    ListHandle RepLA = buildPointList(RepRT, RepA);
    ListHandle RepLB = K == GeoKind::Distance ? buildPointList(RepRT, RepB)
                                              : ListHandle();
    Modref *RepDst = RepRT.modref();
    RepBest = std::min(RepBest, TimeGeoCore(RepRT, RepLA, RepLB, RepDst));
  }

  ListHandle LA = buildPointList(RT, A);
  ListHandle LB = K == GeoKind::Distance ? buildPointList(RT, B)
                                         : ListHandle();
  Modref *Dst = RT.modref();
  M.SelfSeconds = std::min(TimeGeoCore(RT, LA, LB, Dst), RepBest);

  size_t Samples = std::min(UpdateSamples, LA.Cells.size());
  if (Cfg.EnableProfile) {
    M.HasProfile = true;
    M.BuildProf = RT.profile();
    RT.resetProfile();
  }
  Timer T;
  for (size_t S = 0; S < Samples; ++S) {
    size_t Index = R.below(LA.Cells.size());
    detachCell(RT, LA, Index);
    RT.propagate();
    reattachCell(RT, LA, Index);
    RT.propagate();
  }
  M.AvgUpdateSeconds = T.seconds() / double(2 * Samples);
  M.MaxLiveBytes = RT.maxLiveBytes();
  M.Mem = RT.memoryStats();
  if (Cfg.EnableProfile)
    M.Prof = RT.profile();
  measureWarmStart(std::move(RTH), M, Cfg);
  return M;
}

//===----------------------------------------------------------------------===//
// Expression trees
//===----------------------------------------------------------------------===//

inline Measurement benchExpTrees(size_t NumLeaves, size_t UpdateSamples,
                                 const Runtime::Config &Cfg = Runtime::Config(),
                                 uint64_t Seed = 44) {
  using namespace apps;
  Measurement M;
  M.Name = "exptrees";
  M.N = NumLeaves;
  Rng R(Seed);

  auto RTH = std::make_unique<Runtime>(Cfg);
  Runtime &RT = *RTH;
  RT.reserveTrace(8 * NumLeaves);
  ExpTree T = buildExpTree(RT, R, NumLeaves);
  {
    double Best = 1e99;
    for (int Rep = 0; Rep < 3; ++Rep) {
      Timer Tm;
      evalExpConventional(RT, T.Root);
      Best = std::min(Best, Tm.seconds());
    }
    M.ConvSeconds = Best;
  }
  // Min-of-reps, symmetric with the conventional timing; throwaway reps
  // run before the kept trace is built (see benchList for why).
  double RepBest = 1e99;
  for (int Rep = 1; Rep < 3; ++Rep) {
    Runtime RepRT(Cfg);
    RepRT.reserveTrace(8 * NumLeaves);
    Rng RepR(Seed);
    ExpTree RepT = buildExpTree(RepRT, RepR, NumLeaves);
    Modref *RepRes = RepRT.modref();
    Timer Tm;
    RepRT.runCore<&evalExpCore>(RepT.Root, RepRes);
    RepBest = std::min(RepBest, Tm.seconds());
  }
  Modref *Res = RT.modref();
  {
    Timer Tm;
    RT.runCore<&evalExpCore>(T.Root, Res);
    M.SelfSeconds = std::min(Tm.seconds(), RepBest);
  }
  size_t Samples = std::min(UpdateSamples, T.Leaves.size());
  if (Cfg.EnableProfile) {
    M.HasProfile = true;
    M.BuildProf = RT.profile();
    RT.resetProfile();
  }
  Timer Tm;
  for (size_t S = 0; S < Samples; ++S) {
    size_t Index = R.below(T.Leaves.size());
    // Replace the leaf twice (new value, then a fresh leaf with the old
    // value), mirroring delete+insert.
    double Old = T.Leaves[Index]->Num;
    replaceLeaf(RT, T, Index, Old + 1.0);
    RT.propagate();
    replaceLeaf(RT, T, Index, Old);
    RT.propagate();
  }
  M.AvgUpdateSeconds = Tm.seconds() / double(2 * Samples);
  M.MaxLiveBytes = RT.maxLiveBytes();
  M.Mem = RT.memoryStats();
  if (Cfg.EnableProfile)
    M.Prof = RT.profile();
  measureWarmStart(std::move(RTH), M, Cfg);
  return M;
}

//===----------------------------------------------------------------------===//
// Tree contraction
//===----------------------------------------------------------------------===//

inline Measurement benchTreeContraction(size_t N, size_t UpdateSamples,
                                        const Runtime::Config &Cfg =
                                            Runtime::Config(),
                                        uint64_t Seed = 45) {
  using namespace apps;
  Measurement M;
  M.Name = "rctree-opt";
  M.N = N;
  Rng R(Seed);

  auto RTH = std::make_unique<Runtime>(Cfg);
  Runtime &RT = *RTH;
  RT.reserveTrace(16 * N);
  TcForest F = buildRandomTree(RT, R, N);
  {
    double Best = 1e99;
    for (int Rep = 0; Rep < 2; ++Rep) {
      Timer T;
      tcContractConventional(F.Adj);
      Best = std::min(Best, T.seconds());
    }
    M.ConvSeconds = Best;
  }
  // Min-of-reps, symmetric with the conventional timing; throwaway reps
  // run before the kept trace is built (see benchList for why).
  double RepBest = 1e99;
  for (int Rep = 1; Rep < 2; ++Rep) {
    Runtime RepRT(Cfg);
    RepRT.reserveTrace(16 * N);
    Rng RepR(Seed);
    TcForest RepF = buildRandomTree(RepRT, RepR, N);
    Modref *RepDst = RepRT.modref();
    Timer T;
    RepRT.runCore<&treeContractCore>(RepF.Live.Head, RepF.Table0,
                                     Word(RepF.N), RepDst);
    RepBest = std::min(RepBest, T.seconds());
  }
  Modref *Dst = RT.modref();
  {
    Timer T;
    RT.runCore<&treeContractCore>(F.Live.Head, F.Table0, Word(F.N), Dst);
    M.SelfSeconds = std::min(T.seconds(), RepBest);
  }
  auto Edges = F.edges();
  size_t Samples = std::min(UpdateSamples, Edges.size());
  if (Cfg.EnableProfile) {
    M.HasProfile = true;
    M.BuildProf = RT.profile();
    RT.resetProfile();
  }
  Timer T;
  for (size_t S = 0; S < Samples; ++S) {
    auto [P, C] = Edges[R.below(Edges.size())];
    tcDeleteEdge(RT, F, P, C);
    RT.propagate();
    tcInsertEdge(RT, F, P, C);
    RT.propagate();
  }
  M.AvgUpdateSeconds = T.seconds() / double(2 * Samples);
  M.MaxLiveBytes = RT.maxLiveBytes();
  M.Mem = RT.memoryStats();
  if (Cfg.EnableProfile)
    M.Prof = RT.profile();
  measureWarmStart(std::move(RTH), M, Cfg);
  return M;
}

//===----------------------------------------------------------------------===//
// Output helpers
//===----------------------------------------------------------------------===//

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

  size_t scaled(size_t Base) const {
    return std::max<size_t>(16, size_t(double(Base) * Scale));
  }
};

} // namespace bench
} // namespace ceal

#endif // CEAL_BENCH_APPBENCH_H
