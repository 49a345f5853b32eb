//===- tests/BaselineTest.cpp - SaSML-simulator behaviour -----------------===//

#include "apps/ListApps.h"
#include "support/Random.h"
#include "tests/support/OracleModels.h"

#include <gtest/gtest.h>

using namespace ceal;
using namespace ceal::apps;

namespace {

Word mapFn(Word X, Word) { return X / 3 + X / 7 + X / 9; }

/// The SaSML comparator over a collected heap of \p HeapLimitBytes
/// (0 = unbounded).
Runtime::Config sasml(size_t HeapLimitBytes = 0) {
  Runtime::Config C;
  C.SimulateSaSml = true;
  C.HeapLimitBytes = HeapLimitBytes;
  return C;
}

std::vector<Word> randomInput(size_t N) {
  Rng R(321);
  std::vector<Word> V(N);
  for (Word &W : V)
    W = R.below(1000000);
  return V;
}

} // namespace

TEST(Baseline, ProducesIdenticalResults) {
  // The comparator's runs and propagations end where the conventional
  // oracle does, on all seven list primitives, as the plain runtime's do.
  harness::HarnessOptions Opt;
  Opt.Sequences = 1;
  Opt.Changes = 6;
  Opt.Config = sasml();
  Opt.Config.Audit = true;
  EXPECT_EQ(harness::runOracleHarness(
                [] { return std::make_unique<harness::ListModel>(400, 400); },
                Opt),
            "");
}

TEST(Baseline, UsesSubstantiallyMoreSpace) {
  std::vector<Word> In = randomInput(2000);
  Runtime Plain;
  Runtime Sasml(sasml());
  ListHandle LP = buildList(Plain, In);
  ListHandle LS = buildList(Sasml, In);
  Modref *DP = Plain.modref(), *DS = Sasml.modref();
  Plain.runCore<&mapCore>(LP.Head, DP, &mapFn, Word(0));
  Sasml.runCore<&mapCore>(LS.Head, DS, &mapFn, Word(0));
  double Ratio = double(Sasml.maxLiveBytes()) / double(Plain.maxLiveBytes());
  // Table 2 measures SaSML at ~3-5x the space; the simulator must land
  // in a plausible band.
  EXPECT_GT(Ratio, 2.0);
  EXPECT_LT(Ratio, 8.0);
}

TEST(Baseline, BoundedHeapTriggersGcScans) {
  std::vector<Word> In = randomInput(3000);
  // Budget: just above the live size of this trace, so the collector
  // must run but the program still fits.
  Runtime Probe(sasml());
  {
    ListHandle L = buildList(Probe, In);
    Modref *D = Probe.modref();
    Probe.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
  }
  size_t Live = Probe.maxLiveBytes();

  Runtime Tight(sasml(Live + Live / 4));
  ListHandle L = buildList(Tight, In);
  Modref *D = Tight.modref();
  Tight.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
  EXPECT_FALSE(Tight.outOfMemory());
  EXPECT_GE(Tight.stats().GcScans, 1u);
  EXPECT_EQ(readList(Tight, D).size(), In.size());
}

TEST(Baseline, ReportsOutOfMemoryWhenLiveExceedsHeap) {
  std::vector<Word> In = randomInput(3000);
  Runtime Probe(sasml());
  {
    ListHandle L = buildList(Probe, In);
    Modref *D = Probe.modref();
    Probe.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
  }
  size_t Live = Probe.maxLiveBytes();

  Runtime Tiny(sasml(Live / 2));
  ListHandle L = buildList(Tiny, In);
  Modref *D = Tiny.modref();
  Tiny.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
  EXPECT_TRUE(Tiny.outOfMemory());
}

TEST(Baseline, GcPressureGrowsAsHeapShrinks) {
  std::vector<Word> In = randomInput(2500);
  Runtime Probe(sasml());
  {
    ListHandle L = buildList(Probe, In);
    Modref *D = Probe.modref();
    Probe.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
  }
  size_t Live = Probe.maxLiveBytes();

  uint64_t PrevScans = 0;
  for (double Factor : {8.0, 2.0, 1.2}) {
    Runtime RT(sasml(size_t(Live * Factor)));
    ListHandle L = buildList(RT, In);
    Modref *D = RT.modref();
    RT.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
    ASSERT_FALSE(RT.outOfMemory()) << "factor " << Factor;
    EXPECT_GE(RT.stats().GcScans, PrevScans) << "factor " << Factor;
    PrevScans = RT.stats().GcScans;
  }
  EXPECT_GT(PrevScans, 0u);
}

// Pins the comparator's cost model on a seeded map (n = 2000): the values
// were recorded before the comparator's calibration constants were folded
// behind one Config switch, so a change that moves a constant or the point
// where a cost is charged shows up here. The byte counts follow the node
// layouts: 2001 reads of 72 + 288 B (fixed part and pad; the closure is
// counted apart), 2001 writes of 40 + 288 B, and 4000 allocations of
// 32 + 288 B. Max live is 48,008 B (8 B per read and per allocation) under
// the layout that kept closures and blocks outside the nodes; the
// collector's scan counts did not move.
TEST(Baseline, ComparatorCostModelIsPinned) {
  std::vector<Word> In = randomInput(2000);
  {
    Runtime RT(sasml());
    ListHandle L = buildList(RT, In);
    Modref *D = RT.modref();
    RT.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
    MemoryStats M = RT.memoryStats();
    EXPECT_EQ(M.ReadBytes, 720360u);
    EXPECT_EQ(M.WriteBytes, 656328u);
    EXPECT_EQ(M.AllocBytes, 1280000u);
    EXPECT_EQ(RT.maxLiveBytes(), 3088880u);
    EXPECT_EQ(RT.stats().ReadsTraced, 2001u);
  }
  // A heap the trace fits in (collections, no overflow) and one it does
  // not.
  struct Pressure {
    size_t Limit;
    uint64_t GcScans;
    bool Oom;
  };
  for (Pressure P : {Pressure{size_t(4) << 20, 3, false},
                     Pressure{size_t(2) << 20, 13, true}}) {
    Runtime RT(sasml(P.Limit));
    ListHandle L = buildList(RT, In);
    Modref *D = RT.modref();
    RT.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
    EXPECT_EQ(RT.stats().GcScans, P.GcScans) << "limit " << P.Limit;
    EXPECT_EQ(RT.outOfMemory(), P.Oom) << "limit " << P.Limit;
  }
}
