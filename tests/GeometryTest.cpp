//===- tests/GeometryTest.cpp - Geometry benchmark correctness ------------===//

#include "apps/Geometry.h"
#include "support/Random.h"
#include "tests/support/OracleModels.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ceal;
using namespace ceal::apps;

namespace {

std::vector<const Point *> hullFromRuntime(Runtime &RT, Modref *Dst) {
  std::vector<const Point *> Result;
  for (auto *C = RT.derefT<Cell *>(Dst); C; C = RT.derefT<Cell *>(C->Tail))
    Result.push_back(fromWord<const Point *>(C->Head));
  return Result;
}

std::vector<const Point *> asConst(const std::vector<Point *> &Pts) {
  return {Pts.begin(), Pts.end()};
}

std::vector<const Point *> activePoints(Runtime &RT, const ListHandle &L) {
  std::vector<const Point *> Result;
  for (auto *C = RT.derefT<Cell *>(L.Head); C; C = RT.derefT<Cell *>(C->Tail))
    Result.push_back(fromWord<const Point *>(C->Head));
  return Result;
}

/// One audited oracle-harness sequence of \p Changes random point edits
/// over inputs of \p N points.
template <typename ModelT>
std::string editSweep(size_t N, int Changes, uint64_t Seed) {
  harness::HarnessOptions Opt;
  Opt.Sequences = 1;
  Opt.Changes = Changes;
  Opt.BaseSeed = Seed;
  return harness::runOracleHarness(
      [N] { return std::make_unique<ModelT>(N, N); }, Opt);
}

} // namespace

TEST(Geometry, QuickhullMatchesConventional) {
  Rng R(41);
  Runtime RT;
  std::vector<Point *> Pts = randomPoints(RT, R, 400);
  ListHandle L = buildPointList(RT, Pts);
  Modref *Dst = RT.modref();
  RT.runCore<&quickhullCore>(L.Head, Dst);
  EXPECT_EQ(hullFromRuntime(RT, Dst), conv::quickhull(asConst(Pts)));
}

TEST(Geometry, QuickhullTinyInputs) {
  Rng R(42);
  for (size_t N : {0u, 1u, 2u, 3u, 4u}) {
    Runtime RT;
    std::vector<Point *> Pts = randomPoints(RT, R, N);
    ListHandle L = buildPointList(RT, Pts);
    Modref *Dst = RT.modref();
    RT.runCore<&quickhullCore>(L.Head, Dst);
    EXPECT_EQ(hullFromRuntime(RT, Dst), conv::quickhull(asConst(Pts)))
        << "N=" << N;
  }
}

TEST(Geometry, QuickhullCollinearPoints) {
  Runtime RT;
  std::vector<Point *> Pts;
  for (int I = 0; I < 10; ++I) {
    auto *P = static_cast<Point *>(RT.arena().allocate(sizeof(Point)));
    P->X = I * 0.1;
    P->Y = I * 0.2; // All on one line.
    Pts.push_back(P);
  }
  ListHandle L = buildPointList(RT, Pts);
  Modref *Dst = RT.modref();
  RT.runCore<&quickhullCore>(L.Head, Dst);
  EXPECT_EQ(hullFromRuntime(RT, Dst), conv::quickhull(asConst(Pts)));
}

TEST(Geometry, QuickhullEditSweep) {
  EXPECT_EQ(editSweep<harness::QuickhullModel>(250, 80, 43), "");
}

TEST(Geometry, QuickhullDeletingHullVertexUpdates) {
  // Force a structural change: delete the extreme point itself.
  Rng R(44);
  Runtime RT;
  std::vector<Point *> Pts = randomPoints(RT, R, 100);
  // Add a far-out point that must be on the hull.
  auto *Far = static_cast<Point *>(RT.arena().allocate(sizeof(Point)));
  Far->X = 10.0;
  Far->Y = 0.5;
  Pts.push_back(Far);
  ListHandle L = buildPointList(RT, Pts);
  Modref *Dst = RT.modref();
  RT.runCore<&quickhullCore>(L.Head, Dst);
  std::vector<const Point *> Hull = hullFromRuntime(RT, Dst);
  EXPECT_NE(std::find(Hull.begin(), Hull.end(), Far), Hull.end());

  detachCell(RT, L, Pts.size() - 1);
  RT.propagate();
  std::vector<const Point *> Hull2 = hullFromRuntime(RT, Dst);
  EXPECT_EQ(std::find(Hull2.begin(), Hull2.end(), Far), Hull2.end());
  EXPECT_EQ(Hull2, conv::quickhull(activePoints(RT, L)));
}

TEST(Geometry, DiameterMatchesAndUpdates) {
  EXPECT_EQ(editSweep<harness::DiameterModel>(300, 40, 45), "");
}

TEST(Geometry, DistanceMatchesAndUpdates) {
  EXPECT_EQ(editSweep<harness::DistanceModel>(200, 32, 46), "");
}

TEST(Geometry, QuickhullUpdateIsSublinear) {
  Rng R(47);
  Runtime RT;
  std::vector<Point *> Pts = randomPoints(RT, R, 4000);
  ListHandle L = buildPointList(RT, Pts);
  Modref *Dst = RT.modref();
  RT.runCore<&quickhullCore>(L.Head, Dst);
  uint64_t Before = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted;
  int Updates = 0;
  for (size_t I = 100; I < 3900; I += 500, Updates += 2) {
    detachCell(RT, L, I);
    RT.propagate();
    reattachCell(RT, L, I);
    RT.propagate();
  }
  uint64_t Work = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted - Before;
  // Interior points mostly touch a filter chain and a few reduce runs;
  // the whole computation performs >> 100k reads from scratch.
  EXPECT_LT(Work / Updates, 2500u);
}
