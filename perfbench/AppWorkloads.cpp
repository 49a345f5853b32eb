//===- perfbench/AppWorkloads.cpp - map, quicksort and quickhull ----------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads over the compiled-closure apps: each builds a
/// modifiable list with the apps helpers, runs one core over it, edits it
/// with apps::detachCell / apps::reattachCell (which call
/// Runtime::modify), and checks the output against the conventional
/// implementation in apps on the same current input.
///
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "apps/Geometry.h"
#include "apps/ListApps.h"
#include "apps/ListConv.h"
#include "support/Arena.h"
#include "support/Random.h"
#include "support/Timer.h"

#include <algorithm>
#include <numeric>

using namespace cealbench;
using namespace ceal;

EditPlan::EditPlan(size_t N, size_t Pairs, size_t Width, uint64_t Seed)
    : Width(Width), Pos((Pairs + 1) * Width) {
  const size_t Block = N / Width;
  Rng R(Seed ^ 0xed17ed17ed17ed17ULL);
  std::vector<size_t> Order(Pairs);
  std::iota(Order.begin(), Order.end(), size_t(0));
  for (size_t I = Pairs; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  auto Place = [&](size_t P, size_t First) {
    for (size_t J = 0; J < Width; ++J)
      Pos[P * Width + J] = First + J * Block;
  };
  for (size_t P = 0; P < Pairs; ++P) {
    const size_t Lo = Order[P] * Block / Pairs;
    const size_t Hi = (Order[P] + 1) * Block / Pairs;
    Place(P, Lo + R.below(Hi - Lo));
  }
  Place(Pairs, Block / 2);
}

namespace {

/// The paper's map function (Sec. 8.2) and the sort order.
Word paperMapFn(Word X, Word) { return X / 3 + X / 7 + X / 9; }
int cmpWords(Word A, Word B) { return A < B ? -1 : (A > B ? 1 : 0); }

size_t log2Ceil(size_t N) {
  size_t L = 1;
  while ((size_t(1) << L) < N)
    ++L;
  return L;
}

/// Shared shape of the list workloads: an input list edited by detaching
/// and reattaching cells, with the original input kept outside the
/// runtime so the reference never reads through it.
class ListWorkload : public Workload {
public:
  ListWorkload(size_t N, size_t U, size_t Width) : N(N), U(U), Width(Width) {}

  size_t size() const override { return N; }
  size_t updates() const override { return U; }

  void edit(Runtime &RT, size_t K) override {
    const size_t *P = Plan.pair(K / 2);
    const bool Detach = K % 2 == 0;
    for (size_t J = 0; J < Width; ++J) {
      if (Detach)
        apps::detachCell(RT, L, P[J]);
      else
        apps::reattachCell(RT, L, P[J]);
      Detached[P[J]] = Detach;
    }
  }

  size_t restartUpdate() const override { return Plan.restartUpdate(); }

  std::vector<Word> output(Runtime &RT) override {
    return apps::readList(RT, Dst);
  }

  std::vector<const void *> roots() const override { return {L.Head, Dst}; }
  void rebind(const std::vector<void *> &R) override {
    if (R.size() == 2) {
      L.Head = static_cast<Modref *>(R[0]);
      Dst = static_cast<Modref *>(R[1]);
    }
  }

protected:
  /// Builds the list over In, the output modifiable and the edit plan.
  void buildMutator(Runtime &RT, uint64_t Seed) {
    L = apps::buildList(RT, In);
    Dst = RT.modref();
    Plan = EditPlan(N, U / 2, Width, Seed);
    Detached.assign(N, 0);
  }

  /// The input as it is now: In without the detached cells.
  std::vector<Word> currentInput() const {
    std::vector<Word> Cur;
    Cur.reserve(N);
    for (size_t I = 0; I < N; ++I)
      if (!Detached[I])
        Cur.push_back(In[I]);
    return Cur;
  }

  static std::vector<Word> randomWords(uint64_t Seed, size_t N) {
    Rng R(Seed);
    std::vector<Word> V(N);
    for (Word &W : V)
      W = R.below(1u << 30);
    return V;
  }

  const size_t N, U, Width;
  std::vector<Word> In;
  apps::ListHandle L;
  Modref *Dst = nullptr;
  EditPlan Plan;
  std::vector<uint8_t> Detached;
};

class MapEdit final : public ListWorkload {
public:
  MapEdit() : ListWorkload(1000000, 20000, 1) {}
  const char *name() const override { return "map_edit"; }

  void setup(Runtime &RT, uint64_t Seed) override {
    In = randomWords(Seed, N);
    RT.reserveTrace(4 * N);
    buildMutator(RT, Seed);
  }
  void run(Runtime &RT) override {
    RT.runCore<&apps::mapCore>(L.Head, Dst, &paperMapFn, Word(0));
  }
  std::vector<Word> reference() override {
    Arena A;
    apps::conv::PCell *C = apps::conv::buildList(A, currentInput());
    return apps::conv::toVector(apps::conv::mapList(A, C, &paperMapFn, 0));
  }
  double convMs() override {
    Arena A;
    apps::conv::PCell *C = apps::conv::buildList(A, In);
    Timer T;
    apps::conv::mapList(A, C, &paperMapFn, 0);
    return T.milliseconds();
  }
};

class QuicksortEdit final : public ListWorkload {
public:
  QuicksortEdit() : ListWorkload(4000, 8000, 1) {}
  const char *name() const override { return "quicksort_edit"; }

  void setup(Runtime &RT, uint64_t Seed) override {
    In = randomWords(Seed, N);
    RT.reserveTrace(6 * N * log2Ceil(N));
    buildMutator(RT, Seed);
  }
  void run(Runtime &RT) override {
    RT.runCore<&apps::quicksortCore>(L.Head, Dst, &cmpWords);
  }
  std::vector<Word> reference() override {
    Arena A;
    apps::conv::PCell *C = apps::conv::buildList(A, currentInput());
    return apps::conv::toVector(apps::conv::quicksortList(A, C, &cmpWords));
  }
  double convMs() override {
    Arena A;
    apps::conv::PCell *C = apps::conv::buildList(A, In);
    Timer T;
    apps::conv::quicksortList(A, C, &cmpWords);
    return T.milliseconds();
  }
};

class QuickhullBatch final : public ListWorkload {
public:
  QuickhullBatch() : ListWorkload(10000, 2500, 8) {}
  const char *name() const override { return "quickhull_batch"; }

  void setup(Runtime &RT, uint64_t Seed) override {
    Rng R(Seed);
    RT.reserveTrace(8 * N);
    std::vector<apps::Point *> Pts = apps::randomPoints(RT, R, N);
    In.assign(N, 0);
    for (size_t I = 0; I < N; ++I)
      In[I] = toWord(Pts[I]);
    buildMutator(RT, Seed);
  }
  void run(Runtime &RT) override {
    RT.runCore<&apps::quickhullCore>(L.Head, Dst);
  }
  std::vector<Word> reference() override {
    std::vector<Word> Hull;
    for (const apps::Point *P : apps::conv::quickhull(points(currentInput())))
      Hull.push_back(toWord(P));
    return Hull;
  }
  double convMs() override {
    std::vector<const apps::Point *> Pts = points(In);
    Timer T;
    apps::conv::quickhull(Pts);
    return T.milliseconds();
  }

private:
  static std::vector<const apps::Point *> points(const std::vector<Word> &W) {
    std::vector<const apps::Point *> Pts;
    Pts.reserve(W.size());
    for (Word X : W)
      Pts.push_back(fromWord<const apps::Point *>(X));
    return Pts;
  }
};

} // namespace

std::unique_ptr<Workload> cealbench::makeMapEdit() {
  return std::make_unique<MapEdit>();
}
std::unique_ptr<Workload> cealbench::makeQuicksortEdit() {
  return std::make_unique<QuicksortEdit>();
}
std::unique_ptr<Workload> cealbench::makeQuickhullBatch() {
  return std::make_unique<QuickhullBatch>();
}
