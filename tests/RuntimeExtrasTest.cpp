//===- tests/RuntimeExtrasTest.cpp - Codec/memo/trace edge cases ----------===//

#include "apps/ListApps.h"
#include "om/OrderList.h"
#include "runtime/MemoTable.h"
#include "runtime/Runtime.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ceal;

//===----------------------------------------------------------------------===//
// Word codec
//===----------------------------------------------------------------------===//

TEST(WordCodec, RoundTripsScalars) {
  EXPECT_EQ(fromWord<int64_t>(toWord<int64_t>(-1)), -1);
  EXPECT_EQ(fromWord<int32_t>(toWord<int32_t>(-7)), -7);
  EXPECT_EQ(fromWord<uint8_t>(toWord<uint8_t>(255)), 255);
  EXPECT_EQ(fromWord<bool>(toWord<bool>(true)), true);
  EXPECT_DOUBLE_EQ(fromWord<double>(toWord<double>(3.14159)), 3.14159);
  EXPECT_FLOAT_EQ(fromWord<float>(toWord<float>(-2.5f)), -2.5f);
  int X = 9;
  EXPECT_EQ(fromWord<int *>(toWord<int *>(&X)), &X);

  // NaN bit patterns survive (memcpy semantics, not value semantics).
  double Nan = std::nan("0x5ca1ab1e");
  EXPECT_EQ(toWord<double>(Nan), toWord<double>(Nan));

  // Distinct small types zero-extend (no sign smearing into the word).
  EXPECT_EQ(toWord<int32_t>(-1), 0xffffffffull);
}

//===----------------------------------------------------------------------===//
// MemoTable
//===----------------------------------------------------------------------===//

namespace {
struct FakeNode {
  MemoLinks<FakeNode> Memo;
  int Tag = 0;
};
} // namespace

TEST(MemoTable, InsertFindRemove) {
  // Chain links are arena handles, so the nodes must live in the arena
  // the table is bound to.
  Arena A;
  MemoTable<FakeNode> T(A);
  std::vector<FakeNode *> Nodes(500);
  Rng R(5);
  for (int I = 0; I < 500; ++I) {
    auto *N = new (A.allocate(sizeof(FakeNode))) FakeNode();
    N->Memo.Hash = uint32_t(R.below(64)); // Deliberately collision-heavy.
    N->Tag = I;
    Nodes[I] = N;
    T.insert(N);
  }
  EXPECT_EQ(T.size(), 500u);
  // Every node findable through its chain.
  for (int I = 0; I < 500; ++I) {
    bool Found = false;
    for (FakeNode *N = T.chainHead(Nodes[I]->Memo.Hash); N; N = T.next(N))
      Found |= N == Nodes[I];
    EXPECT_TRUE(Found) << I;
  }
  // Remove half, verify the rest remain reachable.
  for (int I = 0; I < 500; I += 2)
    T.remove(Nodes[I]);
  EXPECT_EQ(T.size(), 250u);
  for (int I = 1; I < 500; I += 2) {
    bool Found = false;
    for (FakeNode *N = T.chainHead(Nodes[I]->Memo.Hash); N; N = T.next(N))
      Found |= N == Nodes[I];
    EXPECT_TRUE(Found) << I;
  }
  for (int I = 0; I < 500; I += 2) {
    for (FakeNode *N = T.chainHead(Nodes[I]->Memo.Hash); N; N = T.next(N))
      EXPECT_NE(N, Nodes[I]);
  }
  for (FakeNode *N : Nodes)
    A.deallocate(N, sizeof(FakeNode));
}

//===----------------------------------------------------------------------===//
// Order-maintenance regression guards
//===----------------------------------------------------------------------===//

TEST(OrderListPerf, AppendRelabelsStayAmortizedConstant) {
  Arena A;
  OrderList L(A);
  OmNode *Cur = L.base();
  for (int I = 0; I < 200000; ++I) {
    OmNode *N = A.create<OmNode>();
    L.insertAfter(Cur, N);
    Cur = N;
  }
  // Group splits are cheap and bounded; the expensive range
  // redistribution must essentially never fire for appends (the
  // group-gap pathology fixed in OrderList::insertAfter).
  EXPECT_LT(L.rangeRelabelCount(), 8u);
  EXPECT_LT(L.relabelCount(), 200000u / 8);
}

TEST(OrderList, WalkVisitsInOrder) {
  Arena A;
  OrderList L(A);
  Rng R(9);
  std::vector<OmNode *> Seq{L.base()};
  for (int I = 0; I < 500; ++I) {
    size_t At = R.below(Seq.size());
    OmNode *N = A.create<OmNode>();
    L.insertAfter(Seq[At], N);
    Seq.insert(Seq.begin() + At + 1, N);
  }
  size_t Index = 0;
  for (OmNode *N = L.base(); N; N = L.next(N), ++Index) {
    ASSERT_LT(Index, Seq.size());
    EXPECT_EQ(N, Seq[Index]);
  }
  EXPECT_EQ(Index, Seq.size());
}

//===----------------------------------------------------------------------===//
// Runtime edge cases
//===----------------------------------------------------------------------===//

namespace {

Closure *writeConst(Runtime &RT, Word V, Modref *Dst) {
  RT.write(Dst, V + 1);
  return nullptr;
}
Closure *plusOneCore(Runtime &RT, Modref *Src, Modref *Dst) {
  return RT.readTail<&writeConst>(Src, Dst);
}

Closure *longChainGot(Runtime &RT, Word V, Modref **Cells, Word Index,
                      Word Count, Modref *Dst) {
  if (Index + 1 == Count) {
    RT.write(Dst, V);
    return nullptr;
  }
  return RT.readTail<&longChainGot>(Cells[Index + 1], Cells, Index + 1, Count,
                                    Dst);
}
Closure *longChainCore(Runtime &RT, Modref **Cells, Word Count, Modref *Dst) {
  return RT.readTail<&longChainGot>(Cells[0], Cells, Word(0), Count, Dst);
}

} // namespace

TEST(RuntimeExtras, ReadOfUnwrittenModrefSeesZero) {
  Runtime RT;
  Modref *Src = RT.modref(); // Never written: initial value 0.
  Modref *Dst = RT.modref();
  RT.runCore<&plusOneCore>(Src, Dst);
  EXPECT_EQ(RT.deref(Dst), 1u);
}

TEST(RuntimeExtras, MetaFreeReclaimsUnusedModifiable) {
  Runtime RT;
  size_t Before = RT.liveBytes();
  Modref *M = RT.modref<int64_t>(5);
  EXPECT_GT(RT.liveBytes(), Before);
  RT.metaFree(M);
  EXPECT_EQ(RT.liveBytes(), Before);
}

TEST(RuntimeExtras, SequentialCoresShareInputs) {
  // Three separate run_core invocations over one input; all update on one
  // propagate (the paper's mutator may create several cores).
  Runtime RT;
  Modref *Src = RT.modref<int64_t>(10);
  Modref *D1 = RT.modref(), *D2 = RT.modref(), *D3 = RT.modref();
  RT.runCore<&plusOneCore>(Src, D1);
  RT.runCore<&plusOneCore>(Src, D2);
  RT.runCore<&plusOneCore>(D1, D3); // Chains across cores.
  EXPECT_EQ(RT.deref(D3), 12u);
  RT.modifyT<int64_t>(Src, 100);
  RT.propagate();
  EXPECT_EQ(RT.deref(D1), 101u);
  EXPECT_EQ(RT.deref(D2), 101u);
  EXPECT_EQ(RT.deref(D3), 102u);
}

TEST(RuntimeExtras, DeepTailChainDoesNotGrowStack) {
  // 300k chained reads: with read trampolining the C stack stays flat;
  // a recursive implementation would overflow long before this.
  Runtime RT;
  constexpr size_t N = 300000;
  std::vector<Modref *> Cells(N);
  for (size_t I = 0; I < N; ++I)
    Cells[I] = RT.modref<Word>(I);
  Modref *Dst = RT.modref();
  RT.runCore<&longChainCore>(Cells.data(), Word(N), Dst);
  EXPECT_EQ(RT.deref(Dst), N - 1);
  RT.modifyT<Word>(Cells[N - 1], 777);
  RT.propagate();
  EXPECT_EQ(RT.deref(Dst), 777u);
}

TEST(RuntimeExtras, PropagateWithoutChangesIsFree) {
  Runtime RT;
  Modref *Src = RT.modref<int64_t>(3);
  Modref *Dst = RT.modref();
  RT.runCore<&plusOneCore>(Src, Dst);
  uint64_t Before = RT.stats().ReadsReexecuted;
  for (int I = 0; I < 10; ++I)
    RT.propagate();
  EXPECT_EQ(RT.stats().ReadsReexecuted, Before);
}

TEST(RuntimeExtras, ManyModifiesCoalesceIntoOnePropagation) {
  Runtime RT;
  Modref *Src = RT.modref<int64_t>(0);
  Modref *Dst = RT.modref();
  RT.runCore<&plusOneCore>(Src, Dst);
  for (int64_t V = 1; V <= 100; ++V)
    RT.modifyT<int64_t>(Src, V);
  RT.propagate();
  EXPECT_EQ(RT.derefT<int64_t>(Dst), 101);
  // One read, re-executed once despite 100 modifications.
  EXPECT_EQ(RT.stats().ReadsReexecuted, 1u);
}

//===----------------------------------------------------------------------===//
// Randomized multi-write stress against a semantic oracle
//===----------------------------------------------------------------------===//

namespace {

/// Core: writes Dst1 = f(In), then Dst2 = g(Dst1 value), with an
/// intermediate rewrite of Dst1 — exercising the multi-write governance.
Closure *mwGot2(Runtime &RT, Word V, Modref *Dst2) {
  RT.write(Dst2, V * 3);
  return nullptr;
}
Closure *mwGot1(Runtime &RT, Word V, Modref *Dst1, Modref *Dst2) {
  RT.write(Dst1, V + 1);
  RT.write(Dst1, V + 2); // Overwrites before anyone reads.
  return RT.readTail<&mwGot2>(Dst1, Dst2);
}
Closure *mwCore(Runtime &RT, Modref *In, Modref *Dst1, Modref *Dst2) {
  return RT.readTail<&mwGot1>(In, Dst1, Dst2);
}

} // namespace

TEST(RuntimeExtras, MultiWriteStress) {
  Rng R(31);
  Runtime RT;
  Modref *In = RT.modref<Word>(0);
  Modref *D1 = RT.modref(), *D2 = RT.modref();
  RT.runCore<&mwCore>(In, D1, D2);
  for (int Round = 0; Round < 200; ++Round) {
    Word V = R.below(1000);
    RT.modify(In, V);
    RT.propagate();
    ASSERT_EQ(RT.deref(D1), V + 2) << Round;
    ASSERT_EQ(RT.deref(D2), (V + 2) * 3) << Round;
  }
}
