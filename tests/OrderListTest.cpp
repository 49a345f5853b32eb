//===- tests/OrderListTest.cpp - Order-maintenance tests ------------------===//
//
// Unit and property tests for the order-maintenance list, including a
// randomized comparison against an exact oracle (a std::list whose
// iterator order defines the truth). The list is intrusive, so the tests
// own their nodes the way the runtime does: one per insertion, allocated
// from the arena the list is bound to, freed after removal.
//
//===----------------------------------------------------------------------===//

#include "om/OrderList.h"
#include "support/Random.h"
#include "support/simd/Simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <vector>

using namespace ceal;

namespace {

/// Holds the arena so it is constructed before the list bound to it.
struct TestArena {
  Arena A;
};

/// An OrderList over its own test arena, with node ownership folded into
/// insertAfter/remove so the tests read like the list's own API.
struct TestList : TestArena, OrderList {
  TestList() : OrderList(A) {}

  using OrderList::insertAfter;
  /// Links a fresh caller-owned node after \p X and returns it.
  OmNode *insertAfter(OmNode *X) {
    auto *N = A.create<OmNode>();
    insertAfter(X, N);
    return N;
  }
  /// Unlinks \p X and frees it.
  void remove(OmNode *X) {
    OrderList::remove(X);
    A.destroy(X);
  }
};

} // namespace

TEST(OrderList, BaseIsMinimum) {
  TestList L;
  OmNode *A = L.insertAfter(L.base());
  EXPECT_TRUE(L.precedes(L.base(), A));
  EXPECT_FALSE(L.precedes(A, L.base()));
  EXPECT_FALSE(L.precedes(A, A));
  EXPECT_EQ(L.size(), 2u);
}

TEST(OrderList, InsertAfterOrdersChain) {
  TestList L;
  OmNode *A = L.insertAfter(L.base());
  OmNode *B = L.insertAfter(A);
  OmNode *C = L.insertAfter(A); // Between A and B.
  EXPECT_TRUE(L.precedes(A, C));
  EXPECT_TRUE(L.precedes(C, B));
  EXPECT_TRUE(L.precedes(A, B));
  L.verifyInvariants();
}

TEST(OrderList, PayloadIsPreserved) {
  // The kind and flag bits belong to the client (the trace keeps each
  // node's kind and flags there) and share a word with the node's label:
  // linking nodes, relabeling and splitting their groups, peeling them in
  // append mode, and unlinking their neighbours must write only the
  // label bits.
  constexpr uint8_t Dirty = 1;
  TestList L;
  auto Stamp = [&](OmNode *N, int I) {
    N->Kind = static_cast<TraceKind>(1 + I % 4); // Every non-base kind.
    N->Flags = Dirty | uint8_t(I % 2 ? 0x10 : 0);
  };
  auto Intact = [&](const OmNode *N, int I) {
    return N->Kind == static_cast<TraceKind>(1 + I % 4) &&
           N->Flags == (Dirty | uint8_t(I % 2 ? 0x10 : 0));
  };
  OmNode *A = L.A.create<OmNode>();
  A->Kind = static_cast<TraceKind>(7); // The widest value the field holds.
  A->Flags = 0x1f;
  L.insertAfter(L.base(), A);
  std::vector<OmNode *> After;
  for (int I = 0; I < 5000; ++I) {
    OmNode *N = L.A.create<OmNode>();
    Stamp(N, I);
    L.insertAfter(A, N);
    After.push_back(N);
  }
  EXPECT_GT(L.relabelCount(), 0u) << "no relabel passed over the nodes";
  // Append mode: re-entering mid-group peels the in-group suffix.
  L.beginAppend();
  for (int I = 0; I < 64; ++I) {
    OmNode *N = L.A.create<OmNode>();
    Stamp(N, 5000 + I);
    L.insertAfter(After[size_t(I) * 71], N);
    After.push_back(N);
  }
  L.finalizeAppend();
  for (size_t I = 0; I < After.size(); I += 2)
    L.remove(After[I]);
  EXPECT_EQ(A->Kind, static_cast<TraceKind>(7));
  EXPECT_EQ(A->Flags, 0x1fu);
  for (size_t I = 1; I < After.size(); I += 2)
    ASSERT_TRUE(Intact(After[I], int(I))) << "node " << I;
  EXPECT_EQ(L.base()->Kind, TraceKind{}) << "the base's kind bits are zero";
  EXPECT_EQ(L.base()->Flags, 0u);
  L.verifyInvariants();
}

TEST(OrderList, FixedPositionInsertionStaysWithinTheRelabelBound) {
  // Adversarial for the 24-bit in-group labels: every insertion lands
  // right after one fixed node, so each one halves the same label gap.
  // The bound follows from the label width. A relabel spreads at most
  // GroupLimit = 64 members over 2^24 labels, or over half of them when
  // it keeps the other half free behind the insertion point, so every
  // gap it leaves is above 2^16 and a group takes at least 16
  // insertions between an item relabel and the next. A group splits only
  // after growing from 32 members to 64, and a split counts three
  // relabels (the split and one item relabel per resulting group). Range
  // relabels are the group level's, at most one per fresh group.
  constexpr size_t Inserts = 100000;
  constexpr size_t HalvingsPerRelabel = 16, InsertsPerSplit = 32;
  TestList L;
  OmNode *X = L.insertAfter(L.base());
  OmNode *Tail = L.insertAfter(X);
  std::vector<OmNode *> Order; // Inserted after X: later ones come first.
  for (size_t I = 0; I < Inserts; ++I)
    Order.push_back(L.insertAfter(X));
  L.verifyInvariants();
  EXPECT_LE(L.relabelCount() - L.rangeRelabelCount(),
            Inserts / HalvingsPerRelabel + 3 * Inserts / InsertsPerSplit);
  EXPECT_LE(L.rangeRelabelCount(), Inserts / InsertsPerSplit);
  std::reverse(Order.begin(), Order.end());
  Order.insert(Order.begin(), X);
  Order.push_back(Tail);
  // The list order is exactly the oracle order...
  const OmNode *N = X;
  for (size_t I = 0; I < Order.size(); ++I, N = L.next(N))
    ASSERT_EQ(N, Order[I]) << "position " << I;
  // ...and precedes() agrees with it on adjacent and random pairs.
  for (size_t I = 1; I < Order.size(); ++I)
    ASSERT_TRUE(L.precedes(Order[I - 1], Order[I])) << "position " << I;
  Rng R(1717);
  for (int Q = 0; Q < 20000; ++Q) {
    size_t I = R.below(Order.size()), J = R.below(Order.size());
    ASSERT_EQ(L.precedes(Order[I], Order[J]), I < J) << I << " vs " << J;
  }

  // Alternating insert/remove at one position must not consume labels:
  // the list ends exactly as it started.
  const size_t Relabels = L.relabelCount();
  OmNode *Spot = Order[Order.size() / 2];
  for (size_t I = 0; I < Inserts; ++I) {
    OmNode *T = L.insertAfter(Spot);
    ASSERT_TRUE(L.precedes(Spot, T));
    ASSERT_TRUE(L.precedes(T, L.next(T)));
    L.remove(T);
  }
  EXPECT_LE(L.relabelCount(), Relabels + 3) << "at most one split";
  L.verifyInvariants();
  EXPECT_EQ(L.size(), Order.size() + 1);
}

TEST(OrderList, MonotoneRunMidGroupPaysOnlyForSplits) {
  // Outside append mode, re-execution stamps forward from a cursor in the
  // middle of old groups. A relabel or split that makes room for the
  // cursor leaves half the label space as the gap behind it, so the run
  // advances by AppendGap bumps (32 of them per half space) and the only
  // rebalancing it pays is one split, three relabels, per 32 insertions.
  // Spreading the members evenly instead would spend the gap by halving
  // after about 18 insertions and add an item relabel to every split.
  constexpr size_t Run = 10000, InsertsPerSplit = 32;
  TestList L;
  std::vector<OmNode *> Old{L.base()};
  for (int I = 0; I < 1000; ++I)
    Old.push_back(L.insertAfter(Old.back()));
  const size_t Relabels0 = L.relabelCount();
  const size_t Range0 = L.rangeRelabelCount();
  OmNode *Cursor = Old[500];
  std::vector<OmNode *> Stamped{Cursor};
  for (size_t I = 0; I < Run; ++I)
    Stamped.push_back(Cursor = L.insertAfter(Cursor));
  const size_t Rebalances = (L.relabelCount() - Relabels0) -
                            (L.rangeRelabelCount() - Range0);
  EXPECT_LE(Rebalances, 3 * (Run / InsertsPerSplit + 1));
  L.verifyInvariants();
  for (size_t I = 1; I < Stamped.size(); ++I)
    ASSERT_TRUE(L.precedes(Stamped[I - 1], Stamped[I])) << "stamp " << I;
  EXPECT_TRUE(L.precedes(Stamped.back(), Old[501]));
}

TEST(OrderList, ItemRelabelsAreCountedWithTheRelabelKernel) {
  // Node labels are relabeled by a plain loop, not by simd::omRelabel
  // (which writes whole 64-bit group labels), but the loop notes the same
  // counter: simd.om_relabel counts relabels at both levels. Inserting
  // right after the base halves one gap until it is spent; the group is
  // far from full, so that is exactly one item relabel and no split.
  simd::KernelCounters &C = simd::counters(simd::Kernel::OmRelabel);
  const uint64_t Calls0 = C.Calls.load(), Bytes0 = C.Bytes.load();
  TestList L;
  while (L.relabelCount() == 0)
    L.insertAfter(L.base());
  EXPECT_LT(L.size(), 32u) << "a 24-bit gap lasts about 20 halvings";
  EXPECT_EQ(L.rangeRelabelCount(), 0u);
  EXPECT_EQ(C.Calls.load(), Calls0 + 1);
  // Each member's next handle is read and its label word written; the
  // node that triggered the relabel is linked afterwards.
  EXPECT_EQ(C.Bytes.load(), Bytes0 + (L.size() - 1) * 8);
  L.verifyInvariants();
}

TEST(OrderList, RemoveKeepsOrder) {
  TestList L;
  OmNode *A = L.insertAfter(L.base());
  OmNode *B = L.insertAfter(A);
  OmNode *C = L.insertAfter(B);
  L.remove(B);
  EXPECT_TRUE(L.precedes(A, C));
  EXPECT_EQ(L.next(A), C);
  EXPECT_EQ(L.size(), 3u);
  L.verifyInvariants();
}

TEST(OrderList, SequentialInsertionIsTotalOrder) {
  TestList L;
  std::vector<OmNode *> Nodes;
  OmNode *Cur = L.base();
  for (int I = 0; I < 10000; ++I) {
    Cur = L.insertAfter(Cur);
    Nodes.push_back(Cur);
  }
  for (size_t I = 1; I < Nodes.size(); I += 97)
    EXPECT_TRUE(L.precedes(Nodes[I - 1], Nodes[I]));
  L.verifyInvariants();
}

TEST(OrderList, PathologicalFrontInsertion) {
  // Always inserting at the same position maximizes relabeling pressure.
  TestList L;
  std::vector<OmNode *> Nodes;
  for (int I = 0; I < 20000; ++I)
    Nodes.push_back(L.insertAfter(L.base()));
  // Later-created nodes come earlier in the order.
  for (size_t I = 1; I < Nodes.size(); I += 131)
    EXPECT_TRUE(L.precedes(Nodes[I], Nodes[I - 1]));
  L.verifyInvariants();
}

TEST(OrderList, FrontInsertionTriggersRangeRelabel) {
  // Inserting at one spot exhausts the local label gaps, forcing first
  // group splits and eventually the expensive range redistribution; the
  // structure must come out of the cascade still totally ordered.
  TestList L;
  std::vector<OmNode *> Nodes;
  int Inserted = 0;
  while (L.rangeRelabelCount() == 0 && Inserted < 2000000) {
    Nodes.push_back(L.insertAfter(L.base()));
    ++Inserted;
  }
  ASSERT_GT(L.rangeRelabelCount(), 0u)
      << "front insertion never saturated the group-label space";
  L.verifyInvariants();
  // Later-created nodes precede earlier ones (all inserted after base).
  for (size_t I = 1; I < Nodes.size(); I += 251)
    EXPECT_TRUE(L.precedes(Nodes[I], Nodes[I - 1]));
  // The structure still absorbs fresh inserts after the cascade.
  OmNode *A = L.insertAfter(L.base());
  OmNode *B = L.insertAfter(A);
  EXPECT_TRUE(L.precedes(A, B));
  EXPECT_TRUE(L.precedes(B, Nodes.back()));
  L.verifyInvariants();
}

TEST(OrderList, RemoveFirstAndLastNodeOfAGroup) {
  // Build enough nodes for many level-two groups, then delete group
  // boundary members: the group's First pointer and the predecessor
  // chain must be repaired in both cases.
  TestList L;
  std::vector<OmNode *> Nodes;
  OmNode *Cur = L.base();
  for (int I = 0; I < 4096; ++I) {
    Cur = L.insertAfter(Cur);
    Nodes.push_back(Cur);
  }

  // A node that *leads* a group (and is not base).
  auto IsGroupFirst = [&L](OmNode *N) {
    return L.node(L.group(N->Group)->First) == N;
  };
  // A node that *ends* a group: successor absent or in another group.
  auto IsGroupLast = [&L](OmNode *N) {
    return !L.next(N) || L.next(N)->Group != N->Group;
  };

  size_t Removed = 0;
  for (size_t I = 0; I < Nodes.size() && Removed < 64; ++I) {
    OmNode *N = Nodes[I];
    if (!N)
      continue;
    if (IsGroupFirst(N) || IsGroupLast(N)) {
      OmNode *Before = L.prev(N);
      OmNode *After = L.next(N);
      L.remove(N);
      Nodes[I] = nullptr;
      ++Removed;
      if (Before && After) {
        EXPECT_TRUE(L.precedes(Before, After));
      }
      L.verifyInvariants();
    }
  }
  EXPECT_GE(Removed, 2u) << "no group boundaries found to delete";

  // Residual order is intact.
  OmNode *Prev{};
  for (OmNode *N : Nodes) {
    if (!N)
      continue;
    if (Prev) {
      EXPECT_TRUE(L.precedes(Prev, N));
    }
    Prev = N;
  }
}

TEST(OrderList, InterleavedInsertDeleteStressChecksEveryOp) {
  // Tight interleaving with invariants verified after *every* operation:
  // catches transient corruption that end-of-run checks miss.
  Rng R(4242);
  TestList L;
  std::vector<OmNode *> Live{L.base()};
  for (int Op = 0; Op < 3000; ++Op) {
    bool DoRemove = Live.size() > 1 && R.below(100) < 40;
    if (DoRemove) {
      size_t Idx = 1 + R.below(Live.size() - 1);
      L.remove(Live[Idx]);
      Live[Idx] = Live.back();
      Live.pop_back();
    } else {
      Live.push_back(L.insertAfter(Live[R.below(Live.size())]));
    }
    L.verifyInvariants();
  }
  EXPECT_EQ(L.size(), Live.size());
}

namespace {

/// Oracle for randomized testing: a std::list of node ids whose sequence
/// order is the ground truth.
class OrderOracle {
public:
  using Pos = std::list<int>::iterator;

  OrderOracle() { Positions[0] = Seq.insert(Seq.end(), 0); }

  int insertAfter(int After) {
    int Id = NextId++;
    auto It = Positions.at(After);
    Positions[Id] = Seq.insert(std::next(It), Id);
    return Id;
  }

  void remove(int Id) {
    Seq.erase(Positions.at(Id));
    Positions.erase(Id);
  }

  bool precedes(int A, int B) const {
    for (int Id : Seq) {
      if (Id == A)
        return true;
      if (Id == B)
        return false;
    }
    ADD_FAILURE() << "ids not present";
    return false;
  }

  std::vector<int> ids() const {
    std::vector<int> Result;
    for (auto &Entry : Positions)
      Result.push_back(Entry.first);
    return Result;
  }

  /// Every live id, in order.
  std::vector<int> sequence() const { return {Seq.begin(), Seq.end()}; }

private:
  std::list<int> Seq;
  std::map<int, Pos> Positions;
  int NextId = 1;
};

struct RandomOpsParam {
  uint64_t Seed;
  int NumOps;
  int RemoveWeight; // Out of 100.
};

class OrderListRandomTest : public ::testing::TestWithParam<RandomOpsParam> {};

} // namespace

TEST_P(OrderListRandomTest, MatchesOracle) {
  const RandomOpsParam P = GetParam();
  Rng R(P.Seed);
  TestList L;
  OrderOracle Oracle;
  std::map<int, OmNode *> NodeById;
  NodeById[0] = L.base();

  for (int Op = 0; Op < P.NumOps; ++Op) {
    std::vector<int> Ids = Oracle.ids();
    bool DoRemove =
        Ids.size() > 1 && static_cast<int>(R.below(100)) < P.RemoveWeight;
    if (DoRemove) {
      int Victim;
      do {
        Victim = Ids[R.below(Ids.size())];
      } while (Victim == 0);
      Oracle.remove(Victim);
      L.remove(NodeById.at(Victim));
      NodeById.erase(Victim);
    } else {
      int After = Ids[R.below(Ids.size())];
      int Id = Oracle.insertAfter(After);
      NodeById[Id] = L.insertAfter(NodeById.at(After));
    }
    if (Op % 64 == 0) {
      L.verifyInvariants();
      // Spot-check a handful of random order queries against the oracle.
      std::vector<int> Cur = Oracle.ids();
      for (int Q = 0; Q < 8 && Cur.size() >= 2; ++Q) {
        int A = Cur[R.below(Cur.size())];
        int B = Cur[R.below(Cur.size())];
        if (A == B)
          continue;
        EXPECT_EQ(Oracle.precedes(A, B),
                  L.precedes(NodeById.at(A), NodeById.at(B)))
            << "seed=" << P.Seed << " op=" << Op;
      }
    }
  }
  L.verifyInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    RandomOps, OrderListRandomTest,
    ::testing::Values(RandomOpsParam{1, 800, 0}, RandomOpsParam{2, 800, 25},
                      RandomOpsParam{3, 800, 45}, RandomOpsParam{4, 2000, 30},
                      RandomOpsParam{5, 2000, 10}, RandomOpsParam{6, 400, 60},
                      RandomOpsParam{7, 3000, 33},
                      RandomOpsParam{8, 3000, 5}));

TEST(OrderList, HandlePrecedesMatchesOracleThroughRelabels) {
  // Concentrated insertion at a few hot positions exhausts their label
  // gaps over and over, so the handle-linked structure goes through
  // group splits, item relabels, and range relabels (all of which
  // rewrite labels through the relabel kernel's handle chase) while
  // precedes() is checked against the exact oracle.
  Rng R(1515);
  TestList L;
  OrderOracle Oracle;
  std::map<int, OmNode *> NodeById;
  NodeById[0] = L.base();
  std::vector<int> Hot{0};
  for (int I = 0; I < 2; ++I) {
    int Id = Oracle.insertAfter(Hot.back());
    NodeById[Id] = L.insertAfter(NodeById.at(Hot.back()));
    Hot.push_back(Id);
  }
  auto IsHot = [&Hot](int Id) {
    return std::find(Hot.begin(), Hot.end(), Id) != Hot.end();
  };

  for (int Op = 0; Op < 6000; ++Op) {
    unsigned Dice = static_cast<unsigned>(R.below(100));
    if (Dice < 80) {
      int After = Hot[R.below(Hot.size())];
      int Id = Oracle.insertAfter(After);
      NodeById[Id] = L.insertAfter(NodeById.at(After));
    } else {
      std::vector<int> Ids = Oracle.ids();
      int Pick = Ids[R.below(Ids.size())];
      if (Dice < 90 || IsHot(Pick)) {
        int Id = Oracle.insertAfter(Pick);
        NodeById[Id] = L.insertAfter(NodeById.at(Pick));
      } else {
        Oracle.remove(Pick);
        L.remove(NodeById.at(Pick));
        NodeById.erase(Pick);
      }
    }
    if (Op % 256 == 0) {
      L.verifyInvariants();
      std::vector<int> Ids = Oracle.ids();
      for (int Q = 0; Q < 16; ++Q) {
        int A = Ids[R.below(Ids.size())];
        int B = Ids[R.below(Ids.size())];
        if (A == B)
          continue;
        ASSERT_EQ(Oracle.precedes(A, B),
                  L.precedes(NodeById.at(A), NodeById.at(B)))
            << "op=" << Op;
      }
    }
  }
  EXPECT_GT(L.rangeRelabelCount(), 0u)
      << "hot-spot insertion never reached a range relabel";
  L.verifyInvariants();
  // Full sweep: consecutive oracle positions are strictly ordered.
  std::vector<int> Seq = Oracle.sequence();
  ASSERT_EQ(Seq.size(), L.size());
  for (size_t I = 1; I < Seq.size(); ++I) {
    OmNode *A = NodeById.at(Seq[I - 1]), *B = NodeById.at(Seq[I]);
    ASSERT_TRUE(L.precedes(A, B)) << "position " << I;
    ASSERT_FALSE(L.precedes(B, A)) << "position " << I;
    ASSERT_EQ(L.next(A), B) << "position " << I;
  }
}

TEST(OrderList, HeavyMixedChurn) {
  // Large-scale smoke test: interleave bursts of localized insertion with
  // random deletion; verify invariants at the end.
  Rng R(99);
  TestList L;
  std::vector<OmNode *> Live{L.base()};
  for (int Round = 0; Round < 50; ++Round) {
    OmNode *Spot = Live[R.below(Live.size())];
    for (int I = 0; I < 500; ++I) {
      Spot = L.insertAfter(Spot);
      Live.push_back(Spot);
    }
    for (int I = 0; I < 200 && Live.size() > 1; ++I) {
      size_t Idx = 1 + R.below(Live.size() - 1);
      L.remove(Live[Idx]);
      Live[Idx] = Live.back();
      Live.pop_back();
    }
  }
  L.verifyInvariants();
  EXPECT_EQ(L.size(), Live.size());
}

//===----------------------------------------------------------------------===//
// Append mode (construction-time monotone insertion policy)
//===----------------------------------------------------------------------===//

TEST(OrderListAppend, MonotoneAppendNeverRelabels) {
  // The whole point of append mode: a monotone run of tail insertions —
  // the trace of an initial run — must never rewrite an existing label,
  // so both relabel counters stay at zero from start to finalize.
  TestList L;
  L.beginAppend();
  EXPECT_TRUE(L.inAppendMode());
  std::vector<OmNode *> Nodes;
  OmNode *Cur = L.base();
  for (int I = 0; I < 50000; ++I) {
    Cur = L.insertAfter(Cur);
    Nodes.push_back(Cur);
    // Structural invariants hold continuously, not just after finalize.
    if (I % 8192 == 0)
      L.verifyInvariants();
  }
  EXPECT_EQ(L.relabelCount(), 0u)
      << "monotone append paid a split or relabel";
  EXPECT_EQ(L.rangeRelabelCount(), 0u);
  L.finalizeAppend();
  EXPECT_FALSE(L.inAppendMode());
  L.verifyInvariants();
  for (size_t I = 1; I < Nodes.size(); I += 173)
    EXPECT_TRUE(L.precedes(Nodes[I - 1], Nodes[I]));
  EXPECT_TRUE(L.precedes(L.base(), Nodes.front()));
}

TEST(OrderListAppend, MidGroupReentryPeelsSuffix) {
  // Build a list under the normal policy so groups sit at their
  // post-split occupancy, then enter append mode and insert at mid-group
  // positions (the re-traced interval case): appendSlow must peel the
  // in-group suffix into a fresh group and keep the total order exact.
  TestList L;
  std::vector<OmNode *> Order{L.base()};
  OmNode *Cur = L.base();
  for (int I = 0; I < 1000; ++I) {
    Cur = L.insertAfter(Cur);
    Order.push_back(Cur);
  }

  L.beginAppend();
  Rng R(314);
  for (int Burst = 0; Burst < 40; ++Burst) {
    // Re-enter at a random interior position and append a short monotone
    // run there, exactly like re-tracing a revoked interval.
    size_t At = 1 + R.below(Order.size() - 2);
    OmNode *Spot = Order[At];
    for (int I = 0; I < 8; ++I) {
      Spot = L.insertAfter(Spot);
      Order.insert(Order.begin() + static_cast<long>(++At), Spot);
    }
    L.verifyInvariants();
  }
  // Range redistribution must not have been needed: peels open fresh
  // groups without touching the Bender machinery.
  EXPECT_EQ(L.rangeRelabelCount(), 0u);
  L.finalizeAppend();
  L.verifyInvariants();
  for (size_t I = 1; I < Order.size(); ++I)
    ASSERT_TRUE(L.precedes(Order[I - 1], Order[I]))
        << "order broken at position " << I;
}

TEST(OrderListAppend, RandomOpsInAndAfterAppendMatchOracle) {
  // Append mode is a policy switch, not a restricted interface: arbitrary
  // insert-after positions and removals stay legal while it is active.
  // Drive random operations against the exact oracle with the mode on,
  // finalize mid-stream, and keep going — the order answers must agree
  // throughout, and the relabeling policy flip must leave no seam.
  Rng R(77);
  TestList L;
  OrderOracle Oracle;
  std::map<int, OmNode *> NodeById;
  NodeById[0] = L.base();
  L.beginAppend();

  for (int Op = 0; Op < 3000; ++Op) {
    if (Op == 1500) {
      L.finalizeAppend();
      L.verifyInvariants();
    }
    std::vector<int> Ids = Oracle.ids();
    bool DoRemove = Ids.size() > 1 && R.below(100) < 30;
    if (DoRemove) {
      int Victim;
      do {
        Victim = Ids[R.below(Ids.size())];
      } while (Victim == 0);
      Oracle.remove(Victim);
      L.remove(NodeById.at(Victim));
      NodeById.erase(Victim);
    } else {
      int After = Ids[R.below(Ids.size())];
      int Id = Oracle.insertAfter(After);
      NodeById[Id] = L.insertAfter(NodeById.at(After));
    }
    if (Op % 64 == 0) {
      L.verifyInvariants();
      std::vector<int> Cur = Oracle.ids();
      for (int Q = 0; Q < 8 && Cur.size() >= 2; ++Q) {
        int A = Cur[R.below(Cur.size())];
        int B = Cur[R.below(Cur.size())];
        if (A == B)
          continue;
        EXPECT_EQ(Oracle.precedes(A, B),
                  L.precedes(NodeById.at(A), NodeById.at(B)))
            << "op=" << Op << (L.inAppendMode() ? " (appending)" : "");
      }
    }
  }
  L.verifyInvariants();
}

TEST(OrderListAppend, RemoveDuringAppendKeepsInvariants) {
  // Interleaved removals are explicitly allowed while appending (revoked
  // trace intervals die mid-construction); the structure must stay sound
  // at every step, including group-emptying removals.
  Rng R(2026);
  TestList L;
  L.beginAppend();
  std::vector<OmNode *> Live{L.base()};
  OmNode *Cur = L.base();
  for (int I = 0; I < 5000; ++I) {
    Cur = L.insertAfter(Cur);
    Live.push_back(Cur);
    if (Live.size() > 2 && R.below(100) < 20) {
      // Remove a random node other than base and the append cursor.
      size_t Idx = 1 + R.below(Live.size() - 2);
      L.remove(Live[Idx]);
      Live.erase(Live.begin() + static_cast<long>(Idx));
    }
    if (I % 512 == 0)
      L.verifyInvariants();
  }
  L.finalizeAppend();
  L.verifyInvariants();
  EXPECT_EQ(L.size(), Live.size());
  for (size_t I = 1; I < Live.size(); I += 37)
    EXPECT_TRUE(L.precedes(Live[I - 1], Live[I]));
}
