//===- tests/DataflowTest.cpp - BitVec, solver, dominator edge cases ------===//
//
// Unit tests for the dataflow framework underneath the analyses:
//
//  * BitVec: word-boundary behavior, meet operations, iteration order.
//  * solveDataflow (backward, union meet) on hand-built edge-case CFGs —
//    unreachable blocks, self-loops, exits with back edges, and
//    irreducible graphs — checked against fixpoints worked by hand.
//  * Dominators on the same pathological shapes, cross-checking the
//    iterative and semi-NCA algorithms.
//  * Liveness determinism: liveAt returns variables in ascending id
//    order regardless of CFG shape (closure layouts depend on it).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "cl/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ceal;
using namespace ceal::analysis;
using namespace ceal::cl;

namespace {

BitVec bv(size_t N, std::initializer_list<uint32_t> Bits) {
  BitVec V(N);
  for (uint32_t B : Bits)
    V.set(B);
  return V;
}

/// A BlockCfg assembled by hand; entry 0, exits as given.
BlockCfg makeCfg(size_t N,
                 std::initializer_list<std::pair<uint32_t, uint32_t>> Es,
                 std::initializer_list<uint32_t> Exits) {
  BlockCfg G;
  G.Succs.assign(N, {});
  G.Preds.assign(N, {});
  G.Exits.assign(Exits.begin(), Exits.end());
  for (auto [A, B] : Es) {
    G.Succs[A].push_back(B);
    G.Preds[B].push_back(A);
  }
  G.Reachable.assign(N, false);
  std::vector<uint32_t> Stack{0};
  G.Reachable[0] = true;
  while (!Stack.empty()) {
    uint32_t V = Stack.back();
    Stack.pop_back();
    for (uint32_t S : G.Succs[V])
      if (!G.Reachable[S]) {
        G.Reachable[S] = true;
        Stack.push_back(S);
      }
  }
  return G;
}

} // namespace

//===----------------------------------------------------------------------===//
// BitVec
//===----------------------------------------------------------------------===//

TEST(BitVec, WordBoundaries) {
  // Sizes straddling the 64-bit word boundary.
  for (size_t N : {1u, 63u, 64u, 65u, 128u, 130u}) {
    BitVec V(N);
    EXPECT_TRUE(V.none());
    EXPECT_EQ(V.count(), 0u);
    V.set(0);
    V.set(static_cast<uint32_t>(N - 1));
    EXPECT_TRUE(V.test(0));
    EXPECT_TRUE(V.test(static_cast<uint32_t>(N - 1)));
    EXPECT_EQ(V.count(), N == 1 ? 1u : 2u);
    V.setAll();
    EXPECT_EQ(V.count(), N);
    // setAll must not set bits past size(): clearing the valid range
    // leaves nothing behind.
    for (uint32_t B = 0; B < N; ++B)
      V.reset(B);
    EXPECT_TRUE(V.none());
  }
}

TEST(BitVec, MeetOperationsReportChange) {
  BitVec A = bv(100, {1, 50, 99});
  BitVec B = bv(100, {1, 70});
  BitVec U = A;
  EXPECT_TRUE(U.unionWith(B));      // 70 is new.
  EXPECT_FALSE(U.unionWith(B));     // Fixpoint.
  EXPECT_EQ(U, bv(100, {1, 50, 70, 99}));
  BitVec I = A;
  EXPECT_TRUE(I.intersectWith(B));  // 50, 99 drop.
  EXPECT_FALSE(I.intersectWith(B));
  EXPECT_EQ(I, bv(100, {1}));
  BitVec S = A;
  S.subtract(B);
  EXPECT_EQ(S, bv(100, {50, 99}));
}

#ifndef NDEBUG
TEST(BitVecDeathTest, MismatchedSizesAssert) {
  // The binary set operations index the operand's words by this->size();
  // a smaller operand would be an out-of-bounds read, so mismatched
  // sizes must be rejected up front.
  BitVec A = bv(100, {1});
  BitVec B = bv(64, {1});
  EXPECT_DEATH(A.unionWith(B), "sizes must match");
  EXPECT_DEATH(A.intersectWith(B), "sizes must match");
  EXPECT_DEATH(A.subtract(B), "sizes must match");
}
#endif

TEST(BitVec, IterationAscending) {
  BitVec V = bv(200, {199, 0, 64, 63, 65, 3});
  std::vector<uint32_t> Got = V.bits();
  std::vector<uint32_t> Want = {0, 3, 63, 64, 65, 199};
  EXPECT_EQ(Got, Want);
  std::vector<uint32_t> Each;
  V.forEach([&](uint32_t B) { Each.push_back(B); });
  EXPECT_EQ(Each, Want);
}

//===----------------------------------------------------------------------===//
// The solver on edge-case CFGs
//===----------------------------------------------------------------------===//

namespace {

/// A backward problem over \p N blocks with Gen[b] = {b} (domain \p N),
/// no kills, and an empty boundary.
DataflowProblem genOwnId(uint32_t N) {
  DataflowProblem P;
  P.DomainSize = N;
  P.Transfer.resize(N);
  for (uint32_t B = 0; B < N; ++B) {
    P.Transfer[B].Gen = bv(N, {B});
    P.Transfer[B].Kill = BitVec(N);
  }
  return P;
}

} // namespace

TEST(Dataflow, SelfLoopBackwardUnion) {
  // 0 -> 1, 1 -> 1 (self-loop), 1 -> 2. Gen at each block is its own id.
  BlockCfg G = makeCfg(3, {{0, 1}, {1, 1}, {1, 2}}, {2});
  DataflowResult R = solveDataflow(G, genOwnId(3));
  EXPECT_EQ(R.Out[1], bv(3, {1, 2})); // Its own In flows around the loop.
  EXPECT_EQ(R.In[1], bv(3, {1, 2}));
  EXPECT_EQ(R.In[0], bv(3, {0, 1, 2}));
}

TEST(Dataflow, UnreachableBlocksAreStillSolved) {
  // Block 2 is unreachable from the entry but flows into block 1. Under
  // the union meet it is solved like any other block (liveness reports
  // facts in dead code too).
  BlockCfg G = makeCfg(3, {{0, 1}, {2, 1}}, {1});
  DataflowResult R = solveDataflow(G, genOwnId(3));
  EXPECT_FALSE(G.Reachable[2]);
  EXPECT_EQ(R.Out[2], bv(3, {1}));
  EXPECT_EQ(R.In[2], bv(3, {1, 2}));
  EXPECT_EQ(R.In[0], bv(3, {0, 1}));
}

TEST(Dataflow, BoundaryNodeWithPredecessorsMeetsBoth) {
  // The exit has a back edge out of it: 0 -> 1 -> 0, and 1 exits. Its Out
  // must meet the boundary *and* its successor's In — the boundary is a
  // virtual edge, not a clamp.
  BlockCfg G = makeCfg(2, {{0, 1}, {1, 0}}, {1});
  DataflowProblem P;
  P.DomainSize = 2;
  P.Transfer.resize(2);
  for (uint32_t B = 0; B < 2; ++B) {
    P.Transfer[B].Gen = BitVec(2);
    P.Transfer[B].Kill = BitVec(2);
  }
  P.Transfer[0].Gen = bv(2, {1});  // The loop generates fact 1...
  P.Transfer[1].Kill = bv(2, {0}); // ...and the exit kills fact 0.
  P.Boundary = bv(2, {0});
  DataflowResult R = solveDataflow(G, P);
  EXPECT_EQ(R.Out[1], bv(2, {0, 1})); // Boundary plus the back edge.
  EXPECT_EQ(R.In[1], bv(2, {1}));
  EXPECT_EQ(R.In[0], bv(2, {1}));
}

TEST(Dataflow, IrreducibleGraphConverges) {
  // The classic irreducible shape: 0 -> {1, 2}, 1 <-> 2, both exit to 3.
  // No natural loop header; the solver must still reach the unique
  // least fixpoint.
  BlockCfg G = makeCfg(4, {{0, 1}, {0, 2}, {1, 2}, {2, 1}, {1, 3}, {2, 3}},
                       {3});
  DataflowResult R = solveDataflow(G, genOwnId(4));
  EXPECT_EQ(R.In[1], bv(4, {1, 2, 3})); // Via 3 and via the 1 -> 2 edge.
  EXPECT_EQ(R.In[2], bv(4, {1, 2, 3}));
  EXPECT_EQ(R.In[0], bv(4, {0, 1, 2, 3}));
}

TEST(Dataflow, BackwardUnionMultipleExits) {
  // Diamond with two exits: 0 -> 1 -> 3(exit), 0 -> 2(exit). Only the
  // 0 -> 1 path generates; the union at 0 keeps it.
  BlockCfg G = makeCfg(4, {{0, 1}, {0, 2}, {1, 3}}, {2, 3});
  DataflowProblem P;
  P.DomainSize = 3;
  P.Transfer.resize(4);
  for (uint32_t B = 0; B < 4; ++B) {
    P.Transfer[B].Gen = BitVec(3);
    P.Transfer[B].Kill = BitVec(3);
  }
  P.Transfer[1].Gen = bv(3, {1});
  DataflowResult R = solveDataflow(G, P);
  EXPECT_EQ(R.In[1], bv(3, {1}));
  EXPECT_TRUE(R.In[2].none());
  EXPECT_EQ(R.Out[0], bv(3, {1})); // Union of {1} (via 1) and {} (via 2).
  EXPECT_EQ(R.In[0], bv(3, {1}));
}

//===----------------------------------------------------------------------===//
// Dominators on pathological shapes
//===----------------------------------------------------------------------===//

namespace {

RootedGraph makeRooted(uint32_t N,
                       std::initializer_list<std::pair<uint32_t, uint32_t>> Es) {
  RootedGraph G;
  G.Root = 0;
  G.Succs.assign(N, {});
  G.Preds.assign(N, {});
  for (auto [A, B] : Es) {
    G.Succs[A].push_back(B);
    G.Preds[B].push_back(A);
  }
  return G;
}

} // namespace

TEST(Dominators, UnreachableNodesGetInvalid) {
  RootedGraph G = makeRooted(4, {{0, 1}, {2, 3}, {3, 2}});
  auto It = computeDominatorsIterative(G);
  auto Nca = computeDominatorsSemiNca(G);
  EXPECT_EQ(It, Nca);
  EXPECT_EQ(It[0], 0u);
  EXPECT_EQ(It[1], 0u);
  EXPECT_EQ(It[2], InvalidNode);
  EXPECT_EQ(It[3], InvalidNode);
}

TEST(Dominators, SelfLoopDoesNotSelfDominate) {
  RootedGraph G = makeRooted(3, {{0, 1}, {1, 1}, {1, 2}});
  auto It = computeDominatorsIterative(G);
  auto Nca = computeDominatorsSemiNca(G);
  EXPECT_EQ(It, Nca);
  EXPECT_EQ(It[1], 0u); // The self-edge must not make 1 its own idom.
  EXPECT_EQ(It[2], 1u);
}

TEST(Dominators, IrreducibleIdomFallsToRoot) {
  // 0 -> 1, 0 -> 2, 1 <-> 2: neither 1 nor 2 dominates the other, so
  // both have idom 0 despite each being the other's predecessor.
  RootedGraph G = makeRooted(3, {{0, 1}, {0, 2}, {1, 2}, {2, 1}});
  auto It = computeDominatorsIterative(G);
  auto Nca = computeDominatorsSemiNca(G);
  EXPECT_EQ(It, Nca);
  EXPECT_EQ(It[1], 0u);
  EXPECT_EQ(It[2], 0u);
}

//===----------------------------------------------------------------------===//
// Liveness determinism
//===----------------------------------------------------------------------===//

TEST(Liveness, LiveAtAscendingVarOrder) {
  // Closure environment layouts take liveAt's order verbatim; it must
  // be ascending VarId no matter in which order the solver discovered
  // liveness. Declare variables so that later-declared ones become live
  // first on some path.
  const char *Src = R"(
func f(modref* m) {
  var int a; var int b; var int c; var int d; var int z;
  e: z := 0; goto l1;
  l1: d := 1; goto l2;
  l2: c := 2; goto l3;
  l3: b := 3; goto l4;
  l4: a := 4; goto body;
  body: z := add(a, b); goto b2;
  b2: z := add(z, c); goto b3;
  b3: z := add(z, d); goto w;
  w: write(m, z); goto fin;
  fin: done;
}
)";
  auto R = parseProgram(Src);
  ASSERT_TRUE(R) << R.Error;
  const Function &F = R.Prog->Funcs[0];
  LivenessInfo L = computeLiveness(F);
  for (BlockId B = 0; B < F.Blocks.size(); ++B) {
    std::vector<VarId> Vs = L.liveAt(B);
    EXPECT_TRUE(std::is_sorted(Vs.begin(), Vs.end()))
        << "block " << F.Blocks[B].Label;
    EXPECT_EQ(Vs.size(), L.liveCountAt(B));
  }
  // At 'body', a..d and m are live (z is redefined). Param m is id 0.
  std::vector<VarId> AtBody = L.liveAt(5);
  ASSERT_EQ(AtBody.size(), 5u);
  EXPECT_EQ(AtBody.front(), 0u);
  EXPECT_EQ(L.maxLive(), 5u);
}
