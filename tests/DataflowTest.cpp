//===- tests/DataflowTest.cpp - BitVec, solver, dominator edge cases ------===//
//
// Unit tests for the dataflow framework underneath the analyses:
//
//  * BitVec: word-boundary behavior, meet operations, iteration order.
//  * solveDataflow on hand-built edge-case CFGs — unreachable blocks,
//    self-loops, and irreducible graphs — for both meets and both
//    directions, checked against fixpoints worked by hand.
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
  G.Entries = {0};
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

TEST(Dataflow, SelfLoopForwardUnion) {
  // 0 -> 1, 1 -> 1 (self-loop), 1 -> 2. Gen at each block is its own id.
  BlockCfg G = makeCfg(3, {{0, 1}, {1, 1}, {1, 2}}, {2});
  DataflowProblem P;
  P.Dir = Direction::Forward;
  P.M = Meet::Union;
  P.DomainSize = 3;
  P.Transfer.resize(3);
  for (uint32_t B = 0; B < 3; ++B) {
    P.Transfer[B].Gen = bv(3, {B});
    P.Transfer[B].Kill = BitVec(3);
  }
  P.Boundary = BitVec(3);
  DataflowResult R = solveDataflow(G, P);
  EXPECT_EQ(R.In[1], bv(3, {0, 1})); // Its own Out flows around the loop.
  EXPECT_EQ(R.Out[1], bv(3, {0, 1}));
  EXPECT_EQ(R.In[2], bv(3, {0, 1}));
}

TEST(Dataflow, UnreachableBlocksKeepTopUnderIntersect) {
  // Block 2 is disconnected; under an intersect meet it must stay at
  // top (the solver never visits an edge into it), and consumers filter
  // on Reachable.
  BlockCfg G = makeCfg(3, {{0, 1}}, {1});
  DataflowProblem P;
  P.Dir = Direction::Forward;
  P.M = Meet::Intersect;
  P.DomainSize = 4;
  P.Transfer.resize(3);
  for (uint32_t B = 0; B < 3; ++B) {
    P.Transfer[B].Gen = BitVec(4);
    P.Transfer[B].Kill = BitVec(4);
  }
  P.Transfer[0].Gen = bv(4, {0});
  P.Boundary = BitVec(4); // Entry starts empty.
  DataflowResult R = solveDataflow(G, P);
  EXPECT_FALSE(G.Reachable[2]);
  EXPECT_EQ(R.In[1], bv(4, {0}));
  EXPECT_EQ(R.In[2].count(), 4u); // Top.
}

TEST(Dataflow, BoundaryNodeWithPredecessorsMeetsBoth) {
  // The entry has a back edge into it: 0 -> 1 -> 0, 1 -> 2. Under a
  // forward intersect with a full boundary, facts killed around the
  // loop must drain out of In[0] too — the boundary is a virtual edge,
  // not a clamp.
  BlockCfg G = makeCfg(3, {{0, 1}, {1, 0}, {1, 2}}, {2});
  DataflowProblem P;
  P.Dir = Direction::Forward;
  P.M = Meet::Intersect;
  P.DomainSize = 2;
  P.Transfer.resize(3);
  for (uint32_t B = 0; B < 3; ++B) {
    P.Transfer[B].Gen = BitVec(2);
    P.Transfer[B].Kill = BitVec(2);
  }
  P.Transfer[1].Kill = bv(2, {1}); // The loop body kills fact 1.
  P.Boundary = bv(2, {0, 1});
  DataflowResult R = solveDataflow(G, P);
  EXPECT_EQ(R.In[0], bv(2, {0})); // Fact 1 lost via the back edge.
  EXPECT_EQ(R.In[2], bv(2, {0}));
}

TEST(Dataflow, IrreducibleGraphConverges) {
  // The classic irreducible shape: 0 -> {1, 2}, 1 <-> 2, both exit to 3.
  // No natural loop header; the solver must still reach the unique
  // greatest fixpoint.
  BlockCfg G = makeCfg(4, {{0, 1}, {0, 2}, {1, 2}, {2, 1}, {1, 3}, {2, 3}},
                       {3});
  DataflowProblem P;
  P.Dir = Direction::Forward;
  P.M = Meet::Union;
  P.DomainSize = 4;
  P.Transfer.resize(4);
  for (uint32_t B = 0; B < 4; ++B) {
    P.Transfer[B].Gen = bv(4, {B});
    P.Transfer[B].Kill = BitVec(4);
  }
  P.Boundary = BitVec(4);
  DataflowResult R = solveDataflow(G, P);
  EXPECT_EQ(R.In[1], bv(4, {0, 1, 2})); // Via 0 and via the 2 -> 1 edge.
  EXPECT_EQ(R.In[2], bv(4, {0, 1, 2}));
  EXPECT_EQ(R.In[3], bv(4, {0, 1, 2}));
}

TEST(Dataflow, BackwardIntersectMultipleExits) {
  // Diamond with two exits: 0 -> 1 -> 3(exit), 0 -> 2(exit). Backward
  // intersect with empty boundary at exits: everything must drain.
  BlockCfg G = makeCfg(4, {{0, 1}, {0, 2}, {1, 3}}, {2, 3});
  DataflowProblem P;
  P.Dir = Direction::Backward;
  P.M = Meet::Intersect;
  P.DomainSize = 3;
  P.Transfer.resize(4);
  for (uint32_t B = 0; B < 4; ++B) {
    P.Transfer[B].Gen = BitVec(3);
    P.Transfer[B].Kill = BitVec(3);
  }
  P.Transfer[1].Gen = bv(3, {1}); // Only the 0 -> 1 path generates.
  P.Boundary = BitVec(3);
  DataflowResult R = solveDataflow(G, P);
  // Backward: In of a block is its flow-out toward predecessors.
  EXPECT_EQ(R.In[1], bv(3, {1}));
  EXPECT_TRUE(R.In[0].none()); // Intersect of {1} (via 1) and {} (via 2).
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
