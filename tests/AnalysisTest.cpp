//===- tests/AnalysisTest.cpp - Dominators, liveness, program graphs ------===//
//
// The analyses NORMALIZE runs on each function's rooted program graph:
//
//  * Dominators: hand-worked examples (including the paper's
//    expression-tree graph of Figs. 8-9), pathological shapes
//    (unreachable nodes, self-loops, irreducible joins), and an O(V*E)
//    brute-force oracle on random rooted digraphs.
//  * BitVec: word-boundary behavior, union, iteration order.
//  * Liveness on CL functions of hand-picked CFG shapes — self-loops,
//    unreachable blocks, exits that loop back, irreducible graphs —
//    checked against fixpoints worked by hand, and its ascending VarId
//    order (closure layouts depend on it).
//  * A seeded property sweep over random CL functions with backward and
//    irreducible gotos: liveness against a brute-force path oracle,
//    dominators against the brute-force oracle, and NORMALIZE's output
//    against the normal-form predicate and the verifier.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/ProgramGraph.h"
#include "cl/Builder.h"
#include "cl/Parser.h"
#include "cl/Samples.h"
#include "cl/Verifier.h"
#include "normalize/Normalize.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace ceal;
using namespace ceal::analysis;
using namespace ceal::cl;

namespace {

/// A rooted digraph over \p N nodes, rooted at ProgramGraph::Root.
ProgramGraph makeGraph(uint32_t N,
                       std::initializer_list<std::pair<uint32_t, uint32_t>> Es) {
  ProgramGraph G;
  G.Succs.assign(N, {});
  G.Preds.assign(N, {});
  G.IsReadEntry.assign(N, false);
  for (auto [A, B] : Es) {
    G.Succs[A].push_back(B);
    G.Preds[B].push_back(A);
  }
  return G;
}

/// Brute-force dominators: node d dominates n iff removing d makes n
/// unreachable from the root.
std::vector<uint32_t> bruteForceIdom(const ProgramGraph &G) {
  constexpr uint32_t Root = ProgramGraph::Root;
  size_t N = G.size();
  auto ReachableWithout = [&](uint32_t Removed) {
    std::vector<bool> Seen(N, false);
    if (Root == Removed)
      return Seen;
    std::vector<uint32_t> Stack{Root};
    Seen[Root] = true;
    while (!Stack.empty()) {
      uint32_t V = Stack.back();
      Stack.pop_back();
      for (uint32_t S : G.Succs[V]) {
        if (S == Removed || Seen[S])
          continue;
        Seen[S] = true;
        Stack.push_back(S);
      }
    }
    return Seen;
  };
  std::vector<bool> Reach = ReachableWithout(InvalidNode);
  // Dominators[n] = set of d that dominate n.
  std::vector<std::vector<bool>> Dom(N, std::vector<bool>(N, false));
  for (uint32_t D = 0; D < N; ++D) {
    std::vector<bool> Without = ReachableWithout(D);
    for (uint32_t V = 0; V < N; ++V)
      if (Reach[V] && (!Without[V] || D == V))
        Dom[V][D] = true;
  }
  std::vector<uint32_t> Idom(N, InvalidNode);
  Idom[Root] = Root;
  for (uint32_t V = 0; V < N; ++V) {
    if (!Reach[V] || V == Root)
      continue;
    // The immediate dominator is the strict dominator dominated by all
    // other strict dominators.
    for (uint32_t D = 0; D < N; ++D) {
      if (!Dom[V][D] || D == V)
        continue;
      bool IsImmediate = true;
      for (uint32_t E = 0; E < N && IsImmediate; ++E)
        if (E != V && E != D && Dom[V][E] && !Dom[D][E])
          IsImmediate = false;
      if (IsImmediate) {
        Idom[V] = D;
        break;
      }
    }
  }
  return Idom;
}

ProgramGraph randomGraph(Rng &R, uint32_t N, double EdgeProb) {
  ProgramGraph G = makeGraph(N, {});
  auto Add = [&](uint32_t A, uint32_t B) {
    G.Succs[A].push_back(B);
    G.Preds[B].push_back(A);
  };
  // A random spine keeps most nodes reachable; extra random edges create
  // joins, splits, and cycles.
  for (uint32_t V = 1; V < N; ++V)
    if (R.unit() < 0.8)
      Add(R.below(V), V);
  for (uint32_t A = 0; A < N; ++A)
    for (uint32_t B = 1; B < N; ++B)
      if (A != B && R.unit() < EdgeProb)
        Add(A, B);
  return G;
}

Program parseOrDie(const char *Src) {
  auto R = parseProgram(Src);
  EXPECT_TRUE(R) << R.Error;
  return R ? std::move(*R.Prog) : Program();
}

LivenessInfo liveness(const Function &F) {
  return computeLiveness(F, buildProgramGraph(F));
}

/// The names of the variables live at the start of block \p B.
std::vector<std::string> liveNames(const Function &F, const LivenessInfo &L,
                                   BlockId B) {
  std::vector<std::string> Out;
  for (VarId V : L.liveAt(B))
    Out.push_back(F.Vars[V].Name);
  return Out;
}

using Names = std::vector<std::string>;

} // namespace

//===----------------------------------------------------------------------===//
// Dominators
//===----------------------------------------------------------------------===//

TEST(Dominators, DiamondGraph) {
  //    0 -> 1 -> {2,3} -> 4
  ProgramGraph G =
      makeGraph(5, {{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}});
  auto Idom = computeDominators(G);
  EXPECT_EQ(Idom[1], 0u);
  EXPECT_EQ(Idom[2], 1u);
  EXPECT_EQ(Idom[3], 1u);
  EXPECT_EQ(Idom[4], 1u); // Joins below the branch: idom is the branch.
}

TEST(Dominators, LoopGraph) {
  // 0 -> 1 -> 2 -> 3 -> 1 (back edge), 3 -> 4.
  ProgramGraph G =
      makeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}});
  auto Idom = computeDominators(G);
  EXPECT_EQ(Idom[2], 1u);
  EXPECT_EQ(Idom[3], 2u);
  EXPECT_EQ(Idom[4], 3u);
}

TEST(Dominators, UnreachableNodesGetInvalid) {
  // 2 and 3 form a cycle no path from the root enters.
  ProgramGraph G = makeGraph(4, {{0, 1}, {2, 3}, {3, 2}});
  auto Idom = computeDominators(G);
  EXPECT_EQ(Idom[0], 0u);
  EXPECT_EQ(Idom[1], 0u);
  EXPECT_EQ(Idom[2], InvalidNode);
  EXPECT_EQ(Idom[3], InvalidNode);
  auto Children = dominatorTreeChildren(Idom);
  EXPECT_EQ(Children[0], (std::vector<uint32_t>{1}));
  EXPECT_TRUE(Children[2].empty() && Children[3].empty());
}

TEST(Dominators, SelfLoopDoesNotSelfDominate) {
  ProgramGraph G = makeGraph(3, {{0, 1}, {1, 1}, {1, 2}});
  auto Idom = computeDominators(G);
  EXPECT_EQ(Idom[1], 0u); // The self-edge must not make 1 its own idom.
  EXPECT_EQ(Idom[2], 1u);
}

TEST(Dominators, IrreducibleIdomFallsToRoot) {
  // 0 -> 1, 0 -> 2, 1 <-> 2: neither 1 nor 2 dominates the other, so
  // both have idom 0 despite each being the other's predecessor.
  ProgramGraph G = makeGraph(3, {{0, 1}, {0, 2}, {1, 2}, {2, 1}});
  auto Idom = computeDominators(G);
  EXPECT_EQ(Idom[1], 0u);
  EXPECT_EQ(Idom[2], 0u);
}

TEST(Dominators, PaperExpressionTreeGraph) {
  // The rooted graph of the paper's Fig. 8 for the eval function
  // (nodes: 0=root, 1=eval, and line-numbered blocks 2..18 compressed to
  // the control-relevant ones). We reproduce its stated dominator facts:
  // the units are defined by nodes {1(eval), 3, 11, 12, 18}.
  auto R = parseProgram(samples::ExpTrees);
  ASSERT_TRUE(R) << R.Error;
  const Function &F = R.Prog->Funcs[0];
  ProgramGraph G = buildProgramGraph(F);
  auto Children = dominatorTreeChildren(computeDominators(G));

  // Read entries (kk, n7, n8 in our CL source) must be unit-defining
  // (children of the root), as in Fig. 9.
  auto BlockByLabel = [&](const char *L) -> uint32_t {
    for (BlockId B = 0; B < F.Blocks.size(); ++B)
      if (F.Blocks[B].Label == L)
        return ProgramGraph::blockNode(B);
    ADD_FAILURE() << "no label " << L;
    return 0;
  };
  std::vector<uint32_t> RootKids = Children[ProgramGraph::Root];
  auto Contains = [&](uint32_t N) {
    return std::find(RootKids.begin(), RootKids.end(), N) != RootKids.end();
  };
  EXPECT_TRUE(Contains(ProgramGraph::FuncNode));
  EXPECT_TRUE(Contains(BlockByLabel("kk")));
  EXPECT_TRUE(Contains(BlockByLabel("n7")));
  EXPECT_TRUE(Contains(BlockByLabel("n8")));
  EXPECT_EQ(RootKids.size(), 4u);
}

struct DomRandomParam {
  uint64_t Seed;
  uint32_t Nodes;
  double EdgeProb;
};

class DominatorRandomTest : public ::testing::TestWithParam<DomRandomParam> {};

// Both outputs NORMALIZE reads — the idom array and the dominator tree
// built from it — must match the brute-force oracle.
TEST_P(DominatorRandomTest, BothAlgorithmsMatchBruteForce) {
  auto P = GetParam();
  Rng R(P.Seed);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ProgramGraph G = randomGraph(R, P.Nodes, P.EdgeProb);
    auto Brute = bruteForceIdom(G);
    auto Idom = computeDominators(G);
    ASSERT_EQ(Idom, Brute) << "seed=" << P.Seed << " trial=" << Trial;
    auto Children = dominatorTreeChildren(Idom);
    for (uint32_t N = 0; N < G.size(); ++N)
      for (uint32_t C : Children[N])
        ASSERT_EQ(Brute[C], N) << "seed=" << P.Seed << " trial=" << Trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, DominatorRandomTest,
    ::testing::Values(DomRandomParam{1, 8, 0.05}, DomRandomParam{2, 8, 0.2},
                      DomRandomParam{3, 16, 0.05},
                      DomRandomParam{4, 16, 0.15},
                      DomRandomParam{5, 30, 0.05},
                      DomRandomParam{6, 30, 0.1},
                      DomRandomParam{7, 50, 0.03},
                      DomRandomParam{8, 5, 0.4}));

//===----------------------------------------------------------------------===//
// Program graphs
//===----------------------------------------------------------------------===//

TEST(ProgramGraph, ReadEntriesGetRootEdges) {
  auto R = parseProgram(R"(
func f(modref* m, modref* d) {
  var int x;
  e: x := read m; goto g;
  g: write(d, x); goto h;
  h: done;
}
)");
  ASSERT_TRUE(R) << R.Error;
  ProgramGraph G = buildProgramGraph(R.Prog->Funcs[0]);
  // Nodes: 0 root, 1 func, 2 e, 3 g, 4 h.
  EXPECT_TRUE(G.IsReadEntry[3]);
  EXPECT_FALSE(G.IsReadEntry[2]);
  EXPECT_FALSE(G.IsReadEntry[4]);
  // Root edges: -> func node and -> read entry g.
  EXPECT_EQ(G.Succs[ProgramGraph::Root].size(), 2u);
}

//===----------------------------------------------------------------------===//
// BitVec
//===----------------------------------------------------------------------===//

namespace {

BitVec bv(size_t N, std::initializer_list<uint32_t> Bits) {
  BitVec V(N);
  for (uint32_t B : Bits)
    V.set(B);
  return V;
}

} // namespace

TEST(BitVec, WordBoundaries) {
  // Sizes straddling the 64-bit word boundary.
  for (size_t N : {1u, 63u, 64u, 65u, 128u, 130u}) {
    BitVec V(N);
    EXPECT_EQ(V.count(), 0u);
    V.set(0);
    V.set(static_cast<uint32_t>(N - 1));
    EXPECT_TRUE(V.test(0));
    EXPECT_TRUE(V.test(static_cast<uint32_t>(N - 1)));
    EXPECT_EQ(V.count(), N == 1 ? 1u : 2u);
    V.reset(static_cast<uint32_t>(N - 1));
    EXPECT_EQ(V.count(), N == 1 ? 0u : 1u);
    V.clearAll();
    EXPECT_EQ(V, BitVec(N));
  }
}

TEST(BitVec, MeetOperationsReportChange) {
  // The liveness worklist detects a change by comparing a block's new
  // row with its old one.
  BitVec A = bv(100, {1, 50, 99});
  BitVec B = bv(100, {1, 70});
  BitVec U = A;
  U.unionWith(B);
  EXPECT_FALSE(U == A); // 70 is new.
  EXPECT_EQ(U, bv(100, {1, 50, 70, 99}));
  BitVec Again = U;
  Again.unionWith(B);
  EXPECT_EQ(Again, U); // Fixpoint.
  U.reset(50);
  EXPECT_EQ(U, bv(100, {1, 70, 99}));
}

#ifndef NDEBUG
TEST(BitVecDeathTest, MismatchedSizesAssert) {
  // unionWith indexes the operand's words by this->size(); a smaller
  // operand would be an out-of-bounds read, so mismatched sizes must be
  // rejected up front.
  BitVec A = bv(100, {1});
  BitVec B = bv(64, {1});
  EXPECT_DEATH(A.unionWith(B), "sizes must match");
}
#endif

TEST(BitVec, IterationAscending) {
  BitVec V = bv(200, {199, 0, 64, 63, 65, 3});
  EXPECT_EQ(V.bits(), (std::vector<uint32_t>{0, 3, 63, 64, 65, 199}));
}

//===----------------------------------------------------------------------===//
// Liveness on edge-case CFG shapes
//===----------------------------------------------------------------------===//

// In the shapes below, block bK uses only xK where it can (a call or a
// cond on xK), so its own variable is its "gen" fact, as in a gen-only
// dataflow problem; g is a sink for calls and tails.

TEST(Dataflow, SelfLoopBackwardUnion) {
  // b0 -> b1, b1 -> b1 (self-loop), b1 -> b2 (exit).
  Program P = parseOrDie(R"(
func g(int v) { e: done; }
func f(int x0, int x1, int x2) {
  b0: call g(x0); goto b1;
  b1: if x1 then goto b1 else goto b2;
  b2: nop; tail g(x2);
}
)");
  const Function &F = P.Funcs[P.findFunc("f")];
  LivenessInfo L = liveness(F);
  EXPECT_EQ(liveNames(F, L, 2), (Names{"x2"}));
  EXPECT_EQ(liveNames(F, L, 1), (Names{"x1", "x2"})); // Around the loop.
  EXPECT_EQ(liveNames(F, L, 0), (Names{"x0", "x1", "x2"}));
}

TEST(Dataflow, UnreachableBlocksAreStillSolved) {
  // b2 is unreachable from the entry but flows into b1. It is solved
  // like any other block (liveness reports facts in dead code too).
  Program P = parseOrDie(R"(
func g(int v) { e: done; }
func f(int x0, int x1, int x2) {
  b0: call g(x0); goto b1;
  b1: nop; tail g(x1);
  b2: call g(x2); goto b1;
}
)");
  const Function &F = P.Funcs[P.findFunc("f")];
  ProgramGraph G = buildProgramGraph(F);
  EXPECT_EQ(computeDominators(G)[ProgramGraph::blockNode(2)], InvalidNode);
  LivenessInfo L = computeLiveness(F, G);
  EXPECT_EQ(liveNames(F, L, 2), (Names{"x1", "x2"}));
  EXPECT_EQ(liveNames(F, L, 0), (Names{"x0", "x1"}));
}

TEST(Dataflow, BoundaryNodeWithPredecessorsMeetsBoth) {
  // A cond that leaves the function on one arm and loops back on the
  // other: its live-in meets both the tail's uses and its successor's
  // live-in — leaving is one more use, not a clamp.
  Program P = parseOrDie(R"(
func g(int v) { e: done; }
func f(int a, int b) {
  var int c;
  b0: c := lt(b, b); goto b1;
  b1: if c then tail g(a) else goto b0;
}
)");
  const Function &F = P.Funcs[P.findFunc("f")];
  LivenessInfo L = liveness(F);
  EXPECT_EQ(liveNames(F, L, 1), (Names{"a", "b", "c"})); // Tail + back edge.
  EXPECT_EQ(liveNames(F, L, 0), (Names{"a", "b"}));      // c is redefined.
}

TEST(Dataflow, IrreducibleGraphConverges) {
  // The classic irreducible shape: b0 -> {b1, b2}, b1 <-> b2, both exit
  // to b3. No natural loop header; the worklist must still reach the
  // unique least fixpoint.
  Program P = parseOrDie(R"(
func g(int v) { e: done; }
func f(int x0, int x1, int x2, int x3) {
  b0: if x0 then goto b1 else goto b2;
  b1: if x1 then goto b2 else goto b3;
  b2: if x2 then goto b1 else goto b3;
  b3: nop; tail g(x3);
}
)");
  const Function &F = P.Funcs[P.findFunc("f")];
  LivenessInfo L = liveness(F);
  EXPECT_EQ(liveNames(F, L, 1), (Names{"x1", "x2", "x3"})); // Via b3, b2.
  EXPECT_EQ(liveNames(F, L, 2), (Names{"x1", "x2", "x3"}));
  EXPECT_EQ(liveNames(F, L, 0), (Names{"x0", "x1", "x2", "x3"}));
}

TEST(Dataflow, BackwardUnionMultipleExits) {
  // Diamond with two exits: b0 -> b1 -> b3 (exit), b0 -> b2 (exit). Only
  // the b1 path uses x; the union at b0 keeps it.
  Program P = parseOrDie(R"(
func g(int v) { e: done; }
func f(int c, int x) {
  b0: if c then goto b1 else goto b2;
  b1: call g(x); goto b3;
  b2: done;
  b3: done;
}
)");
  const Function &F = P.Funcs[P.findFunc("f")];
  LivenessInfo L = liveness(F);
  EXPECT_EQ(liveNames(F, L, 1), (Names{"x"}));
  EXPECT_TRUE(L.liveAt(2).empty());
  EXPECT_EQ(liveNames(F, L, 0), (Names{"c", "x"}));
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

TEST(Liveness, StraightLine) {
  auto R = parseProgram(R"(
func f(int a, int b, modref* d) {
  var int x; var int y;
  e: x := add(a, b); goto g;
  g: y := mul(x, x); goto h;
  h: write(d, y); goto i;
  i: done;
}
)");
  ASSERT_TRUE(R) << R.Error;
  const Function &F = R.Prog->Funcs[0];
  LivenessInfo L = liveness(F);
  // At e: a, b, d live. At g: x, d. At h: y, d. At i: nothing.
  EXPECT_EQ(L.liveAt(0), (std::vector<VarId>{0, 1, 2}));
  EXPECT_EQ(L.liveAt(1), (std::vector<VarId>{2, 3}));
  EXPECT_EQ(L.liveAt(2), (std::vector<VarId>{2, 4}));
  EXPECT_TRUE(L.liveAt(3).empty());
  EXPECT_EQ(L.maxLive(), 3u);
}

TEST(Liveness, LoopKeepsInductionVariablesLive) {
  auto R = parseProgram(R"(
func f(int n, modref* d) {
  var int i; var int c;
  init: i := 0; goto test;
  test: c := lt(i, n); goto br;
  br: if c then goto body else goto out;
  body: i := add(i, n); goto test;
  out: write(d, i); goto fin;
  fin: done;
}
)");
  ASSERT_TRUE(R) << R.Error;
  LivenessInfo L = liveness(R.Prog->Funcs[0]);
  // At test: i, n, d all live (loop).
  std::vector<VarId> AtTest = L.liveAt(1);
  EXPECT_EQ(AtTest, (std::vector<VarId>{0, 1, 2}));
}

TEST(Liveness, DefWithoutUseKillsLiveness) {
  auto R = parseProgram(R"(
func f(int a, modref* d) {
  var int x;
  e: x := 1; goto g;
  g: x := a; goto h;
  h: write(d, x); goto i;
  i: done;
}
)");
  ASSERT_TRUE(R) << R.Error;
  LivenessInfo L = liveness(R.Prog->Funcs[0]);
  // x is dead at e's start (redefined at g before any use).
  for (VarId V : L.liveAt(0))
    EXPECT_NE(V, 2u) << "x must not be live at entry";
}

TEST(Liveness, TailArgsAreUses) {
  auto R = parseProgram(R"(
func f(int a, int b) {
  e: nop; tail f(b, a);
}
)");
  ASSERT_TRUE(R) << R.Error;
  LivenessInfo L = liveness(R.Prog->Funcs[0]);
  EXPECT_EQ(L.liveAt(0), (std::vector<VarId>{0, 1}));
}

TEST(Liveness, LiveAtAscendingVarOrder) {
  // Closure environment layouts take liveAt's order verbatim; it must
  // be ascending VarId no matter in which order the worklist discovered
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
  LivenessInfo L = liveness(F);
  for (BlockId B = 0; B < F.Blocks.size(); ++B) {
    std::vector<VarId> Vs = L.liveAt(B);
    EXPECT_TRUE(std::is_sorted(Vs.begin(), Vs.end()))
        << "block " << F.Blocks[B].Label;
    EXPECT_EQ(Vs.size(), L.LiveIn[B].count());
  }
  // At 'body', a..d and m are live (z is redefined). Param m is id 0.
  std::vector<VarId> AtBody = L.liveAt(5);
  ASSERT_EQ(AtBody.size(), 5u);
  EXPECT_EQ(AtBody.front(), 0u);
  EXPECT_EQ(L.maxLive(), 5u);
}

//===----------------------------------------------------------------------===//
// Random functions with loops: liveness, dominators, NORMALIZE
//===----------------------------------------------------------------------===//

namespace {

/// A random CL function together with what the generator knows it
/// emitted: each block's used variables, defined variable and goto
/// targets. The oracles below read these, not the analyses' helpers.
struct LoopyFunc {
  Program Prog;
  FuncId Fn = 0;
  std::vector<std::vector<VarId>> Uses;
  std::vector<VarId> Def;
  std::vector<std::vector<BlockId>> Succs;
};

/// Builds `f(int p0, int p1, modref* m)` with locals and 4-14 blocks whose
/// gotos target any block — backward, self and forward — so loops and
/// irreducible regions are common, plus `g(int)` as a call/tail sink.
/// Functions are analyzed and normalized, never executed.
LoopyFunc randomLoopyFunction(Rng &R) {
  LoopyFunc Out;
  ProgramBuilder PB;
  FuncBuilder G = PB.beginFunc("g");
  G.param("v", Type::intTy());
  G.setDone(G.block());
  FuncBuilder FB = PB.beginFunc("f");
  Out.Fn = FB.id();
  std::vector<VarId> Ints{FB.param("p0", Type::intTy()),
                          FB.param("p1", Type::intTy())};
  VarId M = FB.param("m", Type::ptrTo(Type::modrefTy()));
  for (const char *Name : {"t0", "t1", "t2", "t3"})
    Ints.push_back(FB.local(Name, Type::intTy()));

  unsigned NumBlocks = 4 + static_cast<unsigned>(R.below(11));
  for (unsigned B = 0; B < NumBlocks; ++B)
    FB.block();
  Out.Uses.assign(NumBlocks, {});
  Out.Def.assign(NumBlocks, InvalidId);
  Out.Succs.assign(NumBlocks, {});

  auto RandInt = [&] { return Ints[R.below(Ints.size())]; };
  for (BlockId B = 0; B < NumBlocks; ++B) {
    std::vector<VarId> &Uses = Out.Uses[B];
    // A jump: mostly a goto anywhere, sometimes a tail to g.
    auto RandJump = [&] {
      if (R.below(6) == 0) {
        VarId A = RandInt();
        Uses.push_back(A);
        return Jump::tailCall(G.id(), {A});
      }
      BlockId T = static_cast<BlockId>(R.below(NumBlocks));
      Out.Succs[B].push_back(T);
      return Jump::gotoBlock(T);
    };
    unsigned Kind = R.below(10);
    if (Kind == 0 && B > 0) {
      FB.setDone(B);
      continue;
    }
    if (Kind <= 3) {
      VarId C = RandInt();
      Uses.push_back(C);
      Jump Then = RandJump();
      Jump Else = RandJump();
      FB.setCond(B, C, std::move(Then), std::move(Else));
      continue;
    }
    Command Cmd;
    switch (R.below(6)) {
    case 0: {
      VarId X = RandInt(), Y = RandInt();
      Uses.insert(Uses.end(), {X, Y});
      Cmd = FuncBuilder::assign(RandInt(),
                                Expr::makePrim(OpKind::Add, {X, Y}));
      break;
    }
    case 1: {
      VarId X = RandInt();
      Uses.push_back(X);
      Cmd = FuncBuilder::assign(RandInt(), Expr::makeVar(X));
      break;
    }
    case 2:
      Cmd = FuncBuilder::assign(RandInt(),
                                Expr::makeConst(int64_t(R.below(9))));
      break;
    case 3:
      Uses.push_back(M);
      Cmd = FuncBuilder::read(RandInt(), M);
      break;
    case 4: {
      VarId X = RandInt();
      Uses.insert(Uses.end(), {M, X});
      Cmd = FuncBuilder::write(M, X);
      break;
    }
    default: {
      VarId X = RandInt();
      Uses.push_back(X);
      Cmd = FuncBuilder::call(G.id(), {X});
      break;
    }
    }
    if (Cmd.K == Command::Assign || Cmd.K == Command::Read)
      Out.Def[B] = Cmd.Dst;
    FB.setCmd(B, std::move(Cmd), RandJump());
  }
  Out.Prog = PB.take();
  return Out;
}

/// Brute force: v is live at the start of b iff some path from b reaches
/// a block that uses v before any block on the way (b included, the user
/// excluded) defines it. A block reads its uses before its def.
bool liveByPaths(const LoopyFunc &LF, BlockId From, VarId V) {
  auto Uses = [&](BlockId B) {
    return std::find(LF.Uses[B].begin(), LF.Uses[B].end(), V) !=
           LF.Uses[B].end();
  };
  std::vector<bool> Seen(LF.Uses.size(), false);
  std::vector<BlockId> Stack{From};
  Seen[From] = true;
  while (!Stack.empty()) {
    BlockId B = Stack.back();
    Stack.pop_back();
    if (Uses(B))
      return true;
    if (LF.Def[B] == V)
      continue;
    for (BlockId S : LF.Succs[B])
      if (!Seen[S]) {
        Seen[S] = true;
        Stack.push_back(S);
      }
  }
  return false;
}

/// True iff \p F's block graph has a goto to the same or an earlier block.
bool hasBackwardGoto(const LoopyFunc &LF) {
  for (BlockId B = 0; B < LF.Succs.size(); ++B)
    for (BlockId S : LF.Succs[B])
      if (S <= B)
        return true;
  return false;
}

/// True iff some cycle of \p G reachable from the root is entered other
/// than through a node that dominates the rest of it: a DFS edge u -> v
/// to a node v on the stack where v does not dominate u.
bool isIrreducible(const ProgramGraph &G, const std::vector<uint32_t> &Idom) {
  auto Dominates = [&](uint32_t D, uint32_t N) {
    for (; N != ProgramGraph::Root; N = Idom[N])
      if (N == D)
        return true;
    return D == ProgramGraph::Root;
  };
  std::vector<uint8_t> State(G.size(), 0); // 1 on the stack, 2 finished.
  std::vector<std::pair<uint32_t, size_t>> Stack{{ProgramGraph::Root, 0}};
  State[ProgramGraph::Root] = 1;
  while (!Stack.empty()) {
    auto &[N, Next] = Stack.back();
    if (Next == G.Succs[N].size()) {
      State[N] = 2;
      Stack.pop_back();
      continue;
    }
    uint32_t S = G.Succs[N][Next++];
    if (State[S] == 1 && !Dominates(S, N))
      return true;
    if (State[S] == 0) {
      State[S] = 1;
      Stack.push_back({S, 0});
    }
  }
  return false;
}

} // namespace

TEST(AnalysisProperty, RandomLoopyFunctionsMatchOracles) {
  Rng R(0xa11ce5);
  unsigned WithBackEdges = 0, WithIrreducible = 0, WithReadEntries = 0;
  for (int Trial = 0; Trial < 1000; ++Trial) {
    LoopyFunc LF = randomLoopyFunction(R);
    const Function &F = LF.Prog.Funcs[LF.Fn];
    ASSERT_TRUE(verifyProgramDiags(LF.Prog).empty()) << "trial " << Trial;
    WithBackEdges += hasBackwardGoto(LF);

    ProgramGraph G = buildProgramGraph(F);
    WithReadEntries +=
        std::count(G.IsReadEntry.begin(), G.IsReadEntry.end(), true) > 0;
    std::vector<uint32_t> Idom = bruteForceIdom(G);
    ASSERT_EQ(computeDominators(G), Idom) << "trial " << Trial;
    WithIrreducible += isIrreducible(G, Idom);

    LivenessInfo L = computeLiveness(F, G);
    for (BlockId B = 0; B < F.Blocks.size(); ++B)
      for (VarId V = 0; V < F.Vars.size(); ++V)
        ASSERT_EQ(L.LiveIn[B].test(V), liveByPaths(LF, B, V))
            << "trial " << Trial << " block " << B << " var "
            << F.Vars[V].Name;

    Program Norm = normalize::normalizeProgram(LF.Prog).Prog;
    ASSERT_TRUE(isNormalForm(Norm)) << "trial " << Trial;
    ASSERT_TRUE(verifyProgramDiags(Norm).empty()) << "trial " << Trial;
  }
  // The sweep must exercise loops, irreducible regions and functions
  // with read entries (several units).
  EXPECT_GT(WithBackEdges, 900u);
  EXPECT_GT(WithIrreducible, 100u);
  EXPECT_GT(WithReadEntries, 400u);
}
