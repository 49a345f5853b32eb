//===- analysis/Dataflow.cpp - Generic dataflow framework ------------------===//

#include "analysis/Dataflow.h"

#include <cassert>
#include <deque>

using namespace ceal;
using namespace ceal::analysis;
using namespace ceal::cl;

BlockCfg BlockCfg::build(const Function &F) {
  size_t N = F.Blocks.size();
  BlockCfg G;
  G.Succs.resize(N);
  G.Preds.resize(N);
  for (BlockId B = 0; B < N; ++B) {
    const BasicBlock &BB = F.Blocks[B];
    auto Add = [&](const Jump &J) {
      if (J.K == Jump::Goto) {
        G.Succs[B].push_back(J.Target);
        G.Preds[J.Target].push_back(B);
      }
    };
    if (BB.K == BasicBlock::Cond) {
      Add(BB.J1);
      Add(BB.J2);
    } else if (BB.K == BasicBlock::Cmd) {
      Add(BB.J);
    }
    bool IsExit = BB.K == BasicBlock::Done ||
                  (BB.K == BasicBlock::Cmd && BB.J.K == Jump::Tail) ||
                  (BB.K == BasicBlock::Cond &&
                   (BB.J1.K == Jump::Tail || BB.J2.K == Jump::Tail));
    if (IsExit)
      G.Exits.push_back(B);
  }
  if (N > 0)
    G.Entries.push_back(0);

  G.Reachable.assign(N, false);
  std::deque<BlockId> Work(G.Entries.begin(), G.Entries.end());
  for (BlockId E : G.Entries)
    G.Reachable[E] = true;
  while (!Work.empty()) {
    BlockId B = Work.front();
    Work.pop_front();
    for (BlockId S : G.Succs[B])
      if (!G.Reachable[S]) {
        G.Reachable[S] = true;
        Work.push_back(S);
      }
  }
  return G;
}

DataflowResult analysis::solveDataflow(const BlockCfg &G,
                                       const DataflowProblem &P) {
  size_t N = G.size();
  assert(P.Transfer.size() == N && "one transfer function per block");
  bool Fwd = P.Dir == Direction::Forward;
  BitVec Boundary = P.Boundary.size() == P.DomainSize
                        ? P.Boundary
                        : BitVec(P.DomainSize);

  DataflowResult R;
  R.In.assign(N, BitVec(P.DomainSize));
  R.Out.assign(N, BitVec(P.DomainSize));

  // "MeetIn" is the meet-side slot (In for forward, Out for backward);
  // "FlowOut" the transfer output. Initialize the meet side: bottom for
  // union problems, top (universe) for intersection problems — except at
  // boundary nodes, which hold the boundary value.
  std::vector<BitVec> &MeetIn = Fwd ? R.In : R.Out;
  std::vector<BitVec> &FlowOut = Fwd ? R.Out : R.In;
  const std::vector<std::vector<BlockId>> &MeetPreds =
      Fwd ? G.Preds : G.Succs;
  const std::vector<std::vector<BlockId>> &FlowSuccs =
      Fwd ? G.Succs : G.Preds;
  const std::vector<BlockId> &BoundaryNodes = Fwd ? G.Entries : G.Exits;

  std::vector<bool> IsBoundary(N, false);
  for (BlockId B : BoundaryNodes)
    IsBoundary[B] = true;

  if (P.M == Meet::Intersect)
    for (size_t B = 0; B < N; ++B)
      MeetIn[B].setAll();
  for (BlockId B : BoundaryNodes)
    MeetIn[B] = Boundary;

  auto Apply = [&](size_t B) {
    // FlowOut = Gen ∪ (MeetIn \ Kill).
    BitVec V = MeetIn[B];
    V.subtract(P.Transfer[B].Kill);
    V.unionWith(P.Transfer[B].Gen);
    bool Changed = V != FlowOut[B];
    FlowOut[B] = std::move(V);
    return Changed;
  };

  // Prime every FlowOut from the initialized meet side. Without this,
  // an intersect problem reading a back edge before its source block is
  // processed would meet with an empty (bottom) FlowOut and wrongly
  // drain the set — descending from top requires starting at top.
  for (size_t B = 0; B < N; ++B)
    Apply(B);

  // Seed every node in a deterministic flow order: ascending block id
  // for forward problems, descending for backward (cheap approximations
  // of RPO that match how the builder lays blocks out).
  std::deque<BlockId> Work;
  std::vector<bool> InWork(N, true);
  for (size_t I = 0; I < N; ++I)
    Work.push_back(static_cast<BlockId>(Fwd ? I : N - 1 - I));

  while (!Work.empty()) {
    BlockId B = Work.front();
    Work.pop_front();
    InWork[B] = false;

    // Meet over incoming edges; a boundary node additionally has a
    // virtual edge carrying the boundary value (so a loop back to the
    // entry still meets with Boundary, not just its predecessors).
    if (IsBoundary[B] || !MeetPreds[B].empty()) {
      BitVec V(P.DomainSize);
      if (IsBoundary[B])
        V = Boundary;
      else if (P.M == Meet::Intersect)
        V.setAll();
      for (BlockId Pd : MeetPreds[B]) {
        if (P.M == Meet::Intersect)
          V.intersectWith(FlowOut[Pd]);
        else
          V.unionWith(FlowOut[Pd]);
      }
      MeetIn[B] = std::move(V);
    }
    if (Apply(B))
      for (BlockId S : FlowSuccs[B])
        if (!InWork[S]) {
          InWork[S] = true;
          Work.push_back(S);
        }
  }
  return R;
}
