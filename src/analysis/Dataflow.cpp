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

  G.Reachable.assign(N, false);
  std::deque<BlockId> Work;
  if (N > 0) {
    G.Reachable[0] = true;
    Work.push_back(0);
  }
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
  BitVec Boundary = P.Boundary.size() == P.DomainSize
                        ? P.Boundary
                        : BitVec(P.DomainSize);

  DataflowResult R;
  R.In.assign(N, BitVec(P.DomainSize));
  R.Out.assign(N, BitVec(P.DomainSize));
  std::vector<bool> IsExit(N, false);
  for (BlockId B : G.Exits)
    IsExit[B] = true;

  // Seed every block in descending id order (a cheap approximation of
  // reverse postorder on the reversed graph, given how the builder lays
  // blocks out).
  std::deque<BlockId> Work;
  std::vector<bool> InWork(N, true);
  for (size_t I = 0; I < N; ++I)
    Work.push_back(static_cast<BlockId>(N - 1 - I));

  while (!Work.empty()) {
    BlockId B = Work.front();
    Work.pop_front();
    InWork[B] = false;

    // Out = union of the successors' In; an exit additionally has a
    // virtual edge carrying the boundary value (so an exit that loops
    // back still meets Boundary, not just its successors).
    BitVec Out = IsExit[B] ? Boundary : BitVec(P.DomainSize);
    for (BlockId S : G.Succs[B])
      Out.unionWith(R.In[S]);
    R.Out[B] = Out;
    // In = Gen ∪ (Out \ Kill).
    Out.subtract(P.Transfer[B].Kill);
    Out.unionWith(P.Transfer[B].Gen);
    if (Out != R.In[B]) {
      R.In[B] = std::move(Out);
      for (BlockId Pd : G.Preds[B])
        if (!InWork[Pd]) {
          InWork[Pd] = true;
          Work.push_back(Pd);
        }
    }
  }
  return R;
}
