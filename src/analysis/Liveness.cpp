//===- analysis/Liveness.cpp - Live-variable analysis ----------------------===//

#include "analysis/Liveness.h"

#include <cassert>

using namespace ceal;
using namespace ceal::analysis;
using namespace ceal::cl;

namespace {

void exprUses(const Expr &E, std::vector<VarId> &Out) {
  switch (E.K) {
  case Expr::Const:
    break;
  case Expr::Var:
    Out.push_back(E.V);
    break;
  case Expr::Prim:
    for (VarId V : E.Args)
      Out.push_back(V);
    break;
  case Expr::Index:
    Out.push_back(E.V);
    Out.push_back(E.Idx);
    break;
  }
}

void jumpUses(const Jump &J, std::vector<VarId> &Out) {
  if (J.K == Jump::Tail)
    for (VarId V : J.Args)
      Out.push_back(V);
}

} // namespace

std::vector<VarId> analysis::blockUses(const Function &F, BlockId B) {
  std::vector<VarId> Uses;
  const BasicBlock &BB = F.Blocks[B];
  switch (BB.K) {
  case BasicBlock::Done:
    break;
  case BasicBlock::Cond:
    Uses.push_back(BB.CondVar);
    jumpUses(BB.J1, Uses);
    jumpUses(BB.J2, Uses);
    break;
  case BasicBlock::Cmd: {
    const Command &C = BB.C;
    switch (C.K) {
    case Command::Nop:
      break;
    case Command::Assign:
      exprUses(C.E, Uses);
      break;
    case Command::Store:
      Uses.push_back(C.Base);
      Uses.push_back(C.Idx);
      exprUses(C.E, Uses);
      break;
    case Command::ModrefAlloc:
      for (VarId V : C.Args)
        Uses.push_back(V);
      break;
    case Command::Read:
      Uses.push_back(C.Src);
      break;
    case Command::Write:
      Uses.push_back(C.Ref);
      Uses.push_back(C.Val);
      break;
    case Command::Alloc:
      Uses.push_back(C.SizeVar);
      for (VarId V : C.Args)
        Uses.push_back(V);
      break;
    case Command::Call:
      for (VarId V : C.Args)
        Uses.push_back(V);
      break;
    }
    jumpUses(BB.J, Uses);
    break;
  }
  }
  return Uses;
}

VarId analysis::blockDef(const Function &F, BlockId B) {
  const BasicBlock &BB = F.Blocks[B];
  if (BB.K != BasicBlock::Cmd)
    return InvalidId;
  const Command &C = BB.C;
  switch (C.K) {
  case Command::Assign:
  case Command::ModrefAlloc:
  case Command::Read:
  case Command::Alloc:
    return C.Dst;
  default:
    return InvalidId;
  }
}

LivenessInfo analysis::computeLiveness(const Function &F,
                                       const ProgramGraph &G) {
  size_t NumBlocks = F.Blocks.size();
  size_t NumVars = F.Vars.size();
  assert(G.size() == NumBlocks + 2 && "program graph of another function");

  // A block is a single command: its uses are read before its (single)
  // def, and the def of `x := e` does not kill a use of x in e, so
  // LiveIn = Use ∪ (LiveOut \ Def) is exact at block granularity.
  std::vector<BitVec> Use(NumBlocks, BitVec(NumVars));
  std::vector<VarId> Def(NumBlocks);
  for (BlockId B = 0; B < NumBlocks; ++B) {
    for (VarId V : blockUses(F, B))
      Use[B].set(V);
    Def[B] = blockDef(F, B);
  }

  // Every block starts at the empty set and is on the worklist; the
  // highest block id is popped first (the builder lays blocks out
  // roughly in control order, so this approximates a backward order).
  LivenessInfo Info;
  Info.LiveIn.assign(NumBlocks, BitVec(NumVars));
  std::vector<BlockId> Work(NumBlocks);
  for (BlockId B = 0; B < NumBlocks; ++B)
    Work[B] = B;
  std::vector<bool> InWork(NumBlocks, true);
  BitVec In(NumVars);
  while (!Work.empty()) {
    BlockId B = Work.back();
    Work.pop_back();
    InWork[B] = false;

    In.clearAll();
    for (uint32_t S : G.Succs[ProgramGraph::blockNode(B)])
      In.unionWith(Info.LiveIn[ProgramGraph::nodeBlock(S)]);
    if (Def[B] != InvalidId)
      In.reset(Def[B]);
    In.unionWith(Use[B]);
    if (In == Info.LiveIn[B])
      continue;
    Info.LiveIn[B] = In;
    // The root and the function node carry no liveness of their own.
    for (uint32_t P : G.Preds[ProgramGraph::blockNode(B)]) {
      if (!ProgramGraph::isBlockNode(P))
        continue;
      BlockId PB = ProgramGraph::nodeBlock(P);
      if (!InWork[PB]) {
        InWork[PB] = true;
        Work.push_back(PB);
      }
    }
  }
  return Info;
}
