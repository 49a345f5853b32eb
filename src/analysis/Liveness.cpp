//===- analysis/Liveness.cpp - Live-variable analysis ----------------------===//

#include "analysis/Liveness.h"

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

std::vector<VarId> analysis::blockDefs(const Function &F, BlockId B) {
  const BasicBlock &BB = F.Blocks[B];
  if (BB.K != BasicBlock::Cmd)
    return {};
  const Command &C = BB.C;
  switch (C.K) {
  case Command::Assign:
  case Command::ModrefAlloc:
  case Command::Read:
  case Command::Alloc:
    return {C.Dst};
  default:
    return {};
  }
}

LivenessInfo analysis::computeLiveness(const Function &F) {
  size_t NumBlocks = F.Blocks.size();
  size_t NumVars = F.Vars.size();

  // Backward union problem over the intra-function CFG. A block is a
  // single command: uses happen before the (single) def, and the def of
  // `x := e` does not kill a use of x in e — uses are read first, so
  // LiveIn = Use ∪ (LiveOut \ Def) is exact at block granularity.
  DataflowProblem P;
  P.DomainSize = NumVars;
  P.Transfer.resize(NumBlocks);
  for (BlockId B = 0; B < NumBlocks; ++B) {
    GenKill &T = P.Transfer[B];
    T.Gen = BitVec(NumVars);
    T.Kill = BitVec(NumVars);
    for (VarId V : blockDefs(F, B))
      T.Kill.set(V);
    for (VarId V : blockUses(F, B))
      T.Gen.set(V);
  }

  LivenessInfo Info;
  Info.LiveIn =
      std::move(solveDataflow(BlockCfg::build(F), P).In);
  return Info;
}
