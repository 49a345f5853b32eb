//===- cl/Verifier.cpp - CL structural checks ------------------------------===//

#include "cl/Verifier.h"

using namespace ceal;
using namespace ceal::cl;

namespace {

class Verifier {
public:
  explicit Verifier(const Program &P) : Prog(P) {}

  std::vector<Diagnostic> run() {
    for (FuncId I = 0; I < Prog.Funcs.size(); ++I)
      function(I);
    return std::move(Diags);
  }

private:
  void diag(const std::string &Msg) {
    Diagnostic D;
    D.Function = CurFuncId;
    D.Block = CurBlock;
    D.Index = CurIndex;
    D.Message = Msg;
    Diags.push_back(std::move(D));
  }

  void checkVar(VarId V, const char *What) {
    if (V == InvalidId || V >= CurFunc->Vars.size())
      diag(std::string("invalid variable reference in ") + What);
  }

  void checkVars(const std::vector<VarId> &Vs, const char *What) {
    for (VarId V : Vs)
      checkVar(V, What);
  }

  void checkFuncRef(FuncId F, size_t NumArgs, const char *What) {
    if (F == InvalidId || F >= Prog.Funcs.size()) {
      diag(std::string("invalid function reference in ") + What);
      return;
    }
    if (Prog.Funcs[F].NumParams != NumArgs)
      diag(std::string(What) + " to '" + Prog.Funcs[F].Name + "' passes " +
           std::to_string(NumArgs) + " arguments, expected " +
           std::to_string(Prog.Funcs[F].NumParams));
  }

  void checkExpr(const Expr &E) {
    switch (E.K) {
    case Expr::Const:
      break;
    case Expr::Var:
      checkVar(E.V, "expression");
      break;
    case Expr::Prim:
      if (E.Args.size() != opArity(E.Op))
        diag(std::string("operator '") + opName(E.Op) +
             "' has wrong operand count");
      checkVars(E.Args, "expression");
      break;
    case Expr::Index:
      checkVar(E.V, "index base");
      checkVar(E.Idx, "index subscript");
      break;
    }
  }

  void checkJump(const Jump &J, const char *Where) {
    if (J.K == Jump::Goto) {
      if (J.Target >= CurFunc->Blocks.size())
        diag(std::string("goto to invalid block in ") + Where);
      return;
    }
    checkFuncRef(J.Fn, J.Args.size(), "tail jump");
    checkVars(J.Args, "tail jump");
  }

  void checkCommand(const Command &C) {
    switch (C.K) {
    case Command::Nop:
      break;
    case Command::Assign:
      checkVar(C.Dst, "assignment");
      checkExpr(C.E);
      break;
    case Command::Store:
      checkVar(C.Base, "store base");
      checkVar(C.Idx, "store subscript");
      checkExpr(C.E);
      break;
    case Command::ModrefAlloc:
      checkVar(C.Dst, "modref()");
      checkVars(C.Args, "modref() key");
      break;
    case Command::Read:
      checkVar(C.Dst, "read");
      checkVar(C.Src, "read");
      if (C.Src < CurFunc->Vars.size() &&
          !CurFunc->Vars[C.Src].Ty.isModrefPtr())
        diag("read of non-modref* variable '" + CurFunc->Vars[C.Src].Name +
             "'");
      break;
    case Command::Write:
      checkVar(C.Ref, "write");
      checkVar(C.Val, "write");
      if (C.Ref < CurFunc->Vars.size() &&
          !CurFunc->Vars[C.Ref].Ty.isModrefPtr())
        diag("write to non-modref* variable '" + CurFunc->Vars[C.Ref].Name +
             "'");
      break;
    case Command::Alloc:
      checkVar(C.Dst, "alloc");
      checkVar(C.SizeVar, "alloc size");
      // The init function receives the block plus the extra arguments.
      checkFuncRef(C.Fn, C.Args.size() + 1, "alloc initializer");
      checkVars(C.Args, "alloc");
      break;
    case Command::Call:
      checkFuncRef(C.Fn, C.Args.size(), "call");
      checkVars(C.Args, "call");
      break;
    }
  }

  void function(FuncId Id) {
    CurFuncId = Id;
    CurFunc = &Prog.Funcs[Id];
    CurBlock = InvalidId;
    CurIndex = 0;
    if (CurFunc->Blocks.empty()) {
      diag("has no blocks");
      return;
    }
    if (CurFunc->NumParams > CurFunc->Vars.size())
      diag("parameter count exceeds variable count");
    for (BlockId B = 0; B < CurFunc->Blocks.size(); ++B) {
      const BasicBlock &BB = CurFunc->Blocks[B];
      CurBlock = B;
      CurIndex = 0;
      switch (BB.K) {
      case BasicBlock::Done:
        break;
      case BasicBlock::Cond:
        checkVar(BB.CondVar, "cond");
        CurIndex = 1;
        checkJump(BB.J1, "cond then");
        CurIndex = 2;
        checkJump(BB.J2, "cond else");
        break;
      case BasicBlock::Cmd:
        checkCommand(BB.C);
        CurIndex = 1;
        checkJump(BB.J, "block jump");
        break;
      }
    }
  }

  const Program &Prog;
  FuncId CurFuncId = InvalidId;
  const Function *CurFunc = nullptr;
  BlockId CurBlock = InvalidId;
  uint32_t CurIndex = 0;
  std::vector<Diagnostic> Diags;
};

} // namespace

std::vector<Diagnostic> cl::verifyProgramDiags(const Program &P) {
  return Verifier(P).run();
}

std::vector<std::string> cl::verifyProgram(const Program &P) {
  std::vector<std::string> Out;
  for (const Diagnostic &D : verifyProgramDiags(P)) {
    const std::string &FName =
        D.Function < P.Funcs.size() ? P.Funcs[D.Function].Name : "?";
    Out.push_back("function '" + FName + "': " + D.Message);
  }
  return Out;
}

bool cl::isNormalForm(const Program &P) {
  for (const Function &F : P.Funcs)
    for (const BasicBlock &B : F.Blocks)
      if (B.K == BasicBlock::Cmd && B.C.K == Command::Read &&
          B.J.K != Jump::Tail)
        return false;
  return true;
}
