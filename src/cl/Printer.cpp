//===- cl/Printer.cpp - CL textual printer ---------------------------------===//

#include "cl/Printer.h"

#include <sstream>

using namespace ceal;
using namespace ceal::cl;

namespace {

class Printer {
public:
  explicit Printer(const Program &P) : Prog(P) {}

  /// The single-line text of one block (without the trailing newline),
  /// for source-anchored diagnostics.
  std::string blockText(FuncId F, BlockId B) {
    CurFunc = &Prog.Funcs[F];
    block(CurFunc->Blocks[B]);
    std::string S = Out.str();
    Out.str("");
    // Strip the leading indent and trailing newline added by block().
    if (S.size() >= 2 && S[0] == ' ' && S[1] == ' ')
      S.erase(0, 2);
    while (!S.empty() && S.back() == '\n')
      S.pop_back();
    return S;
  }

  void function(FuncId Id) {
    const Function &F = Prog.Funcs[Id];
    Out << "func " << F.Name << "(";
    for (uint32_t I = 0; I < F.NumParams; ++I) {
      if (I)
        Out << ", ";
      Out << F.Vars[I].Ty.str() << " " << F.Vars[I].Name;
    }
    Out << ") {\n";
    for (uint32_t I = F.NumParams; I < F.Vars.size(); ++I)
      Out << "  var " << F.Vars[I].Ty.str() << " " << F.Vars[I].Name
          << ";\n";
    CurFunc = &F;
    for (const BasicBlock &B : F.Blocks)
      block(B);
    Out << "}\n";
  }

  std::string str() { return Out.str(); }

private:
  const std::string &var(VarId V) { return CurFunc->Vars[V].Name; }
  const std::string &funcName(FuncId F) { return Prog.Funcs[F].Name; }
  const std::string &label(BlockId B) { return CurFunc->Blocks[B].Label; }

  void args(const std::vector<VarId> &As) {
    for (size_t I = 0; I < As.size(); ++I) {
      if (I)
        Out << ", ";
      Out << var(As[I]);
    }
  }

  void expr(const Expr &E) {
    switch (E.K) {
    case Expr::Const:
      Out << E.IntVal;
      break;
    case Expr::Var:
      Out << var(E.V);
      break;
    case Expr::Prim:
      Out << opName(E.Op) << "(";
      args(E.Args);
      Out << ")";
      break;
    case Expr::Index:
      Out << var(E.V) << "[" << var(E.Idx) << "]";
      break;
    }
  }

  void command(const Command &C) {
    switch (C.K) {
    case Command::Nop:
      Out << "nop";
      break;
    case Command::Assign:
      Out << var(C.Dst) << " := ";
      expr(C.E);
      break;
    case Command::Store:
      Out << var(C.Base) << "[" << var(C.Idx) << "] := ";
      expr(C.E);
      break;
    case Command::ModrefAlloc:
      Out << var(C.Dst) << " := modref(";
      args(C.Args);
      Out << ")";
      break;
    case Command::Read:
      Out << var(C.Dst) << " := read " << var(C.Src);
      break;
    case Command::Write:
      Out << "write(" << var(C.Ref) << ", " << var(C.Val) << ")";
      break;
    case Command::Alloc:
      Out << var(C.Dst) << " := alloc(" << var(C.SizeVar) << ", "
          << funcName(C.Fn);
      for (VarId A : C.Args)
        Out << ", " << var(A);
      Out << ")";
      break;
    case Command::Call:
      Out << "call " << funcName(C.Fn) << "(";
      args(C.Args);
      Out << ")";
      break;
    }
  }

  void jump(const Jump &J) {
    if (J.K == Jump::Goto) {
      Out << "goto " << label(J.Target);
      return;
    }
    Out << "tail " << funcName(J.Fn) << "(";
    args(J.Args);
    Out << ")";
  }

  void block(const BasicBlock &B) {
    Out << "  " << B.Label << ": ";
    switch (B.K) {
    case BasicBlock::Done:
      Out << "done;";
      break;
    case BasicBlock::Cond:
      Out << "if " << var(B.CondVar) << " then ";
      jump(B.J1);
      Out << " else ";
      jump(B.J2);
      Out << ";";
      break;
    case BasicBlock::Cmd:
      command(B.C);
      Out << "; ";
      jump(B.J);
      Out << ";";
      break;
    }
    Out << "\n";
  }

  const Program &Prog;
  const Function *CurFunc = nullptr;
  std::ostringstream Out;
};

} // namespace

std::string cl::printFunction(const Program &P, FuncId F) {
  Printer Pr(P);
  Pr.function(F);
  return Pr.str();
}

std::string cl::printProgram(const Program &P) {
  Printer Pr(P);
  for (FuncId I = 0; I < P.Funcs.size(); ++I)
    Pr.function(I);
  return Pr.str();
}

std::string cl::renderDiagnostic(const Program &P, const Diagnostic &D) {
  std::ostringstream Out;
  Out << "error: ";
  bool HaveFunc = D.Function < P.Funcs.size();
  if (HaveFunc) {
    const Function &F = P.Funcs[D.Function];
    Out << "function '" << F.Name << "'";
    if (D.Block < F.Blocks.size())
      Out << ", block '" << F.Blocks[D.Block].Label << "' (#" << D.Block
          << ")";
    Out << ": ";
  }
  Out << D.Message << "\n";
  if (HaveFunc && D.Block < P.Funcs[D.Function].Blocks.size()) {
    Printer Pr(P);
    Out << "  --> " << Pr.blockText(D.Function, D.Block);
    const BasicBlock &B = P.Funcs[D.Function].Blocks[D.Block];
    if (B.K == BasicBlock::Cond)
      Out << (D.Index == 0 ? "    [at the condition]"
              : D.Index == 1 ? "    [at the then-jump]"
                             : "    [at the else-jump]");
    else if (B.K == BasicBlock::Cmd)
      Out << (D.Index == 0 ? "    [at the command]" : "    [at the jump]");
    Out << "\n";
  }
  return Out.str();
}

std::string cl::renderDiagnostics(const Program &P,
                                  const std::vector<Diagnostic> &Ds) {
  std::string Out;
  for (const Diagnostic &D : Ds)
    Out += renderDiagnostic(P, D);
  return Out;
}
