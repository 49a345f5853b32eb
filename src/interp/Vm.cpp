//===- interp/Vm.cpp - CL execution -----------------------------------------===//

#include "interp/Vm.h"

#include "cl/Verifier.h"

#include <algorithm>
#include <cassert>

using namespace ceal;
using namespace ceal::interp;
using namespace ceal::cl;

//===----------------------------------------------------------------------===//
// Shared expression semantics
//===----------------------------------------------------------------------===//

namespace {

int64_t asInt(Word W) { return fromWord<int64_t>(W); }

Word applyOp(OpKind Op, Word AW, Word BW) {
  int64_t A = asInt(AW), B = asInt(BW);
  switch (Op) {
  // Add/Sub/Mul wrap modulo 2^64 (defined by computing unsigned), so CL
  // programs can build multiplicative hashes.
  case OpKind::Add: return AW + BW;
  case OpKind::Sub: return AW - BW;
  case OpKind::Mul: return AW * BW;
  case OpKind::Div: return toWord(B == 0 ? int64_t(0) : A / B);
  case OpKind::Mod: return toWord(B == 0 ? int64_t(0) : A % B);
  case OpKind::Lt:  return toWord(int64_t(A < B));
  case OpKind::Le:  return toWord(int64_t(A <= B));
  case OpKind::Gt:  return toWord(int64_t(A > B));
  case OpKind::Ge:  return toWord(int64_t(A >= B));
  case OpKind::Eq:  return toWord(int64_t(A == B));
  case OpKind::Ne:  return toWord(int64_t(A != B));
  case OpKind::And: return toWord(int64_t(A && B));
  case OpKind::Or:  return toWord(int64_t(A || B));
  case OpKind::Not: return toWord(int64_t(!A));
  case OpKind::Neg: return toWord(-A);
  }
  return 0;
}

Word evalExpr(const Expr &E, const Word *Regs) {
  switch (E.K) {
  case Expr::Const:
    return toWord(E.IntVal);
  case Expr::Var:
    return Regs[E.V];
  case Expr::Prim:
    if (opArity(E.Op) == 1)
      return applyOp(E.Op, Regs[E.Args[0]], 0);
    return applyOp(E.Op, Regs[E.Args[0]], Regs[E.Args[1]]);
  case Expr::Index:
    return fromWord<Word *>(Regs[E.V])[asInt(Regs[E.Idx])];
  }
  return 0;
}

/// Rebuilds the frame at \p Base in place for tail jump \p J into
/// \p Callee. The arguments are staged above the current frame first,
/// because they may permute its registers.
void tailFrame(WordStack &S, size_t Base, const Jump &J,
               const Function &Callee) {
  const size_t N = J.Args.size(), NumVars = Callee.Vars.size();
  S.reserve(std::max(S.Top + N, Base + NumVars));
  Word *Regs = S.at(Base), *Args = S.at(S.Top);
  for (size_t I = 0; I < N; ++I)
    Args[I] = Regs[J.Args[I]];
  std::copy(Args, Args + N, Regs);
  std::fill(Regs + N, Regs + NumVars, Word(0));
}

constexpr Word NoSubst = ~Word(0);

} // namespace

void WordStack::grow(size_t End) {
  Words.resize(std::max(End, 2 * Words.size()));
}

//===----------------------------------------------------------------------===//
// The self-adjusting VM
//===----------------------------------------------------------------------===//

Vm::Vm(Runtime &RT, const Program &P) : RT(RT), Prog(P) {
  assert(verifyProgram(P).empty() && "VM requires a well-formed program");
  assert(isNormalForm(P) && "VM requires normalized CL (run NORMALIZE)");
}

/// Closure layout: [0] Vm*, [1] function id, [2] substitution position
/// within the CL arguments (NoSubst if none), [3..] CL argument words.
/// The read value / block address has no frame slot — it arrives in the
/// trampoline's substitution register. The stored CL arguments are never
/// mutated (the substitution position keeps its placeholder), so memo
/// keys — which cover every stored arg — are stable across re-executions.
/// The closure (header word and frame) is staged at the stack top, so a
/// read or an allocation, which copies it into its trace node, allocates
/// nothing beyond that node.
Closure *Vm::stagedVmClosure(FuncId F, Word SubstPos, size_t NumArgs) {
  ++ClosuresMade;
  ClosureEnvWords += NumArgs;
  Word *Frame = Stack.at(Stack.Top);
  Frame[0] = Closure::headerBits(&Vm::vmEntry, 3 + NumArgs);
  Frame[1] = toWord(this);
  Frame[2] = F;
  Frame[3] = SubstPos;
  return reinterpret_cast<Closure *>(Frame);
}

Closure *Vm::makeVmClosure(FuncId F, Word SubstPos, size_t NumArgs) {
  const Closure *C = stagedVmClosure(F, SubstPos, NumArgs);
  return RT.makeRaw(C->fn(), C->args(), C->numArgs());
}

Closure *Vm::vmEntry(Runtime &RT, Closure *C, Word Subst) {
  (void)RT;
  const Word *A = C->args();
  Vm *Self = fromWord<Vm *>(A[0]);
  auto F = static_cast<FuncId>(A[1]);
  Word SubstPos = A[2];
  size_t NumArgs = C->numArgs() - 3;
  const Function &Fn = Self->Prog.Funcs[F];
  assert(NumArgs == Fn.NumParams && "VM closure arity mismatch");
  // Push the frame above any live one: initializers and `call` enter the
  // VM while their caller's frame is still live.
  WordStack &S = Self->Stack;
  const size_t Base = S.Top;
  Word *Regs = S.stage(Fn.Vars.size());
  std::copy(A + 3, A + 3 + NumArgs, Regs);
  std::fill(Regs + NumArgs, Regs + Fn.Vars.size(), Word(0));
  if (SubstPos != NoSubst)
    Regs[SubstPos] = Subst; // The read value / block address arrives here.
  Closure *Next = Self->exec(F, Base);
  S.Top = Base;
  return Next;
}

Closure *Vm::exec(FuncId F, size_t Base) {
  for (;;) { // Tail-jump loop: tails iterate instead of growing the stack.
    const Function &Fn = Prog.Funcs[F];
    Stack.Top = Base + Fn.Vars.size();
    BlockId B = 0;
    const Jump *Next = nullptr;
    for (;;) { // Intra-function block loop.
      // Staging and nested entries may move the stack; re-derive the
      // frame's address after each.
      Word *Regs = Stack.at(Base);
      const BasicBlock &BB = Fn.Blocks[B];
      switch (BB.K) {
      case BasicBlock::Done:
        return nullptr;
      case BasicBlock::Cond:
        Next = asInt(Regs[BB.CondVar]) ? &BB.J1 : &BB.J2;
        break;
      case BasicBlock::Cmd: {
        const Command &C = BB.C;
        switch (C.K) {
        case Command::Nop:
          break;
        case Command::Assign:
          Regs[C.Dst] = evalExpr(C.E, Regs);
          break;
        case Command::Store:
          fromWord<Word *>(Regs[C.Base])[asInt(Regs[C.Idx])] =
              evalExpr(C.E, Regs);
          break;
        case Command::ModrefAlloc: {
          // Key words identify this modifiable across re-executions; the
          // fresh-allocation path matches keyless modref() too.
          Word *Keys = Stack.stage(C.Args.size());
          Regs = Stack.at(Base);
          for (size_t I = 0; I < C.Args.size(); ++I)
            Keys[I] = Regs[C.Args[I]];
          Regs[C.Dst] = toWord(RT.coreModrefDynamic(Keys, C.Args.size()));
          break;
        }
        case Command::Read: {
          // Normal form: the jump is a tail. Build the dependent closure
          // and hand it to the trampoline via the traced read; the read
          // value substitutes at the destination's position in the tail
          // arguments (if the destination is passed at all).
          assert(BB.J.K == Jump::Tail && "read must tail (normal form)");
          const size_t N = BB.J.Args.size();
          Word *Args = stageClosure(N);
          Regs = Stack.at(Base);
          Word SubstPos = NoSubst;
          for (size_t I = 0; I < N; ++I) {
            if (BB.J.Args[I] == C.Dst && SubstPos == NoSubst) {
              SubstPos = I;
              Args[I] = 0; // Placeholder: keeps the memo key stable.
            } else {
              Args[I] = Regs[BB.J.Args[I]];
            }
          }
          Closure *K = stagedVmClosure(BB.J.Fn, SubstPos, N);
          return RT.read(fromWord<Modref *>(Regs[C.Src]), K);
        }
        case Command::Write:
          RT.write(fromWord<Modref *>(Regs[C.Ref]), Regs[C.Val]);
          break;
        case Command::Alloc: {
          // The initializer's first parameter receives the block; the
          // allocation is memo-keyed by (initializer, size, arguments).
          const size_t N = 1 + C.Args.size();
          Word *Args = stageClosure(N);
          Regs = Stack.at(Base);
          Args[0] = 0; // Block placeholder.
          for (size_t I = 0; I < C.Args.size(); ++I)
            Args[1 + I] = Regs[C.Args[I]];
          Closure *Init = stagedVmClosure(C.Fn, /*SubstPos=*/0, N);
          Word Block =
              toWord(RT.allocate(static_cast<size_t>(Regs[C.SizeVar]), Init));
          Stack.at(Base)[C.Dst] = Block;
          break;
        }
        case Command::Call: {
          const size_t N = C.Args.size();
          Word *Args = stageClosure(N);
          Regs = Stack.at(Base);
          for (size_t I = 0; I < N; ++I)
            Args[I] = Regs[C.Args[I]];
          RT.call(makeVmClosure(C.Fn, NoSubst, N));
          break;
        }
        }
        Next = &BB.J;
        break;
      }
      }
      if (Next->K == Jump::Goto) {
        B = Next->Target;
        continue;
      }
      // Tail jump: rebuild the frame in place and iterate into the next
      // function.
      tailFrame(Stack, Base, *Next, Prog.Funcs[Next->Fn]);
      F = Next->Fn;
      break;
    }
  }
}

void Vm::runCore(const std::string &Name, const std::vector<Word> &Args) {
  FuncId F = Prog.findFunc(Name);
  assert(F != InvalidId && "unknown core function");
  assert(Args.size() == Prog.Funcs[F].NumParams && "entry arity mismatch");
  std::copy(Args.begin(), Args.end(), stageClosure(Args.size()));
  RT.run(makeVmClosure(F, NoSubst, Args.size()));
}

//===----------------------------------------------------------------------===//
// The conventional interpreter
//===----------------------------------------------------------------------===//

Word *ConvInterp::newCell(Word Init) {
  Blocks.emplace_back(1, Init);
  return Blocks.back().data();
}

void *ConvInterp::alloc(size_t Bytes) {
  Blocks.emplace_back((Bytes + sizeof(Word) - 1) / sizeof(Word) + 1, 0);
  return Blocks.back().data();
}

void ConvInterp::run(const std::string &Name, const std::vector<Word> &Args) {
  FuncId F = Prog.findFunc(Name);
  assert(F != InvalidId && "unknown function");
  const Function &Fn = Prog.Funcs[F];
  assert(Args.size() == Fn.NumParams && "arity mismatch");
  const size_t Base = Stack.Top;
  Word *Regs = Stack.stage(Fn.Vars.size());
  std::copy(Args.begin(), Args.end(), Regs);
  std::fill(Regs + Args.size(), Regs + Fn.Vars.size(), Word(0));
  exec(F, Base);
  Stack.Top = Base;
}

void ConvInterp::exec(FuncId F, size_t Base) {
  for (;;) {
    const Function &Fn = Prog.Funcs[F];
    Stack.Top = Base + Fn.Vars.size();
    BlockId B = 0;
    const Jump *Next = nullptr;
    for (;;) {
      ++Steps;
      // Nested entries may move the stack; re-derive the frame's address.
      Word *Regs = Stack.at(Base);
      const BasicBlock &BB = Fn.Blocks[B];
      switch (BB.K) {
      case BasicBlock::Done:
        return;
      case BasicBlock::Cond:
        Next = asInt(Regs[BB.CondVar]) ? &BB.J1 : &BB.J2;
        break;
      case BasicBlock::Cmd: {
        const Command &C = BB.C;
        switch (C.K) {
        case Command::Nop:
          break;
        case Command::Assign:
          Regs[C.Dst] = evalExpr(C.E, Regs);
          break;
        case Command::Store:
          fromWord<Word *>(Regs[C.Base])[asInt(Regs[C.Idx])] =
              evalExpr(C.E, Regs);
          break;
        case Command::ModrefAlloc:
          Regs[C.Dst] = toWord(newCell());
          break;
        case Command::Read:
          // Conventional semantics: a read is a load.
          Regs[C.Dst] = *fromWord<Word *>(Regs[C.Src]);
          break;
        case Command::Write:
          *fromWord<Word *>(Regs[C.Ref]) = Regs[C.Val];
          break;
        case Command::Alloc:
        case Command::Call: {
          // The callee's frame goes above this one: an initializer takes
          // the block first, then the extra arguments.
          const bool IsAlloc = C.K == Command::Alloc;
          Word Block =
              IsAlloc ? toWord(alloc(static_cast<size_t>(Regs[C.SizeVar])))
                      : 0;
          const Function &Callee = Prog.Funcs[C.Fn];
          const size_t CalleeBase = Stack.Top;
          Word *Args = Stack.stage(Callee.Vars.size());
          Regs = Stack.at(Base);
          size_t N = 0;
          if (IsAlloc)
            Args[N++] = Block;
          for (VarId V : C.Args)
            Args[N++] = Regs[V];
          assert(N == Callee.NumParams && "arity mismatch");
          std::fill(Args + N, Args + Callee.Vars.size(), Word(0));
          exec(C.Fn, CalleeBase);
          Stack.Top = CalleeBase;
          if (IsAlloc)
            Stack.at(Base)[C.Dst] = Block;
          break;
        }
        }
        Next = &BB.J;
        break;
      }
      }
      if (Next->K == Jump::Goto) {
        B = Next->Target;
        continue;
      }
      tailFrame(Stack, Base, *Next, Prog.Funcs[Next->Fn]);
      F = Next->Fn;
      break;
    }
  }
}
