//===- analysis/Lints.cpp - CEAL-specific CL lints -------------------------===//

#include "analysis/Lints.h"

#include "analysis/Dataflow.h"
#include "analysis/Liveness.h"
#include "analysis/ModrefEffects.h"
#include "analysis/ReachingDefs.h"
#include "analysis/RedundantOps.h"
#include "cl/Verifier.h"

#include <algorithm>

using namespace ceal;
using namespace ceal::analysis;
using namespace ceal::cl;

namespace {

class Linter {
public:
  Linter(const Program &P, const LintOptions &O) : Prog(P), Opts(O) {}

  LintReport run() {
    LintReport R;
    R.Diags = verifyProgramDiags(Prog);
    if (!R.Diags.empty())
      return R; // Dataflow lints assume structurally valid IR.

    FX = computeModrefEffects(Prog);
    Redundancy = computeRedundantOps(Prog, FX);
    for (FuncId F = 0; F < Prog.Funcs.size(); ++F)
      R.MaxLiveProgram =
          std::max(R.MaxLiveProgram, computeLiveness(Prog.Funcs[F]).maxLive());
    MaxLiveProgram = R.MaxLiveProgram;

    for (FuncId F = 0; F < Prog.Funcs.size(); ++F)
      function(F);

    std::stable_sort(Diags.begin(), Diags.end(),
                     [](const Diagnostic &A, const Diagnostic &B) {
                       if (A.Function != B.Function)
                         return A.Function < B.Function;
                       if (A.Block != B.Block)
                         return A.Block < B.Block;
                       return A.Index < B.Index;
                     });
    R.Diags = std::move(Diags);
    return R;
  }

private:
  void diag(FuncId F, BlockId B, uint32_t Index, Severity Sev,
            const char *Check, std::string Msg) {
    Diagnostic D;
    D.Function = F;
    D.Block = B;
    D.Index = Index;
    D.Sev = Sev;
    D.Check = Check;
    D.Message = std::move(Msg);
    Diags.push_back(std::move(D));
  }

  const std::string &var(const Function &F, VarId V) {
    return F.Vars[V].Name;
  }

  void function(FuncId FI) {
    const Function &F = Prog.Funcs[FI];
    BlockCfg G = BlockCfg::build(F, /*ReadEntriesAreEntries=*/true);
    const FuncRedundancy &FR = Redundancy.Funcs[FI];

    // -- read-not-tail -----------------------------------------------
    if (Opts.RequireNormalForm)
      for (BlockId B = 0; B < F.Blocks.size(); ++B) {
        const BasicBlock &BB = F.Blocks[B];
        if (BB.K == BasicBlock::Cmd && BB.C.K == Command::Read &&
            BB.J.K != Jump::Tail)
          diag(FI, B, 0, Severity::Error, "read-not-tail",
               "read of '" + var(F, BB.C.Src) +
                   "' is not followed by a tail jump (normal form, "
                   "Sec. 5, required for translation and the VM)");
      }

    // -- use-before-def ----------------------------------------------
    // A block's command reads its operands before its definition takes
    // effect; the jump's arguments are read after it. Check the former
    // against In, the latter against Out.
    ReachingDefs RD = computeReachingDefs(F);
    for (BlockId B = 0; B < F.Blocks.size(); ++B) {
      if (!RD.Cfg.Reachable[B])
        continue;
      const BasicBlock &BB = F.Blocks[B];
      auto Undefined = [&](VarId V, bool AfterCommand) {
        return V >= F.NumParams &&
               (AfterCommand ? RD.Out[B].test(RD.NumBlocks + V)
                             : RD.maybeEntryValueAt(B, V));
      };
      VarId Hit = InvalidId;
      uint32_t HitIndex = 0;
      if (BB.K == BasicBlock::Cmd) {
        BasicBlock Cmd = BB;
        Cmd.J = Jump::gotoBlock(0); // Strip jump uses.
        Function Probe; // blockUses only touches Blocks[0].
        Probe.Blocks.push_back(std::move(Cmd));
        for (VarId V : blockUses(Probe, 0))
          if (Hit == InvalidId && Undefined(V, /*AfterCommand=*/false))
            Hit = V;
        if (Hit == InvalidId && BB.J.K == Jump::Tail)
          for (VarId V : BB.J.Args)
            if (Hit == InvalidId && Undefined(V, /*AfterCommand=*/true)) {
              Hit = V;
              HitIndex = 1;
            }
      } else if (BB.K == BasicBlock::Cond) {
        for (VarId V : blockUses(F, B))
          if (Hit == InvalidId && Undefined(V, /*AfterCommand=*/false))
            Hit = V;
      }
      if (Hit != InvalidId)
        diag(FI, B, HitIndex, Severity::Warning, "use-before-def",
             "'" + var(F, Hit) +
                 "' may be used before any definition (it still holds "
                 "its zero-initial value on some path)");
    }

    // -- redundant-read / dead-write / dead code ---------------------
    for (auto [B, Provider] : FR.RedundantReads)
      diag(FI, B, 0, Severity::Warning, "redundant-read",
           "'" + var(F, F.Blocks[B].C.Src) +
               "' was already read into '" +
               var(F, F.Blocks[Provider].C.Dst) + "' (block '" +
               F.Blocks[Provider].Label +
               "') on every path with no intervening write");
    for (BlockId B : FR.DeadWrites)
      diag(FI, B, 0, Severity::Warning, "dead-write",
           "value written to '" + var(F, F.Blocks[B].C.Ref) +
               "' is surely overwritten before it can be observed");
    for (BlockId B : FR.DeadAllocs)
      diag(FI, B, 0, Severity::Warning, "unused-alloc",
           "allocation into '" + var(F, F.Blocks[B].C.Dst) +
               "' is never used");
    if (Opts.DeadCodeNotes) {
      for (BlockId B : FR.DeadReads)
        diag(FI, B, 0, Severity::Note, "dead-code",
             "read into '" + var(F, F.Blocks[B].C.Dst) +
                 "' is never used");
      for (BlockId B : FR.DeadAssigns)
        diag(FI, B, 0, Severity::Note, "dead-code",
             "assignment to '" + var(F, F.Blocks[B].C.Dst) +
                 "' is never used");
    }

    // -- memo-key-write ----------------------------------------------
    // Forward may-analysis: a modref* variable that escaped into a
    // modref() memo key and is then written through makes the key no
    // longer identify the cell's contents across runs.
    {
      size_t NumVars = F.Vars.size();
      DataflowProblem P;
      P.Dir = Direction::Forward;
      P.M = Meet::Union;
      P.DomainSize = NumVars;
      P.Transfer.resize(F.Blocks.size());
      for (BlockId B = 0; B < F.Blocks.size(); ++B) {
        GenKill &T = P.Transfer[B];
        T.Gen = BitVec(NumVars);
        T.Kill = BitVec(NumVars);
        const BasicBlock &BB = F.Blocks[B];
        if (BB.K != BasicBlock::Cmd)
          continue;
        if (BB.C.K == Command::ModrefAlloc)
          for (VarId A : BB.C.Args)
            if (F.Vars[A].Ty.isModrefPtr())
              T.Gen.set(A);
        for (VarId V : blockDefs(F, B))
          T.Kill.set(V);
      }
      DataflowResult R = solveDataflow(G, P);
      for (BlockId B = 0; B < F.Blocks.size(); ++B) {
        const BasicBlock &BB = F.Blocks[B];
        if (BB.K == BasicBlock::Cmd && BB.C.K == Command::Write &&
            R.In[B].test(BB.C.Ref))
          diag(FI, B, 0, Severity::Warning, "memo-key-write",
               "'" + var(F, BB.C.Ref) +
                   "' is written after escaping into a modref() memo "
                   "key; the memo match may revive a cell whose "
                   "contents this write has changed");
      }
    }

    // -- loop-live ----------------------------------------------------
    {
      LivenessInfo Live = computeLiveness(F);
      for (BlockId H : findLoopHeaders(G)) {
        size_t N = Live.liveCountAt(H);
        if (N <= Opts.LoopLiveThreshold)
          continue;
        diag(FI, H, 0, Severity::Warning, "loop-live",
             std::to_string(N) +
                 " variables are live at this loop header; every trace "
                 "node in the loop carries that many closure words "
                 "(function ML = " +
                 std::to_string(Live.maxLive()) + ", program ML(P) = " +
                 std::to_string(MaxLiveProgram) +
                 "; Theorems 3-5 charge O(ML(P)) per trace node)");
      }
    }

    // -- unreachable --------------------------------------------------
    for (BlockId B = 0; B < F.Blocks.size(); ++B)
      if (!G.Reachable[B])
        diag(FI, B, 0, Severity::Note, "unreachable",
             "block is unreachable from the entry and from every read "
             "continuation");

  }

  const Program &Prog;
  const LintOptions &Opts;
  std::vector<FuncEffects> FX;
  RedundancyInfo Redundancy;
  size_t MaxLiveProgram = 0;
  std::vector<Diagnostic> Diags;
};

} // namespace

LintReport analysis::runLints(const Program &P, const LintOptions &O) {
  return Linter(P, O).run();
}
