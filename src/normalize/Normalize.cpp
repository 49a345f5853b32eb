//===- normalize/Normalize.cpp - The NORMALIZE transformation --------------===//

#include "normalize/Normalize.h"

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/ProgramGraph.h"
#include "cl/Verifier.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <unordered_set>

using namespace ceal;
using namespace ceal::normalize;
using namespace ceal::cl;
using namespace ceal::analysis;

namespace {

/// Per-function normalization plan. Per-block tables are dense vectors
/// indexed by BlockId.
struct FuncPlan {
  /// Unit assignment: for each block, the defining node of its unit
  /// (ProgramGraph node id), or InvalidNode if unreachable.
  std::vector<uint32_t> UnitOf;
  /// The blocks of each unit, indexed by defining node: the defining
  /// block first, the others in ascending order.
  std::vector<std::vector<BlockId>> UnitBlocks;
  /// Critical defining blocks (ascending BlockId).
  std::vector<BlockId> CriticalBlocks;
  /// Fresh function id of each critical block; InvalidId elsewhere.
  std::vector<FuncId> FreshId;
  /// live(l) for each critical block, ascending VarId; empty elsewhere.
  std::vector<std::vector<VarId>> LiveArgs;
};

/// A variable or block renaming: dense, indexed by the original id.
using IdMap = std::vector<uint32_t>;

/// The new id of \p Id; every id a unit mentions is mapped.
uint32_t mapId(const IdMap &Map, uint32_t Id) {
  assert(Id < Map.size() && Map[Id] != InvalidId && "unmapped id");
  return Map[Id];
}

class Normalizer {
public:
  explicit Normalizer(const Program &P) : In(P) {}

  NormalizeResult run() {
    Stats.InputBlocks = In.blockCount();
    Stats.InputWords = In.sizeInWords();
    plan();
    emit();
    Stats.OutputBlocks = Out.blockCount();
    Stats.OutputWords = Out.sizeInWords();
    return {std::move(Out), Stats};
  }

private:
  //===------------------------------------------------------------===//
  // Planning: units, liveness, fresh function ids
  //===------------------------------------------------------------===//

  void plan() {
    Plans.resize(In.Funcs.size());
    FuncId NextId = static_cast<FuncId>(In.Funcs.size());
    std::unordered_set<std::string> UsedNames;
    for (const Function &F : In.Funcs)
      UsedNames.insert(F.Name);
    FreshNames.clear();

    for (FuncId FI = 0; FI < In.Funcs.size(); ++FI) {
      const Function &F = In.Funcs[FI];
      FuncPlan &Plan = Plans[FI];
      ProgramGraph G = buildProgramGraph(F);
      auto Children = dominatorTreeChildren(computeDominators(G));
      LivenessInfo Live = computeLiveness(F, G);
      Stats.MaxLive = std::max(Stats.MaxLive, Live.maxLive());

      // Assign every node to the unit of its root-child ancestor.
      Plan.UnitOf.assign(G.size(), InvalidNode);
      for (uint32_t Child : Children[ProgramGraph::Root]) {
        // DFS over the dominator tree.
        std::vector<uint32_t> Stack{Child};
        while (!Stack.empty()) {
          uint32_t N = Stack.back();
          Stack.pop_back();
          Plan.UnitOf[N] = Child;
          for (uint32_t C : Children[N])
            Stack.push_back(C);
        }
      }

      // Bucket the blocks by unit in one pass, then move each critical
      // unit's defining block to the front.
      Plan.UnitBlocks.assign(G.size(), {});
      for (BlockId B = 0; B < F.Blocks.size(); ++B) {
        uint32_t Unit = Plan.UnitOf[ProgramGraph::blockNode(B)];
        if (Unit != InvalidNode)
          Plan.UnitBlocks[Unit].push_back(B);
      }
      for (uint32_t Child : Children[ProgramGraph::Root]) {
        if (!ProgramGraph::isBlockNode(Child))
          continue;
        std::vector<BlockId> &Blocks = Plan.UnitBlocks[Child];
        auto It = std::find(Blocks.begin(), Blocks.end(),
                            ProgramGraph::nodeBlock(Child));
        assert(It != Blocks.end() && "defining block missing from its unit");
        std::rotate(Blocks.begin(), It, It + 1);
      }

      // Critical defining nodes are root children that are blocks.
      // Process them in ascending block order so fresh ids and names
      // stay aligned with the emission order.
      for (uint32_t Child : Children[ProgramGraph::Root])
        if (ProgramGraph::isBlockNode(Child))
          Plan.CriticalBlocks.push_back(ProgramGraph::nodeBlock(Child));
      std::sort(Plan.CriticalBlocks.begin(), Plan.CriticalBlocks.end());
      Plan.FreshId.assign(F.Blocks.size(), InvalidId);
      Plan.LiveArgs.assign(F.Blocks.size(), {});
      for (BlockId B : Plan.CriticalBlocks) {
        Plan.FreshId[B] = NextId++;
        Plan.LiveArgs[B] = Live.liveAt(B);
        // A unique, parseable fresh name.
        std::string Name = F.Name + "_rn_" + F.Blocks[B].Label;
        while (UsedNames.count(Name))
          Name += "_";
        UsedNames.insert(Name);
        FreshNames.push_back(Name);
      }
    }
    Stats.FreshFunctions = FreshNames.size();
  }

  //===------------------------------------------------------------===//
  // Emission
  //===------------------------------------------------------------===//

  /// Rewrites jump \p J from a block in unit \p FromUnit of function
  /// \p FI, given the variable remap \p VarMap and the block remap
  /// BlockMap of the unit being emitted.
  Jump rewriteJump(FuncId FI, const Jump &J, uint32_t FromUnit, bool FromRead,
                   const IdMap &VarMap) {
    const FuncPlan &Plan = Plans[FI];
    if (J.K == Jump::Tail) {
      Jump Copy = J;
      for (VarId &V : Copy.Args)
        V = mapId(VarMap, V);
      return Copy;
    }
    BlockId Target = J.Target;
    uint32_t TargetUnit = Plan.UnitOf[ProgramGraph::blockNode(Target)];
    bool TargetCritical = ProgramGraph::isBlockNode(TargetUnit) &&
                          ProgramGraph::nodeBlock(TargetUnit) == Target;
    bool CrossUnit = TargetUnit != FromUnit;
    assert((!CrossUnit || TargetCritical) &&
           "cross-unit edge into a non-defining node (violates Lemma 2)");
    if (TargetCritical && (CrossUnit || FromRead)) {
      // Redirect into the fresh function (Fig. 7 lines 20-29).
      Jump T;
      T.K = Jump::Tail;
      T.Fn = Plan.FreshId[Target];
      const std::vector<VarId> &Live = Plan.LiveArgs[Target];
      T.Args.reserve(Live.size());
      for (VarId V : Live)
        T.Args.push_back(mapId(VarMap, V));
      return T;
    }
    // Intra-unit, non-read edge: stays a goto (remapped).
    Jump Copy;
    Copy.K = Jump::Goto;
    Copy.Target = mapId(BlockMap, Target);
    return Copy;
  }

  /// Copies unit blocks into \p OutF with variable/block remapping and
  /// edge redirection.
  void emitUnitBlocks(FuncId FI, uint32_t Unit,
                      const std::vector<BlockId> &Blocks, const IdMap &VarMap,
                      Function &OutF) {
    const Function &F = In.Funcs[FI];
    BlockMap.assign(F.Blocks.size(), InvalidId);
    for (size_t I = 0; I < Blocks.size(); ++I)
      BlockMap[Blocks[I]] = static_cast<BlockId>(I);
    OutF.Blocks.reserve(OutF.Blocks.size() + Blocks.size());
    for (BlockId B : Blocks) {
      const BasicBlock &BB = F.Blocks[B];
      BasicBlock NewBB;
      NewBB.Label = BB.Label;
      NewBB.K = BB.K;
      switch (BB.K) {
      case BasicBlock::Done:
        break;
      case BasicBlock::Cond:
        NewBB.CondVar = mapId(VarMap, BB.CondVar);
        NewBB.J1 = rewriteJump(FI, BB.J1, Unit, false, VarMap);
        NewBB.J2 = rewriteJump(FI, BB.J2, Unit, false, VarMap);
        break;
      case BasicBlock::Cmd: {
        NewBB.C = remapCommand(BB.C, VarMap);
        bool IsRead = BB.C.K == Command::Read;
        NewBB.J = rewriteJump(FI, BB.J, Unit, IsRead, VarMap);
        break;
      }
      }
      OutF.Blocks.push_back(std::move(NewBB));
    }
  }

  static Command remapCommand(const Command &C, const IdMap &VarMap) {
    auto MapVar = [&](VarId V) {
      return V == InvalidId ? InvalidId : mapId(VarMap, V);
    };
    Command N = C;
    N.Dst = MapVar(C.Dst);
    N.Base = MapVar(C.Base);
    N.Idx = MapVar(C.Idx);
    N.Src = MapVar(C.Src);
    N.Ref = MapVar(C.Ref);
    N.Val = MapVar(C.Val);
    N.SizeVar = MapVar(C.SizeVar);
    for (VarId &V : N.Args)
      V = MapVar(V);
    switch (N.E.K) {
    case Expr::Const:
      break;
    case Expr::Var:
      N.E.V = MapVar(C.E.V);
      break;
    case Expr::Prim:
      for (VarId &V : N.E.Args)
        V = MapVar(V);
      break;
    case Expr::Index:
      N.E.V = MapVar(C.E.V);
      N.E.Idx = MapVar(C.E.Idx);
      break;
    }
    return N;
  }

  void emit() {
    // Original functions keep their ids; fresh functions are appended in
    // planning order.
    Out.Funcs.resize(In.Funcs.size() + FreshNames.size());

    size_t FreshIndex = 0;
    for (FuncId FI = 0; FI < In.Funcs.size(); ++FI) {
      const Function &F = In.Funcs[FI];
      const FuncPlan &Plan = Plans[FI];

      // The original function keeps its full variable table; identity
      // variable map.
      Identity.resize(F.Vars.size());
      std::iota(Identity.begin(), Identity.end(), VarId(0));

      Function &OutF = Out.Funcs[FI];
      OutF.Name = F.Name;
      OutF.Vars = F.Vars;
      OutF.NumParams = F.NumParams;
      const std::vector<BlockId> &FnUnit =
          Plan.UnitBlocks[ProgramGraph::FuncNode];
      if (!FnUnit.empty() && FnUnit.front() == 0) {
        emitUnitBlocks(FI, ProgramGraph::FuncNode, FnUnit, Identity, OutF);
      } else {
        // The entry block is itself a read entry, so the function body
        // is a single jump into the fresh function that holds it.
        assert(Plan.FreshId[0] != InvalidId &&
               "entry block neither in the function unit nor critical");
        BasicBlock Entry;
        Entry.Label = F.Name + "_entry";
        Entry.K = BasicBlock::Cmd;
        Entry.C = Command(); // nop
        Entry.J.K = Jump::Tail;
        Entry.J.Fn = Plan.FreshId[0];
        Entry.J.Args = Plan.LiveArgs[0];
        OutF.Blocks.push_back(std::move(Entry));
        // Any other blocks in the function-node unit are unreachable
        // from the entry; they are dropped.
      }

      // Fresh functions, one per critical block.
      for (BlockId B : Plan.CriticalBlocks) {
        Function &NewF = Out.Funcs[Plan.FreshId[B]];
        NewF.Name = FreshNames[FreshIndex++];
        const std::vector<VarId> &Params = Plan.LiveArgs[B];

        uint32_t Unit = ProgramGraph::blockNode(B);
        const std::vector<BlockId> &Blocks = Plan.UnitBlocks[Unit];

        // Free variables of the unit (Fig. 7 line 14): everything the
        // unit's blocks mention; locals are those not already params,
        // numbered in ascending VarId order.
        Free.assign(F.Vars.size(), 0);
        for (BlockId UB : Blocks) {
          for (VarId V : blockUses(F, UB))
            Free[V] = 1;
          if (VarId D = blockDef(F, UB); D != InvalidId)
            Free[D] = 1;
        }
        UnitVars.assign(F.Vars.size(), InvalidId);
        for (VarId V : Params) {
          UnitVars[V] = static_cast<VarId>(NewF.Vars.size());
          NewF.Vars.push_back(F.Vars[V]);
        }
        NewF.NumParams = static_cast<uint32_t>(Params.size());
        for (VarId V = 0; V < F.Vars.size(); ++V) {
          if (!Free[V] || UnitVars[V] != InvalidId)
            continue;
          UnitVars[V] = static_cast<VarId>(NewF.Vars.size());
          NewF.Vars.push_back(F.Vars[V]);
        }
        emitUnitBlocks(FI, Unit, Blocks, UnitVars, NewF);
      }
    }
  }

  const Program &In;
  Program Out;
  std::vector<FuncPlan> Plans;
  std::vector<std::string> FreshNames;
  NormalizeStats Stats;
  // Scratch tables, reused across units and functions: the identity and
  // fresh-function variable maps, and the block map of the unit being
  // emitted.
  IdMap Identity, UnitVars, BlockMap;
  std::vector<uint8_t> Free; ///< Free-variable marks, indexed by VarId.
};

} // namespace

NormalizeResult normalize::normalizeProgram(const Program &P) {
  assert(verifyProgram(P).empty() && "normalizing an ill-formed program");
  NormalizeResult R = Normalizer(P).run();
  assert(isNormalForm(R.Prog) && "NORMALIZE failed to reach normal form");
  return R;
}
