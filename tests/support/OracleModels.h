//===- tests/support/OracleModels.h - AppModels for the oracle ---*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AppModel implementations for every benchmark application: the list
/// primitives (map, filter, reverse, the reductions, both sorts), the
/// expression trees, tree contraction, and the geometry cores (quickhull,
/// diameter, distance). Each pairs a self-adjusting core with its
/// conventional oracle from src/apps. ProgramModel does the same for a
/// random CL program: NORMALIZEd on interp::Vm against the original on
/// interp::ConvInterp.
///
/// List edits follow a LIFO detach/reattach discipline: reattaching always
/// undoes the most recent detach, so a reattached cell's stored tail still
/// points at its then-successor and the spine returns to a consistent
/// state (the same discipline the per-app sweeps used, generalized to
/// nesting).
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_TESTS_SUPPORT_ORACLEMODELS_H
#define CEAL_TESTS_SUPPORT_ORACLEMODELS_H

#include "apps/ExpTrees.h"
#include "apps/Geometry.h"
#include "apps/ListApps.h"
#include "apps/ListConv.h"
#include "apps/TreeContraction.h"
#include "cl/Verifier.h"
#include "interp/Vm.h"
#include "normalize/Normalize.h"
#include "tests/support/OracleHarness.h"

#include <algorithm>
#include <cstring>

namespace ceal {
namespace harness {

//===----------------------------------------------------------------------===//
// List edit plan: random detach/reattach with LIFO reattachment
//===----------------------------------------------------------------------===//

/// Mutator-side edit driver for one modifiable list. Detaching requires
/// the cell's construction predecessor to be attached (so the written
/// tail modifiable is on the live spine); reattachment is LIFO.
struct ListEditor {
  apps::ListHandle L;
  std::vector<bool> Attached;
  std::vector<size_t> DetachStack;
  /// Never detach below this many live cells (geometry cores want
  /// non-degenerate point sets).
  size_t MinLive = 0;

  void init(apps::ListHandle Handle) {
    L = std::move(Handle);
    Attached.assign(L.Cells.size(), true);
    DetachStack.clear();
  }

  size_t liveCount() const {
    return L.Cells.size() - DetachStack.size();
  }

  void randomEdit(Runtime &RT, Rng &R) {
    bool CanReattach = !DetachStack.empty();
    bool WantDetach = !CanReattach || R.flip();
    if (WantDetach && liveCount() > MinLive) {
      std::vector<size_t> Eligible;
      for (size_t I = 0; I < L.Cells.size(); ++I)
        if (Attached[I] && (I == 0 || Attached[I - 1]))
          Eligible.push_back(I);
      if (!Eligible.empty()) {
        size_t Index = Eligible[R.below(Eligible.size())];
        apps::detachCell(RT, L, Index);
        Attached[Index] = false;
        DetachStack.push_back(Index);
        return;
      }
    }
    if (CanReattach) {
      size_t Index = DetachStack.back();
      DetachStack.pop_back();
      apps::reattachCell(RT, L, Index);
      Attached[Index] = true;
    }
    // Neither edit possible (empty list): a no-op change is still a valid
    // propagation to check.
  }
};

//===----------------------------------------------------------------------===//
// List primitives
//===----------------------------------------------------------------------===//

/// All seven list primitives over one shared input list; the output is
/// every result list/value concatenated with length prefixes, so a
/// mismatch pinpoints the primitive by offset.
class ListModel : public AppModel {
public:
  /// Input sizes are drawn uniformly from [MinN, MaxN]; the heap-pressure
  /// suites pin the range so the trace reliably exceeds the heap limit.
  explicit ListModel(size_t MinN = 0, size_t MaxN = 64)
      : MinN(MinN), MaxN(MaxN) {}

  static Word mapPaper(Word X, Word) { return X / 3 + X / 7 + X / 9; }
  static bool filterPaper(Word X, Word) { return (mapPaper(X, 0) & 1) == 0; }
  static Word combineMin(Word A, Word B, Word) { return A < B ? A : B; }
  static Word combineSum(Word A, Word B, Word) { return A + B; }
  static int cmpWord(Word A, Word B) { return A < B ? -1 : (A > B ? 1 : 0); }

  void setup(Runtime &RT, Rng &R) override {
    std::vector<Word> In =
        gen::randomWords(R, MinN + R.below(MaxN - MinN + 1));
    Edit.init(apps::buildList(RT, In));
    for (Modref *&D : Dst)
      D = RT.modref();
    RT.runCore<&apps::mapCore>(Edit.L.Head, Dst[0], &mapPaper, Word(0));
    RT.runCore<&apps::filterCore>(Edit.L.Head, Dst[1], &filterPaper, Word(0));
    RT.runCore<&apps::reverseCore>(Edit.L.Head, Dst[2]);
    RT.runCore<&apps::reduceCore>(Edit.L.Head, Dst[3], &combineMin, Word(0),
                                  Word(UINT64_MAX));
    RT.runCore<&apps::reduceCore>(Edit.L.Head, Dst[4], &combineSum, Word(0),
                                  Word(0));
    RT.runCore<&apps::quicksortCore>(Edit.L.Head, Dst[5], &cmpWord);
    RT.runCore<&apps::mergesortCore>(Edit.L.Head, Dst[6], &cmpWord);
  }

  void applyChange(Runtime &RT, Rng &R) override { Edit.randomEdit(RT, R); }

  std::vector<Word> output(Runtime &RT) override {
    std::vector<Word> Out;
    for (int I : {0, 1, 2, 5, 6})
      appendList(Out, apps::readList(RT, Dst[static_cast<size_t>(I)]));
    Out.push_back(RT.deref(Dst[3]));
    Out.push_back(RT.deref(Dst[4]));
    return Out;
  }

  std::vector<Word> expected(Runtime &RT) override {
    std::vector<Word> Cur = apps::readList(RT, Edit.L.Head);
    Arena A;
    apps::conv::PCell *In = apps::conv::buildList(A, Cur);
    std::vector<Word> Out;
    appendList(Out, apps::conv::toVector(
                        apps::conv::mapList(A, In, &mapPaper, 0)));
    appendList(Out, apps::conv::toVector(
                        apps::conv::filterList(A, In, &filterPaper, 0)));
    std::vector<Word> Rev(Cur.rbegin(), Cur.rend());
    appendList(Out, Rev);
    std::vector<Word> Sorted = Cur;
    std::sort(Sorted.begin(), Sorted.end());
    appendList(Out, Sorted);
    appendList(Out, Sorted);
    Out.push_back(apps::conv::reduceList(In, &combineMin, 0, UINT64_MAX));
    Out.push_back(apps::conv::reduceList(In, &combineSum, 0, 0));
    return Out;
  }

  std::unique_ptr<AppModel> clone() const override {
    return std::make_unique<ListModel>(*this);
  }

private:
  static void appendList(std::vector<Word> &Out, const std::vector<Word> &L) {
    Out.push_back(L.size());
    Out.insert(Out.end(), L.begin(), L.end());
  }

  size_t MinN, MaxN;
  ListEditor Edit;
  Modref *Dst[7] = {};
};

//===----------------------------------------------------------------------===//
// Expression trees
//===----------------------------------------------------------------------===//

class ExpTreeModel : public AppModel {
public:
  void setup(Runtime &RT, Rng &R) override {
    Tree = apps::buildExpTree(RT, R, 1 + R.below(64));
    Res = RT.modref();
    RT.runCore<&apps::evalExpCore>(Tree.Root, Res);
  }

  void applyChange(Runtime &RT, Rng &R) override {
    size_t Index = R.below(Tree.Leaves.size());
    apps::replaceLeaf(RT, Tree, Index, R.unit() * 10.0 - 5.0);
  }

  std::vector<Word> output(Runtime &RT) override { return {RT.deref(Res)}; }

  std::vector<Word> expected(Runtime &RT) override {
    // The core evaluates the same operation tree in the same association
    // order, so the doubles are bitwise identical.
    return {toWord(apps::evalExpConventional(RT, Tree.Root))};
  }

  std::unique_ptr<AppModel> clone() const override {
    return std::make_unique<ExpTreeModel>(*this);
  }

private:
  apps::ExpTree Tree;
  Modref *Res = nullptr;
};

//===----------------------------------------------------------------------===//
// Tree contraction
//===----------------------------------------------------------------------===//

class TreeContractionModel : public AppModel {
public:
  void setup(Runtime &RT, Rng &R) override {
    Forest = apps::buildRandomTree(RT, R, 1 + R.below(64));
    Dst = RT.modref();
    RT.runCore<&apps::treeContractCore>(Forest.Live.Head, Forest.Table0,
                                        Word(Forest.N), Dst);
  }

  void applyChange(Runtime &RT, Rng &R) override {
    // Deleted edges can be reinserted in any order: each deletion freed
    // its parent slot and made its child a root, and no other edit can
    // claim either (inserts come only from this pool).
    bool WantInsert = !Deleted.empty() && R.flip();
    if (!WantInsert) {
      auto Edges = Forest.edges();
      if (!Edges.empty()) {
        auto [P, C] = Edges[R.below(Edges.size())];
        apps::tcDeleteEdge(RT, Forest, P, C);
        Deleted.push_back({P, C});
        return;
      }
    }
    if (!Deleted.empty()) {
      size_t Pick = R.below(Deleted.size());
      auto [P, C] = Deleted[Pick];
      Deleted[Pick] = Deleted.back();
      Deleted.pop_back();
      apps::tcInsertEdge(RT, Forest, P, C);
    }
  }

  std::vector<Word> output(Runtime &RT) override { return {RT.deref(Dst)}; }

  std::vector<Word> expected(Runtime &) override {
    return {apps::tcContractConventional(Forest.Adj)};
  }

  std::unique_ptr<AppModel> clone() const override {
    return std::make_unique<TreeContractionModel>(*this);
  }

private:
  apps::TcForest Forest;
  Modref *Dst = nullptr;
  std::vector<std::pair<Word, Word>> Deleted;
};

//===----------------------------------------------------------------------===//
// Geometry
//===----------------------------------------------------------------------===//

/// Shared base: a point list under LIFO edits, plus helpers to read the
/// active points back for the conventional oracles.
class GeometryModelBase : public AppModel {
protected:
  std::vector<const apps::Point *> activePoints(Runtime &RT,
                                                const ListEditor &E) {
    std::vector<const apps::Point *> Pts;
    for (Word W : apps::readList(RT, E.L.Head))
      Pts.push_back(fromWord<const apps::Point *>(W));
    return Pts;
  }

  ListEditor makePointList(Runtime &RT, Rng &R, size_t MinN, size_t MaxN,
                           double ShiftX) {
    size_t N = MinN + R.below(MaxN - MinN + 1);
    std::vector<apps::Point *> Pts = apps::randomPoints(RT, R, N, ShiftX);
    ListEditor E;
    E.init(apps::buildPointList(RT, Pts));
    E.MinLive = 3; // Keep the hulls non-degenerate.
    return E;
  }
};

class QuickhullModel : public GeometryModelBase {
public:
  explicit QuickhullModel(size_t MinN = 8, size_t MaxN = 56)
      : MinN(MinN), MaxN(MaxN) {}

  void setup(Runtime &RT, Rng &R) override {
    Edit = makePointList(RT, R, MinN, MaxN, 0.0);
    Dst = RT.modref();
    RT.runCore<&apps::quickhullCore>(Edit.L.Head, Dst);
  }

  void applyChange(Runtime &RT, Rng &R) override { Edit.randomEdit(RT, R); }

  std::vector<Word> output(Runtime &RT) override {
    return apps::readList(RT, Dst);
  }

  std::vector<Word> expected(Runtime &RT) override {
    // conv::quickhull uses the same deterministic tie-breaks, so hull
    // vertex sequences compare pointer-for-pointer.
    std::vector<Word> Out;
    for (const apps::Point *P : apps::conv::quickhull(activePoints(RT, Edit)))
      Out.push_back(toWord(P));
    return Out;
  }

  std::unique_ptr<AppModel> clone() const override {
    return std::make_unique<QuickhullModel>(*this);
  }

private:
  size_t MinN, MaxN;
  ListEditor Edit;
  Modref *Dst = nullptr;
};

class DiameterModel : public GeometryModelBase {
public:
  explicit DiameterModel(size_t MinN = 12, size_t MaxN = 56)
      : MinN(MinN), MaxN(MaxN) {}

  void setup(Runtime &RT, Rng &R) override {
    Edit = makePointList(RT, R, MinN, MaxN, 0.0);
    Dst = RT.modref();
    RT.runCore<&apps::diameterCore>(Edit.L.Head, Dst);
  }

  void applyChange(Runtime &RT, Rng &R) override { Edit.randomEdit(RT, R); }

  std::vector<Word> output(Runtime &RT) override { return {RT.deref(Dst)}; }

  std::vector<Word> expected(Runtime &RT) override {
    return {toWord(apps::conv::diameter2(activePoints(RT, Edit)))};
  }

  std::unique_ptr<AppModel> clone() const override {
    return std::make_unique<DiameterModel>(*this);
  }

private:
  size_t MinN, MaxN;
  ListEditor Edit;
  Modref *Dst = nullptr;
};

class DistanceModel : public GeometryModelBase {
public:
  /// Each of the two point sets has MinN to MaxN points.
  explicit DistanceModel(size_t MinN = 12, size_t MaxN = 40)
      : MinN(MinN), MaxN(MaxN) {}

  void setup(Runtime &RT, Rng &R) override {
    // Two well-separated squares, as in the paper's distance inputs.
    EditA = makePointList(RT, R, MinN, MaxN, 0.0);
    EditB = makePointList(RT, R, MinN, MaxN, 3.0);
    Dst = RT.modref();
    RT.runCore<&apps::distanceCore>(EditA.L.Head, EditB.L.Head, Dst);
  }

  void applyChange(Runtime &RT, Rng &R) override {
    (R.flip() ? EditA : EditB).randomEdit(RT, R);
  }

  std::vector<Word> output(Runtime &RT) override { return {RT.deref(Dst)}; }

  std::vector<Word> expected(Runtime &RT) override {
    return {toWord(apps::conv::distance2(activePoints(RT, EditA),
                                         activePoints(RT, EditB)))};
  }

  std::unique_ptr<AppModel> clone() const override {
    return std::make_unique<DistanceModel>(*this);
  }

private:
  size_t MinN, MaxN;
  ListEditor EditA, EditB;
  Modref *Dst = nullptr;
};

//===----------------------------------------------------------------------===//
// Random CL programs
//===----------------------------------------------------------------------===//

/// A program drawn by \p Gen whose f0 takes the integer arguments Ints,
/// then one int cell per input. The NORMALIZEd program runs on the VM
/// over modifiables; a change rewrites one input; the oracle runs the
/// original program on the conventional interpreter. Setup checks that
/// the program verifies, that NORMALIZE's output is in normal form, and
/// that it computes what the original does. The VM is not in a
/// checkpoint, so the model has no clone().
class ProgramModel : public AppModel {
public:
  using Generator = cl::Program (*)(Rng &);

  ProgramModel(Generator Gen, std::vector<Word> Ints, size_t Inputs,
               uint64_t Range)
      : Gen(Gen), Ints(std::move(Ints)), Cur(Inputs), Range(Range) {}

  void setup(Runtime &RT, Rng &R) override {
    Orig = Gen(R);
    for (Word &V : Cur)
      V = R.below(Range);
    if (std::vector<std::string> Errs = cl::verifyProgram(Orig);
        !Errs.empty()) {
      Problem = "the generated program does not verify: " + Errs.front();
      return;
    }
    Norm = normalize::normalizeProgram(Orig).Prog;
    if (!cl::isNormalForm(Norm))
      Problem = "NORMALIZE's output is not in normal form";
    else if (runConv(Norm) != runConv(Orig))
      Problem = "NORMALIZE changed the program's conventional semantics";
    if (!Problem.empty())
      return;
    Machine = std::make_unique<interp::Vm>(RT, Norm);
    std::vector<Word> Args = Ints;
    for (Word V : Cur) {
      Mods.push_back(Machine->metaModref());
      Machine->metaWrite(Mods.back(), V);
      Args.push_back(toWord(Mods.back()));
    }
    Machine->runCore("f0", Args);
  }

  std::string setupProblem() const override { return Problem; }

  void applyChange(Runtime &, Rng &R) override {
    size_t Which = R.below(Cur.size());
    Cur[Which] = R.below(Range);
    Machine->metaWrite(Mods[Which], Cur[Which]);
  }

  std::vector<Word> output(Runtime &) override {
    std::vector<Word> Out;
    for (Modref *M : Mods)
      Out.push_back(Machine->metaRead(M));
    return Out;
  }

  std::vector<Word> expected(Runtime &) override { return runConv(Orig); }

private:
  /// The cells' final values after \p P runs on the current inputs.
  std::vector<Word> runConv(const cl::Program &P) const {
    interp::ConvInterp CI(P);
    std::vector<Word> Args = Ints;
    std::vector<Word *> Cells;
    for (Word V : Cur) {
      Cells.push_back(CI.newCell(V));
      Args.push_back(toWord(Cells.back()));
    }
    CI.run("f0", Args);
    std::vector<Word> Out;
    for (Word *C : Cells)
      Out.push_back(*C);
    return Out;
  }

  Generator Gen;
  std::vector<Word> Ints, Cur;
  uint64_t Range;
  cl::Program Orig, Norm;
  std::string Problem;
  std::unique_ptr<interp::Vm> Machine;
  std::vector<Modref *> Mods;
};

} // namespace harness
} // namespace ceal

#endif // CEAL_TESTS_SUPPORT_ORACLEMODELS_H
