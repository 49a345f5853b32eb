//===- tests/NormalizeVmTest.cpp - NORMALIZE + VM end-to-end --------------===//
//
// The compiler pipeline's correctness contract, tested in layers:
//
//  1. Structure: NORMALIZE output is in normal form, verifies, and obeys
//     the size bounds of Theorem 3; it is idempotent.
//  2. Semantics: for every sample program (and for random programs), the
//     conventional interpretation of the normalized program equals that
//     of the original, and the self-adjusting VM's from-scratch run
//     equals both.
//  3. Self-adjustment: after mutator modifications, propagate yields the
//     same observables as a conventional from-scratch run on the
//     modified input — the paper's change-propagation guarantee.
//
//===----------------------------------------------------------------------===//

#include "cl/Builder.h"
#include "cl/Parser.h"
#include "cl/Printer.h"
#include "cl/Samples.h"
#include "cl/Verifier.h"
#include "interp/Vm.h"
#include "normalize/Normalize.h"
#include "support/Random.h"
#include "tests/support/Generators.h"
#include "tests/support/OracleModels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace ceal;
using namespace ceal::cl;
using namespace ceal::interp;
using namespace ceal::normalize;

namespace {

Program parseOrDie(const std::string &Src) {
  auto R = parseProgram(Src);
  EXPECT_TRUE(R) << R.Error;
  return std::move(*R.Prog);
}

//===----------------------------------------------------------------------===//
// Input builders (mutator-side structures for both executors)
//===----------------------------------------------------------------------===//

/// A modifiable list in the VM's heap. Cell layout: [0] head, [1] tail.
struct VmList {
  Modref *Head = nullptr;
  std::vector<Word *> Cells;
  std::vector<Modref *> Tails; ///< Tails[i] holds cell i+1 (or 0).

  Modref *tailRefBefore(size_t I) const { return I == 0 ? Head : Tails[I - 1]; }
};

VmList buildVmList(Vm &M, const std::vector<int64_t> &Vals) {
  VmList L;
  L.Head = M.metaModref();
  Modref *Cur = L.Head;
  for (int64_t V : Vals) {
    auto *Blk = static_cast<Word *>(M.metaAlloc(16));
    Modref *Tail = M.metaModref();
    Blk[0] = toWord(V);
    Blk[1] = toWord(Tail);
    M.metaWrite(Cur, toWord(Blk));
    L.Cells.push_back(Blk);
    L.Tails.push_back(Tail);
    Cur = Tail;
  }
  return L;
}

std::vector<int64_t> readVmList(Vm &M, Modref *Out) {
  std::vector<int64_t> Result;
  Word W = M.metaRead(Out);
  while (W) {
    Word *Blk = fromWord<Word *>(W);
    Result.push_back(fromWord<int64_t>(Blk[0]));
    W = M.metaRead(fromWord<Modref *>(Blk[1]));
  }
  return Result;
}

/// The same list in the conventional interpreter's heap (cells are plain
/// one-word "modifiables").
Word *buildConvList(ConvInterp &CI, const std::vector<int64_t> &Vals) {
  Word *Head = CI.newCell(0);
  Word *Cur = Head;
  for (int64_t V : Vals) {
    auto *Blk = static_cast<Word *>(CI.alloc(16));
    Word *Tail = CI.newCell(0);
    Blk[0] = toWord(V);
    Blk[1] = toWord(Tail);
    *Cur = toWord(Blk);
    Cur = Tail;
  }
  return Head;
}

std::vector<int64_t> readConvList(Word *Out) {
  std::vector<int64_t> Result;
  Word W = *Out;
  while (W) {
    Word *Blk = fromWord<Word *>(W);
    Result.push_back(fromWord<int64_t>(Blk[0]));
    W = *fromWord<Word *>(Blk[1]);
  }
  return Result;
}

/// Runs one of the list cores conventionally and returns the output list.
std::vector<int64_t> convListRun(const Program &P, const std::string &Entry,
                                 const std::vector<int64_t> &In) {
  ConvInterp CI(P);
  Word *Head = buildConvList(CI, In);
  Word *Out = CI.newCell(0);
  CI.run(Entry, {toWord(Head), toWord(Out)});
  return readConvList(Out);
}

} // namespace

//===----------------------------------------------------------------------===//
// Structural properties of NORMALIZE
//===----------------------------------------------------------------------===//

TEST(Normalize, SamplesReachNormalForm) {
  for (const auto &[Name, Source] : samples::allPrograms()) {
    Program P = parseOrDie(Source);
    NormalizeResult R = normalizeProgram(P);
    EXPECT_TRUE(isNormalForm(R.Prog)) << Name;
    EXPECT_TRUE(verifyProgram(R.Prog).empty()) << Name;
    // Theorem 3: block count grows by at most one synthetic entry per
    // function; fresh functions number at most the block count.
    EXPECT_LE(R.Stats.OutputBlocks,
              R.Stats.InputBlocks + P.Funcs.size())
        << Name;
    EXPECT_LE(R.Stats.FreshFunctions, R.Stats.InputBlocks) << Name;
    // Theorem 3 size bound: O(m + n * ML(P)) words, with a concrete
    // constant that the proof's accounting supports.
    size_t Bound = R.Stats.InputWords +
                   (R.Stats.InputBlocks + P.Funcs.size() + 1) *
                       (2 * R.Stats.MaxLive + 8);
    EXPECT_LE(R.Stats.OutputWords, Bound) << Name;
  }
}

TEST(Normalize, Idempotent) {
  for (const auto &[Name, Source] : samples::allPrograms()) {
    Program P = parseOrDie(Source);
    NormalizeResult Once = normalizeProgram(P);
    NormalizeResult Twice = normalizeProgram(Once.Prog);
    EXPECT_EQ(Twice.Stats.FreshFunctions, 0u)
        << Name << ": normal-form programs need no fresh functions";
    EXPECT_EQ(Twice.Stats.OutputBlocks, Once.Stats.OutputBlocks) << Name;
  }
}

TEST(Normalize, PaperExampleStructure) {
  // For the expression evaluator, normalization creates one fresh
  // function per read entry (the paper's read_r, read_a, read_b of
  // Fig. 5).
  Program P = parseOrDie(samples::ExpTrees);
  NormalizeResult R = normalizeProgram(P);
  EXPECT_EQ(R.Stats.FreshFunctions, 3u);
  ASSERT_EQ(R.Prog.Funcs.size(), 4u);
  // Every read block now tails (Fig. 5's highlighted lines).
  for (const Function &F : R.Prog.Funcs)
    for (const BasicBlock &B : F.Blocks)
      if (B.K == BasicBlock::Cmd && B.C.K == Command::Read) {
        EXPECT_EQ(B.J.K, Jump::Tail);
      }
}

//===----------------------------------------------------------------------===//
// Conventional semantics preservation
//===----------------------------------------------------------------------===//

TEST(Normalize, PreservesConventionalSemanticsOnLists) {
  Rng R(7);
  std::vector<int64_t> In;
  for (int I = 0; I < 64; ++I)
    In.push_back(static_cast<int64_t>(R.below(1000)));

  Program Orig = parseOrDie(samples::ListPrims);
  Program Norm = normalizeProgram(Orig).Prog;
  for (const char *Entry : {"map", "filter", "reverse"}) {
    auto A = convListRun(Orig, Entry, In);
    auto B = convListRun(Norm, Entry, In);
    EXPECT_EQ(A, B) << Entry;
  }
  // sum writes a scalar, not a list; compare it directly too.
  {
    ConvInterp CA(Orig), CB(Norm);
    Word *HA = buildConvList(CA, In), *HB = buildConvList(CB, In);
    Word *OA = CA.newCell(0), *OB = CB.newCell(0);
    CA.run("sum", {toWord(HA), toWord(OA)});
    CB.run("sum", {toWord(HB), toWord(OB)});
    EXPECT_EQ(*OA, *OB);
    int64_t Expected = 0;
    for (int64_t V : In)
      Expected += V;
    EXPECT_EQ(fromWord<int64_t>(*OA), Expected);
  }
}

TEST(Normalize, PreservesConventionalSemanticsOnSorts) {
  Rng R(8);
  std::vector<int64_t> In;
  for (int I = 0; I < 80; ++I)
    In.push_back(static_cast<int64_t>(R.below(500)));
  std::vector<int64_t> Expected = In;
  std::sort(Expected.begin(), Expected.end());

  for (const char *Which : {"quicksort", "mergesort"}) {
    Program Orig = parseOrDie(Which == std::string("quicksort")
                                  ? samples::Quicksort
                                  : samples::Mergesort);
    Program Norm = normalizeProgram(Orig).Prog;
    const char *Entry = Which == std::string("quicksort") ? "qsort" : "msort";
    EXPECT_EQ(convListRun(Orig, Entry, In), Expected) << Which;
    EXPECT_EQ(convListRun(Norm, Entry, In), Expected) << Which;
  }
}

//===----------------------------------------------------------------------===//
// The self-adjusting VM: from-scratch runs and change propagation
//===----------------------------------------------------------------------===//

TEST(Vm, MapFromScratchAndPropagate) {
  Program Norm = normalizeProgram(parseOrDie(samples::ListPrims)).Prog;
  Rng R(9);
  std::vector<int64_t> In;
  for (int I = 0; I < 120; ++I)
    In.push_back(static_cast<int64_t>(R.below(100000)));

  Runtime RT;
  Vm M(RT, Norm);
  VmList L = buildVmList(M, In);
  Modref *Out = M.metaModref();
  M.runCore("map", {toWord(L.Head), toWord(Out)});
  EXPECT_EQ(readVmList(M, Out), convListRun(Norm, "map", In));

  // Delete + reinsert random cells; compare against conventional runs on
  // the edited input each time.
  for (int Edit = 0; Edit < 25; ++Edit) {
    size_t I = R.below(L.Cells.size());
    Word After = M.metaRead(L.Tails[I]);
    M.metaWrite(L.tailRefBefore(I), After); // Delete cell I.
    M.propagate();
    std::vector<int64_t> Cur;
    {
      Word W = M.metaRead(L.Head);
      while (W) {
        Word *Blk = fromWord<Word *>(W);
        Cur.push_back(fromWord<int64_t>(Blk[0]));
        W = M.metaRead(fromWord<Modref *>(Blk[1]));
      }
    }
    ASSERT_EQ(readVmList(M, Out), convListRun(Norm, "map", Cur))
        << "edit " << Edit;
    M.metaWrite(L.tailRefBefore(I), toWord(L.Cells[I])); // Reinsert.
    M.propagate();
    ASSERT_EQ(readVmList(M, Out), convListRun(Norm, "map", In))
        << "edit " << Edit;
  }
}

TEST(Vm, MapUpdatesAreIncremental) {
  Program Norm = normalizeProgram(parseOrDie(samples::ListPrims)).Prog;
  std::vector<int64_t> In;
  for (int I = 0; I < 2000; ++I)
    In.push_back(I * 13);
  Runtime RT;
  Vm M(RT, Norm);
  VmList L = buildVmList(M, In);
  Modref *Out = M.metaModref();
  M.runCore("map", {toWord(L.Head), toWord(Out)});

  uint64_t Before = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted;
  for (size_t I = 300; I < 320; ++I) {
    Word After = M.metaRead(L.Tails[I]);
    M.metaWrite(L.tailRefBefore(I), After);
    M.propagate();
    M.metaWrite(L.tailRefBefore(I), toWord(L.Cells[I]));
    M.propagate();
  }
  uint64_t Work = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted - Before;
  EXPECT_LT(Work, 600u) << "compiled CL map must splice, not recompute";
  EXPECT_GE(RT.stats().MemoReadHits, 20u);
}

TEST(Vm, FilterReverseSumPropagate) {
  Program Norm = normalizeProgram(parseOrDie(samples::ListPrims)).Prog;
  Rng R(10);
  std::vector<int64_t> In;
  for (int I = 0; I < 60; ++I)
    In.push_back(static_cast<int64_t>(R.below(3000)));

  for (const char *Entry : {"filter", "reverse", "sum"}) {
    Runtime RT;
    Vm M(RT, Norm);
    VmList L = buildVmList(M, In);
    Modref *Out = M.metaModref();
    M.runCore(Entry, {toWord(L.Head), toWord(Out)});

    for (int Edit = 0; Edit < 12; ++Edit) {
      size_t I = R.below(L.Cells.size());
      Word After = M.metaRead(L.Tails[I]);
      M.metaWrite(L.tailRefBefore(I), After);
      M.propagate();
      std::vector<int64_t> Cur;
      Word W = M.metaRead(L.Head);
      while (W) {
        Word *Blk = fromWord<Word *>(W);
        Cur.push_back(fromWord<int64_t>(Blk[0]));
        W = M.metaRead(fromWord<Modref *>(Blk[1]));
      }
      if (Entry == std::string("sum")) {
        int64_t Expected = 0;
        for (int64_t V : Cur)
          Expected += V;
        ASSERT_EQ(fromWord<int64_t>(M.metaRead(Out)), Expected)
            << Entry << " edit " << Edit;
      } else {
        ASSERT_EQ(readVmList(M, Out), convListRun(Norm, Entry, Cur))
            << Entry << " edit " << Edit;
      }
      M.metaWrite(L.tailRefBefore(I), toWord(L.Cells[I]));
      M.propagate();
    }
  }
}

TEST(Vm, SortsPropagate) {
  Rng R(11);
  std::vector<int64_t> In;
  for (int I = 0; I < 48; ++I)
    In.push_back(static_cast<int64_t>(R.below(2000)));

  struct Case {
    const char *Source;
    const char *Entry;
  };
  for (const Case &C : {Case{samples::Quicksort, "qsort"},
                        Case{samples::Mergesort, "msort"}}) {
    Program Norm = normalizeProgram(parseOrDie(C.Source)).Prog;
    Runtime RT;
    Vm M(RT, Norm);
    VmList L = buildVmList(M, In);
    Modref *Out = M.metaModref();
    M.runCore(C.Entry, {toWord(L.Head), toWord(Out)});
    std::vector<int64_t> Expected = In;
    std::sort(Expected.begin(), Expected.end());
    ASSERT_EQ(readVmList(M, Out), Expected) << C.Entry;

    for (int Edit = 0; Edit < 10; ++Edit) {
      size_t I = R.below(L.Cells.size());
      Word After = M.metaRead(L.Tails[I]);
      M.metaWrite(L.tailRefBefore(I), After);
      M.propagate();
      std::vector<int64_t> Smaller;
      for (size_t J = 0; J < In.size(); ++J)
        if (J != I)
          Smaller.push_back(In[J]);
      // Careful: deleting cell I unlinks exactly one element.
      std::sort(Smaller.begin(), Smaller.end());
      ASSERT_EQ(readVmList(M, Out), Smaller) << C.Entry << " edit " << Edit;
      M.metaWrite(L.tailRefBefore(I), toWord(L.Cells[I]));
      M.propagate();
      ASSERT_EQ(readVmList(M, Out), Expected) << C.Entry << " edit " << Edit;
    }
  }
}

// Stability of the CL mergesort: ms_split sends each cell to a side by a
// coin of its own identity and level, so deleting one cell moves no other
// cell and a single update re-executes a small fraction of the reads a
// from-scratch run traces. A split by position flips the side of every
// later cell, and an update then costs more than a fresh run.
TEST(Vm, MergesortUpdatesAreIncremental) {
  Program Norm = normalizeProgram(parseOrDie(samples::Mergesort)).Prog;
  Rng R(12);
  std::vector<int64_t> In;
  for (int I = 0; I < 512; ++I)
    In.push_back(static_cast<int64_t>(R.below(1u << 30)));

  Runtime RT;
  Vm M(RT, Norm);
  VmList L = buildVmList(M, In);
  Modref *Out = M.metaModref();
  M.runCore("msort", {toWord(L.Head), toWord(Out)});
  uint64_t FromScratch = RT.stats().ReadsTraced;
  uint64_t Before = RT.stats().ReadsReexecuted;

  constexpr int Pairs = 20;
  for (int Edit = 0; Edit < Pairs; ++Edit) {
    size_t I = R.below(L.Cells.size());
    M.metaWrite(L.tailRefBefore(I), M.metaRead(L.Tails[I])); // Delete.
    M.propagate();
    M.metaWrite(L.tailRefBefore(I), toWord(L.Cells[I])); // Reinsert.
    M.propagate();
  }
  std::vector<int64_t> Expected = In;
  std::sort(Expected.begin(), Expected.end());
  ASSERT_EQ(readVmList(M, Out), Expected);

  double Mean =
      double(RT.stats().ReadsReexecuted - Before) / double(2 * Pairs);
  EXPECT_LT(Mean, 0.02 * double(FromScratch))
      << "from-scratch reads " << FromScratch;
}

TEST(Vm, ExpTreesPropagate) {
  Program Norm = normalizeProgram(parseOrDie(samples::ExpTrees)).Prog;
  Runtime RT;
  Vm M(RT, Norm);

  // Build the paper's tree: ((3+4)-(1-2))+(5-6), expecting 7.
  auto MakeLeaf = [&](int64_t V) {
    auto *N = static_cast<Word *>(M.metaAlloc(32));
    N[0] = 1;
    N[1] = toWord(V);
    return N;
  };
  auto MakeNode = [&](int64_t Op, Word *L, Word *R) {
    auto *N = static_cast<Word *>(M.metaAlloc(32));
    Modref *LM = M.metaModref(), *RM = M.metaModref();
    M.metaWrite(LM, toWord(L));
    M.metaWrite(RM, toWord(R));
    N[0] = 0;
    N[1] = toWord(Op);
    N[2] = toWord(LM);
    N[3] = toWord(RM);
    return N;
  };
  Word *D = MakeNode(0, MakeLeaf(3), MakeLeaf(4));
  Word *F = MakeNode(1, MakeLeaf(1), MakeLeaf(2));
  Word *B = MakeNode(1, D, F);
  Word *I = MakeNode(1, MakeLeaf(5), MakeLeaf(6));
  Word *A = MakeNode(0, B, I);
  Modref *Root = M.metaModref();
  M.metaWrite(Root, toWord(A));
  Modref *Res = M.metaModref();
  M.runCore("eval", {toWord(Root), toWord(Res)});
  EXPECT_EQ(fromWord<int64_t>(M.metaRead(Res)), 7);

  // The paper's update: leaf 6 becomes (6+7); the result becomes 0.
  Word *Sub = MakeNode(0, MakeLeaf(6), MakeLeaf(7));
  M.metaWrite(fromWord<Modref *>(I[3]), toWord(Sub));
  M.propagate();
  EXPECT_EQ(fromWord<int64_t>(M.metaRead(Res)), 0);
}

TEST(Vm, QuickhullMatchesConventional) {
  Program Orig = parseOrDie(samples::Quickhull);
  Program Norm = normalizeProgram(Orig).Prog;
  Rng R(12);

  // Integer points; read hulls back as coordinate sequences.
  std::vector<std::pair<int64_t, int64_t>> Pts;
  for (int I = 0; I < 60; ++I)
    Pts.push_back({static_cast<int64_t>(R.below(1000)),
                   static_cast<int64_t>(R.below(1000))});

  // Conventional run.
  ConvInterp CI(Norm);
  Word *CHead = CI.newCell(0);
  {
    Word *Cur = CHead;
    for (auto [X, Y] : Pts) {
      auto *P = static_cast<Word *>(CI.alloc(16));
      P[0] = toWord(X);
      P[1] = toWord(Y);
      auto *Blk = static_cast<Word *>(CI.alloc(16));
      Word *Tail = CI.newCell(0);
      Blk[0] = toWord(P);
      Blk[1] = toWord(Tail);
      *Cur = toWord(Blk);
      Cur = Tail;
    }
  }
  Word *COut = CI.newCell(0);
  CI.run("qh", {toWord(CHead), toWord(COut)});
  std::vector<std::pair<int64_t, int64_t>> ConvHull;
  for (Word W = *COut; W;) {
    Word *Blk = fromWord<Word *>(W);
    Word *P = fromWord<Word *>(Blk[0]);
    ConvHull.push_back(
        {fromWord<int64_t>(P[0]), fromWord<int64_t>(P[1])});
    W = *fromWord<Word *>(Blk[1]);
  }
  ASSERT_GE(ConvHull.size(), 3u);

  // Self-adjusting run.
  Runtime RT;
  Vm M(RT, Norm);
  Modref *Head = M.metaModref();
  std::vector<Modref *> Tails;
  {
    Modref *Cur = Head;
    for (auto [X, Y] : Pts) {
      auto *P = static_cast<Word *>(M.metaAlloc(16));
      P[0] = toWord(X);
      P[1] = toWord(Y);
      auto *Blk = static_cast<Word *>(M.metaAlloc(16));
      Modref *Tail = M.metaModref();
      Blk[0] = toWord(P);
      Blk[1] = toWord(Tail);
      M.metaWrite(Cur, toWord(Blk));
      Tails.push_back(Tail);
      Cur = Tail;
    }
  }
  Modref *Out = M.metaModref();
  M.runCore("qh", {toWord(Head), toWord(Out)});
  auto ReadHull = [&] {
    std::vector<std::pair<int64_t, int64_t>> Hull;
    for (Word W = M.metaRead(Out); W;) {
      Word *Blk = fromWord<Word *>(W);
      Word *P = fromWord<Word *>(Blk[0]);
      Hull.push_back({fromWord<int64_t>(P[0]), fromWord<int64_t>(P[1])});
      W = M.metaRead(fromWord<Modref *>(Blk[1]));
    }
    return Hull;
  };
  EXPECT_EQ(ReadHull(), ConvHull);

  // Cumulatively delete several points (including the min-x candidate at
  // index 0); compare against a conventional run on the remaining set
  // each time. Indices are non-adjacent so each edit point stays linked.
  std::set<size_t> Deleted;
  for (size_t Del : {size_t(0), size_t(7), size_t(23), size_t(41)}) {
    Deleted.insert(Del);
    Word After = M.metaRead(Tails[Del]);
    Modref *Before = Del == 0 ? Head : Tails[Del - 1];
    M.metaWrite(Before, After);
    M.propagate();

    ConvInterp CJ(Norm);
    Word *H2 = CJ.newCell(0);
    Word *Cur = H2;
    for (size_t J = 0; J < Pts.size(); ++J) {
      if (Deleted.count(J))
        continue;
      auto *P = static_cast<Word *>(CJ.alloc(16));
      P[0] = toWord(Pts[J].first);
      P[1] = toWord(Pts[J].second);
      auto *Blk = static_cast<Word *>(CJ.alloc(16));
      Word *Tail = CJ.newCell(0);
      Blk[0] = toWord(P);
      Blk[1] = toWord(Tail);
      *Cur = toWord(Blk);
      Cur = Tail;
    }
    Word *O2 = CJ.newCell(0);
    CJ.run("qh", {toWord(H2), toWord(O2)});
    std::vector<std::pair<int64_t, int64_t>> Hull2;
    for (Word W = *O2; W;) {
      Word *Blk = fromWord<Word *>(W);
      Word *P = fromWord<Word *>(Blk[0]);
      Hull2.push_back({fromWord<int64_t>(P[0]), fromWord<int64_t>(P[1])});
      W = *fromWord<Word *>(Blk[1]);
    }
    ASSERT_EQ(ReadHull(), Hull2) << "after deleting point " << Del;
  }
}

//===----------------------------------------------------------------------===//
// Random-program property test
//===----------------------------------------------------------------------===//

namespace {

/// Generates random terminating CL programs: a DAG of functions (tails
/// and calls only target higher function indices), DAG control flow
/// inside each function (gotos only target higher block ids), scalar
/// arithmetic, and reads/writes over four shared modifiables.
Program randomProgram(Rng &R) {
  ProgramBuilder PB;
  unsigned NumFuncs = 2 + static_cast<unsigned>(R.below(3));
  std::vector<FuncBuilder> Fbs;
  for (unsigned I = 0; I < NumFuncs; ++I)
    Fbs.push_back(PB.beginFunc(gen::indexedName("f", I)));

  for (unsigned FI = 0; FI < NumFuncs; ++FI) {
    FuncBuilder &FB = Fbs[FI];
    std::vector<VarId> Ints, Mods;
    Ints.push_back(FB.param("a", Type::intTy()));
    Ints.push_back(FB.param("b", Type::intTy()));
    for (int I = 0; I < 4; ++I)
      Mods.push_back(FB.param(gen::indexedName("m", I),
                              Type::ptrTo(Type::modrefTy())));
    for (int I = 0; I < 3; ++I)
      Ints.push_back(FB.local(gen::indexedName("t", I), Type::intTy()));

    unsigned NumBlocks = 3 + static_cast<unsigned>(R.below(8));
    std::vector<BlockId> Blocks;
    for (unsigned B = 0; B < NumBlocks; ++B)
      Blocks.push_back(FB.block());

    auto RandInt = [&] { return Ints[R.below(Ints.size())]; };
    auto RandMod = [&] { return Mods[R.below(Mods.size())]; };
    auto ArgsFor = [&]() {
      // Callee signature: (int, int, modref*, modref*, modref*, modref*).
      return std::vector<VarId>{RandInt(), RandInt(), RandMod(), RandMod(),
                                RandMod(), RandMod()};
    };
    auto RandomJump = [&](unsigned B) -> Jump {
      bool CanGoto = B + 1 < NumBlocks;
      bool CanTail = FI + 1 < NumFuncs;
      if (CanTail && (!CanGoto || R.below(100) < 25)) {
        FuncId Target =
            FI + 1 + static_cast<FuncId>(R.below(NumFuncs - FI - 1));
        return Jump::tailCall(Target, ArgsFor());
      }
      if (CanGoto) {
        BlockId Target =
            B + 1 + static_cast<BlockId>(R.below(NumBlocks - B - 1));
        return Jump::gotoBlock(Target);
      }
      return Jump(); // Patched to done below (unreachable here).
    };

    for (unsigned B = 0; B < NumBlocks; ++B) {
      bool IsLast = B + 1 == NumBlocks;
      bool CanJump = !IsLast || FI + 1 < NumFuncs;
      if (IsLast && !CanJump) {
        FB.setDone(Blocks[B]);
        continue;
      }
      uint64_t Kind = R.below(100);
      if (IsLast && Kind >= 25) {
        FB.setDone(Blocks[B]);
        continue;
      }
      if (Kind < 12 && !IsLast) {
        FB.setCond(Blocks[B], RandInt(), RandomJump(B), RandomJump(B));
        continue;
      }
      Command C;
      uint64_t CK = R.below(100);
      if (CK < 25) {
        C = FuncBuilder::assign(
            RandInt(), Expr::makeConst(static_cast<int64_t>(R.below(64))));
      } else if (CK < 45) {
        OpKind Ops[] = {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Lt,
                        OpKind::Eq, OpKind::Div, OpKind::Mod};
        OpKind Op = Ops[R.below(7)];
        C = FuncBuilder::assign(RandInt(),
                                Expr::makePrim(Op, {RandInt(), RandInt()}));
      } else if (CK < 65) {
        C = FuncBuilder::write(RandMod(), RandInt());
      } else if (CK < 85) {
        C = FuncBuilder::read(RandInt(), RandMod());
      } else if (FI + 1 < NumFuncs) {
        FuncId Target =
            FI + 1 + static_cast<FuncId>(R.below(NumFuncs - FI - 1));
        C = FuncBuilder::call(Target, ArgsFor());
      } else {
        C = FuncBuilder::nop();
      }
      FB.setCmd(Blocks[B], std::move(C), RandomJump(B));
    }
  }
  return PB.take();
}

} // namespace

TEST(Vm, RandomProgramsPreserveSemanticsAndPropagate) {
  // f0(3, 5, m0..m3) over inputs below 50; 120 programs, three edits each.
  harness::HarnessOptions Opt;
  Opt.Sequences = 120;
  Opt.Changes = 3;
  auto Make = [] {
    return std::make_unique<harness::ProgramModel>(
        &randomProgram, std::vector<Word>{3, 5}, 4, 50);
  };
  EXPECT_EQ(harness::runOracleHarness(Make, Opt), "");
}

//===----------------------------------------------------------------------===//
// The rounds-based CL reduction (listreduce sample)
//===----------------------------------------------------------------------===//

TEST(Vm, ListReduceSumsAndUpdatesIncrementally) {
  Program Norm = normalizeProgram(parseOrDie(samples::ListReduce)).Prog;
  Rng R(21);
  std::vector<int64_t> In;
  for (int I = 0; I < 1500; ++I)
    In.push_back(static_cast<int64_t>(R.below(100000)));

  Runtime RT;
  Vm M(RT, Norm);
  VmList L = buildVmList(M, In);
  Modref *Out = M.metaModref();
  M.runCore("lrsum", {toWord(L.Head), toWord(Out)});
  int64_t Expected = 0;
  for (int64_t V : In)
    Expected += V;
  EXPECT_EQ(fromWord<int64_t>(M.metaRead(Out)), Expected);

  // Edits stay consistent and touch only O(log n) of the trace.
  uint64_t Before = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted;
  int Edits = 0;
  for (int Round = 0; Round < 20; ++Round, Edits += 2) {
    size_t I = R.below(In.size());
    Word After = M.metaRead(L.Tails[I]);
    M.metaWrite(L.tailRefBefore(I), After);
    M.propagate();
    ASSERT_EQ(fromWord<int64_t>(M.metaRead(Out)), Expected - In[I])
        << "round " << Round;
    M.metaWrite(L.tailRefBefore(I), toWord(L.Cells[I]));
    M.propagate();
    ASSERT_EQ(fromWord<int64_t>(M.metaRead(Out)), Expected)
        << "round " << Round;
  }
  uint64_t Work = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted - Before;
  EXPECT_LT(Work / Edits, 500u) << "rounds-based reduce must be incremental";
}

//===----------------------------------------------------------------------===//
// Frame-stack growth under live outer frames
//===----------------------------------------------------------------------===//

namespace {

/// A CL program whose frames, closure frames and tail argument lists are
/// far larger than the executors' first stack allocation, and whose
/// nested entries run while wide outer frames stay live:
///  * `top(in, in2, out, out2)` reads `in`, defines W locals, reads `in2`
///    (so the read's closure carries every live local), allocates a block
///    whose initializer `fill` recursively `call`s `rec`, then passes all
///    W locals to `sink` twice: by `call` (writing out2) and by tail
///    (writing out);
///  * `rec(acc, depth)` holds W locals across its recursive `call` and
///    folds them into acc[0] afterwards, so a clobbered outer frame shows.
/// Only the initializer stores into the block, as correct usage demands
/// of a memo-reused allocation.
std::string wideProgram(size_t W) {
  auto Vars = [&] {
    std::string S;
    for (size_t I = 0; I < W; ++I)
      S += "var int v" + std::to_string(I) + "; ";
    return S + "\n";
  };
  auto List = [&] {
    std::string S;
    for (size_t I = 0; I < W; ++I)
      S += ", v" + std::to_string(I);
    return S;
  };
  /// Blocks L0..L{W-1} defining v0 := add(First, One), vi := add(v{i-1},
  /// Step), then goto \p After.
  auto Chain = [&](const char *L, const char *First, const char *One,
                   const char *Step, const char *After) {
    std::string S;
    for (size_t I = 0; I < W; ++I) {
      std::string Prev = I == 0 ? First : gen::indexedName("v", I - 1);
      std::string Arg = I == 0 ? One : Step;
      std::string Next = I + 1 == W ? After : gen::indexedName(L, I + 1);
      S += std::string("  ") + L + std::to_string(I) + ": v" +
           std::to_string(I) + " := add(" + Prev + ", " + Arg +
           "); goto " + Next + ";\n";
    }
    return S;
  };
  /// Blocks L0..L{W-1} folding every vi into Acc, then goto \p After.
  auto Fold = [&](const char *L, const char *Acc, const char *After) {
    std::string S;
    for (size_t I = 0; I < W; ++I)
      S += std::string("  ") + L + std::to_string(I) + ": " + Acc +
           " := add(" + Acc + ", v" + std::to_string(I) + "); goto " +
           (I + 1 == W ? After : gen::indexedName(L, I + 1)) + ";\n";
    return S;
  };

  std::string P;
  P += "func rec(int* acc, int depth) {\n"
       "  var int one; var int z; var int c; var int d1; var int s;\n  " +
       Vars() +
       "  r0: one := 1; goto r1;\n"
       "  r1: z := 0; goto w0;\n" +
       Chain("w", "depth", "one", "depth", "r2") +
       "  r2: c := gt(depth, z); goto r3;\n"
       "  r3: if c then goto r4 else goto r6;\n"
       "  r4: d1 := sub(depth, one); goto r5;\n"
       "  r5: call rec(acc, d1); goto r6;\n"
       "  r6: s := acc[z]; goto f0;\n" +
       Fold("f", "s", "r7") +
       "  r7: acc[z] := s; goto r8;\n"
       "  r8: done;\n}\n";
  P += "func fill(int* b, int x, int depth) {\n"
       "  var int z;\n"
       "  i0: z := 0; goto i1;\n"
       "  i1: b[z] := x; goto i2;\n"
       "  i2: call rec(b, depth); goto i3;\n"
       "  i3: done;\n}\n";
  P += "func top(modref* in, modref* in2, modref* out, modref* out2) {\n"
       "  var int x; var int y; var int sz; var int* blk; var int d;\n"
       "  var int one;\n  " +
       Vars() +
       "  t0: x := read in; goto t1;\n"
       "  t1: one := 1; goto w0;\n" +
       Chain("w", "x", "one", "x", "t2") +
       "  t2: y := read in2; goto t3;\n"
       "  t3: sz := 16; goto t4;\n"
       "  t4: d := 4; goto t5;\n"
       "  t5: blk := alloc(sz, fill, y, d); goto t6;\n"
       "  t6: call sink(out2, blk" +
       List() + "); goto t7;\n"
       "  t7: nop; tail sink(out, blk" +
       List() + ");\n}\n";
  P += "func sink(modref* out, int* blk";
  for (size_t I = 0; I < W; ++I)
    P += ", int v" + std::to_string(I);
  P += ") {\n"
       "  var int z; var int s;\n"
       "  k0: z := 0; goto k1;\n"
       "  k1: s := blk[z]; goto f0;\n" +
       Fold("f", "s", "k2") +
       "  k2: write(out, s); goto k3;\n"
       "  k3: done;\n}\n";
  return P;
}

int64_t convWide(const Program &P, int64_t X, int64_t Y) {
  ConvInterp CI(P);
  Word *In = CI.newCell(toWord(X)), *In2 = CI.newCell(toWord(Y));
  Word *Out = CI.newCell(0), *Out2 = CI.newCell(0);
  CI.run("top", {toWord(In), toWord(In2), toWord(Out), toWord(Out2)});
  EXPECT_EQ(*Out, *Out2);
  return fromWord<int64_t>(*Out);
}

} // namespace

TEST(Vm, FrameStackGrowsUnderLiveOuterFrames) {
  constexpr size_t W = 600;
  Program Src = parseOrDie(wideProgram(W));
  ASSERT_TRUE(verifyProgram(Src).empty());
  Program Norm = normalizeProgram(Src).Prog;

  Runtime RT;
  Vm M(RT, Norm);
  Modref *In = M.metaModref(), *In2 = M.metaModref();
  Modref *Out = M.metaModref(), *Out2 = M.metaModref();
  auto Check = [&](int64_t X, int64_t Y) {
    const int64_t Expected = convWide(Src, X, Y);
    EXPECT_EQ(fromWord<int64_t>(M.metaRead(Out)), Expected) << X << "," << Y;
    EXPECT_EQ(fromWord<int64_t>(M.metaRead(Out2)), Expected) << X << "," << Y;
  };
  M.metaWrite(In, toWord(int64_t(7)));
  M.metaWrite(In2, toWord(int64_t(11)));
  M.runCore("top", {toWord(In), toWord(In2), toWord(Out), toWord(Out2)});
  Check(7, 11);
  EXPECT_EQ(convWide(Norm, 7, 11), convWide(Src, 7, 11));

  // Change propagation re-enters the same frames from the trampoline;
  // the second edit reuses the block by memo.
  M.metaWrite(In2, toWord(int64_t(-5)));
  M.propagate();
  Check(7, -5);
  M.metaWrite(In, toWord(int64_t(3)));
  M.propagate();
  Check(3, -5);
}
