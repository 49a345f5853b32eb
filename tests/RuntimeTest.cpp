//===- tests/RuntimeTest.cpp - Self-adjusting runtime tests ---------------===//
//
// Exercises the run-time system with small core programs written in the
// "compiled" closure style the CEAL compiler emits (paper Sec. 6.2):
// traced reads hand their continuation to the trampoline, results flow
// through destination-passing style, and the mutator drives everything
// through modify/propagate.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace ceal;

namespace {

//===----------------------------------------------------------------------===//
// Core: copy one modifiable into another.
//===----------------------------------------------------------------------===//

Closure *copyBody(Runtime &RT, Word V, Modref *Dst) {
  RT.write(Dst, V);
  return nullptr;
}

Closure *copyCore(Runtime &RT, Modref *Src, Modref *Dst) {
  return RT.readTail<&copyBody>(Src, Dst);
}

//===----------------------------------------------------------------------===//
// Core: two-stage pipeline a -> b -> c (b is an intermediate modifiable).
//===----------------------------------------------------------------------===//

Closure *stage2(Runtime &RT, Word V, Modref *C) {
  RT.write(C, V * 10);
  return nullptr;
}

Closure *stage1(Runtime &RT, Word V, Modref *B, Modref *C) {
  RT.write(B, V + 1);
  return RT.readTail<&stage2>(B, C);
}

Closure *pipelineCore(Runtime &RT, Modref *A, Modref *B, Modref *C) {
  return RT.readTail<&stage1>(A, B, C);
}

//===----------------------------------------------------------------------===//
// Core: multi-write modifiable with two interleaved consumers.
//
//   m := in + 1;  call consume(m, out1);  m := in + 2;  read m -> out2
//
// The first consumer must be governed by the first write even though a
// later write to the same modifiable follows it in time.
//===----------------------------------------------------------------------===//

Closure *consumeBody(Runtime &RT, Word V, Modref *Out) {
  RT.write(Out, V);
  return nullptr;
}

Closure *consume(Runtime &RT, Modref *M, Modref *Out) {
  return RT.readTail<&consumeBody>(M, Out);
}

Closure *multiWriteGot(Runtime &RT, Word In, Modref *M, Modref *Out1,
                       Modref *Out2) {
  RT.write(M, In + 1);
  RT.callFn<&consume>(M, Out1);
  RT.write(M, In + 2);
  return RT.readTail<&consumeBody>(M, Out2);
}

Closure *multiWriteCore(Runtime &RT, Modref *In, Modref *M, Modref *Out1,
                        Modref *Out2) {
  return RT.readTail<&multiWriteGot>(In, M, Out1, Out2);
}

//===----------------------------------------------------------------------===//
// Core: expression-tree evaluator (the paper's running example, Figs 1-5).
//===----------------------------------------------------------------------===//

struct TreeNode {
  bool IsLeaf;
  char Op;        // '+' or '-'.
  int64_t Num;    // Leaf payload.
  Modref *Left;   // Holds TreeNode *.
  Modref *Right;  // Holds TreeNode *.
};

Closure *evalGotB(Runtime &RT, Word B, Word A, TreeNode *T, Modref *Res) {
  int64_t AV = fromWord<int64_t>(A), BV = fromWord<int64_t>(B);
  RT.writeT(Res, T->Op == '+' ? AV + BV : AV - BV);
  return nullptr;
}

Closure *evalGotA(Runtime &RT, Word A, Modref *Mb, TreeNode *T, Modref *Res) {
  return RT.readTail<&evalGotB>(Mb, A, T, Res);
}

Closure *evalCore(Runtime &RT, Modref *Root, Modref *Res);

Closure *evalNode(Runtime &RT, TreeNode *T, Modref *Res) {
  if (T->IsLeaf) {
    RT.writeT(Res, T->Num);
    return nullptr;
  }
  Modref *Ma = RT.coreModref(T, 0);
  Modref *Mb = RT.coreModref(T, 1);
  RT.callFn<&evalCore>(T->Left, Ma);
  RT.callFn<&evalCore>(T->Right, Mb);
  return RT.readTail<&evalGotA>(Ma, Mb, T, Res);
}

Closure *evalCore(Runtime &RT, Modref *Root, Modref *Res) {
  return RT.readTail<&evalNode>(Root, Res);
}

/// Mutator-side tree construction helpers.
TreeNode *makeLeaf(Runtime &, std::vector<TreeNode *> &Pool, int64_t Num) {
  auto *N = new TreeNode{true, 0, Num, nullptr, nullptr};
  Pool.push_back(N);
  return N;
}

TreeNode *makeOp(Runtime &RT, std::vector<TreeNode *> &Pool, char Op,
                 TreeNode *L, TreeNode *R) {
  auto *N = new TreeNode{false, Op, 0, RT.modref<TreeNode *>(L),
                         RT.modref<TreeNode *>(R)};
  Pool.push_back(N);
  return N;
}

//===----------------------------------------------------------------------===//
// Core: list map (the splice workhorse).
//===----------------------------------------------------------------------===//

struct Cell {
  Word Head;
  Modref *Tail; // Holds Cell *.
};

Closure *cellInit(Runtime &, void *Block, Word Head, Modref *Tail) {
  auto *C = static_cast<Cell *>(Block);
  C->Head = Head;
  C->Tail = Tail;
  return nullptr;
}

Word mapFn(Word X) { return 3 * X + 7; }

Closure *mapGot(Runtime &RT, Cell *C, Modref *Dst) {
  if (!C) {
    RT.writeT(Dst, static_cast<Cell *>(nullptr));
    return nullptr;
  }
  Modref *OutTail = RT.coreModref(C);
  auto *Out = static_cast<Cell *>(
      RT.alloc<&cellInit>(sizeof(Cell), mapFn(C->Head), OutTail));
  RT.writeT(Dst, Out);
  return RT.readTail<&mapGot>(C->Tail, OutTail);
}

Closure *mapCore(Runtime &RT, Modref *Src, Modref *Dst) {
  return RT.readTail<&mapGot>(Src, Dst);
}

//===----------------------------------------------------------------------===//
// Core: list sum (an accumulator chain; no memo reuse on suffix changes).
//===----------------------------------------------------------------------===//

Closure *sumGot(Runtime &RT, Cell *C, Word Acc, Modref *Dst) {
  if (!C) {
    RT.write(Dst, Acc);
    return nullptr;
  }
  return RT.readTail<&sumGot>(C->Tail, Acc + C->Head, Dst);
}

Closure *sumCore(Runtime &RT, Modref *Src, Modref *Dst) {
  return RT.readTail<&sumGot>(Src, Word(0), Dst);
}

//===----------------------------------------------------------------------===//
// Core: two sibling calls, both edited before one propagation.
//
// sideA reads A and writes the intermediate X; sideB reads B, then reads
// X, then writes Out. The calls occupy disjoint trace intervals, so
// editing A and B dirties one read in each, and sideB's re-read of X
// must see the value sideA's re-execution wrote. indepCore's second call
// never touches X.
//===----------------------------------------------------------------------===//

Closure *sideAGot(Runtime &RT, Word AV, Modref *X) {
  RT.writeT(X, AV * 2);
  return nullptr;
}
Closure *sideA(Runtime &RT, Modref *A, Modref *X) {
  return RT.readTail<&sideAGot>(A, X);
}
Closure *sideBGotX(Runtime &RT, Word XV, Word BV, Modref *Out) {
  RT.writeT(Out, XV + BV);
  return nullptr;
}
Closure *sideBGotB(Runtime &RT, Word BV, Modref *X, Modref *Out) {
  return RT.readTail<&sideBGotX>(X, BV, Out);
}
Closure *sideB(Runtime &RT, Modref *B, Modref *X, Modref *Out) {
  return RT.readTail<&sideBGotB>(B, X, Out);
}
Closure *dependentCore(Runtime &RT, Modref *A, Modref *B, Modref *X,
                       Modref *Out) {
  RT.callFn<&sideA>(A, X);
  RT.callFn<&sideB>(B, X, Out);
  return nullptr;
}

Closure *indepGotB(Runtime &RT, Word BV, Modref *Out) {
  RT.writeT(Out, BV + 7);
  return nullptr;
}
Closure *indepSideB(Runtime &RT, Modref *B, Modref *Out) {
  return RT.readTail<&indepGotB>(B, Out);
}
Closure *indepCore(Runtime &RT, Modref *A, Modref *B, Modref *X,
                   Modref *Out) {
  RT.callFn<&sideA>(A, X);
  RT.callFn<&indepSideB>(B, Out);
  return nullptr;
}

/// Owns the mutator-level cells a test creates: they are plain heap
/// objects that only modifiables point at, so the runtime never frees
/// them.
using CellOwner = std::vector<std::unique_ptr<Cell>>;

Cell *newCell(CellOwner &Owner, Word Head, Modref *Tail) {
  Owner.push_back(std::make_unique<Cell>(Cell{Head, Tail}));
  return Owner.back().get();
}

/// Builds a mutator-level modifiable list whose cells \p Owner keeps;
/// returns the head modifiable and exposes the cells for surgery.
Modref *buildList(Runtime &RT, CellOwner &Owner,
                  const std::vector<Word> &Values,
                  std::vector<Cell *> *CellsOut = nullptr) {
  Modref *Head = RT.modref<Cell *>(nullptr);
  Modref *Cur = Head;
  for (Word V : Values) {
    Cell *C = newCell(Owner, V, RT.modref<Cell *>(nullptr));
    RT.modifyT(Cur, C);
    if (CellsOut)
      CellsOut->push_back(C);
    Cur = C->Tail;
  }
  return Head;
}

/// Reads a runtime list back into a vector through the meta interface.
std::vector<Word> readListBack(Runtime &RT, Modref *Head) {
  std::vector<Word> Result;
  for (auto *C = RT.derefT<Cell *>(Head); C; C = RT.derefT<Cell *>(C->Tail))
    Result.push_back(C->Head);
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

TEST(Runtime, CopyInitialRun) {
  Runtime RT;
  Modref *Src = RT.modref<int64_t>(41);
  Modref *Dst = RT.modref();
  RT.runCore<&copyCore>(Src, Dst);
  EXPECT_EQ(RT.derefT<int64_t>(Dst), 41);
  EXPECT_EQ(RT.stats().ReadsTraced, 1u);
  EXPECT_EQ(RT.stats().WritesTraced, 1u);
}

TEST(Runtime, CopyPropagatesModification) {
  Runtime RT;
  Modref *Src = RT.modref<int64_t>(1);
  Modref *Dst = RT.modref();
  RT.runCore<&copyCore>(Src, Dst);
  RT.modifyT<int64_t>(Src, 5);
  RT.propagate();
  EXPECT_EQ(RT.derefT<int64_t>(Dst), 5);
  EXPECT_EQ(RT.stats().ReadsReexecuted, 1u);
}

TEST(Runtime, EqualityCutSkipsCleanReads) {
  Runtime RT;
  Modref *Src = RT.modref<int64_t>(7);
  Modref *Dst = RT.modref();
  RT.runCore<&copyCore>(Src, Dst);
  RT.modifyT<int64_t>(Src, 7); // Unchanged value: nothing to do.
  RT.propagate();
  EXPECT_EQ(RT.stats().ReadsReexecuted, 0u);
  // A modify-away and modify-back pair between propagates is also cut,
  // but only at re-execution time.
  RT.modifyT<int64_t>(Src, 9);
  RT.modifyT<int64_t>(Src, 7);
  RT.propagate();
  EXPECT_EQ(RT.stats().ReadsReexecuted, 0u);
  EXPECT_EQ(RT.stats().ReadsSkippedClean, 1u);
  EXPECT_EQ(RT.derefT<int64_t>(Dst), 7);
}

TEST(Runtime, PipelinePropagatesTransitively) {
  Runtime RT;
  Modref *A = RT.modref<int64_t>(4);
  Modref *B = RT.modref();
  Modref *C = RT.modref();
  RT.runCore<&pipelineCore>(A, B, C);
  EXPECT_EQ(RT.derefT<int64_t>(B), 5);
  EXPECT_EQ(RT.derefT<int64_t>(C), 50);
  RT.modifyT<int64_t>(A, 9);
  RT.propagate();
  EXPECT_EQ(RT.derefT<int64_t>(B), 10);
  EXPECT_EQ(RT.derefT<int64_t>(C), 100);
}

TEST(Runtime, TwoEditedCallsSharingAModrefPropagate) {
  Runtime RT;
  Modref *A = RT.modref(Word(10)), *B = RT.modref(Word(100));
  Modref *X = RT.modref(), *Out = RT.modref();
  RT.runCore<&dependentCore>(A, B, X, Out);
  EXPECT_EQ(RT.deref(Out), 10u * 2 + 100u);
  RT.modify(A, 13);
  RT.modify(B, 200);
  RT.propagate();
  EXPECT_EQ(RT.deref(Out), 13u * 2 + 200u);
}

TEST(Runtime, TwoEditedIndependentCallsPropagate) {
  Runtime RT;
  Modref *A = RT.modref(Word(10)), *B = RT.modref(Word(100));
  Modref *X = RT.modref(), *Out = RT.modref();
  RT.runCore<&indepCore>(A, B, X, Out);
  RT.modify(A, 13);
  RT.modify(B, 200);
  RT.propagate();
  EXPECT_EQ(RT.deref(Out), 207u);
  EXPECT_EQ(RT.deref(X), 26u);
}

TEST(Runtime, MultiWriteModifiableGovernsReadersByTime) {
  Runtime RT;
  Modref *In = RT.modref<int64_t>(100);
  Modref *M = RT.modref();
  Modref *Out1 = RT.modref();
  Modref *Out2 = RT.modref();
  RT.runCore<&multiWriteCore>(In, M, Out1, Out2);
  EXPECT_EQ(RT.derefT<int64_t>(Out1), 101);
  EXPECT_EQ(RT.derefT<int64_t>(Out2), 102);
  // deref sees the final write.
  EXPECT_EQ(RT.derefT<int64_t>(M), 102);

  RT.modifyT<int64_t>(In, 200);
  RT.propagate();
  EXPECT_EQ(RT.derefT<int64_t>(Out1), 201);
  EXPECT_EQ(RT.derefT<int64_t>(Out2), 202);
}

TEST(Runtime, ExpressionTreePaperExample) {
  // exp = "((3 + 4) - (1 - 2)) + (5 - 6)" — the tree of paper Fig. 4.
  Runtime RT;
  std::vector<TreeNode *> Pool;
  TreeNode *D = makeOp(RT, Pool, '+', makeLeaf(RT, Pool, 3),
                       makeLeaf(RT, Pool, 4));
  TreeNode *F = makeOp(RT, Pool, '-', makeLeaf(RT, Pool, 1),
                       makeLeaf(RT, Pool, 2));
  TreeNode *B = makeOp(RT, Pool, '-', D, F);
  TreeNode *LeafK = makeLeaf(RT, Pool, 6);
  TreeNode *I = makeOp(RT, Pool, '-', makeLeaf(RT, Pool, 5), LeafK);
  TreeNode *A = makeOp(RT, Pool, '+', B, I);

  Modref *Root = RT.modref<TreeNode *>(A);
  Modref *Res = RT.modref();
  RT.runCore<&evalCore>(Root, Res);
  EXPECT_EQ(RT.derefT<int64_t>(Res), 7);

  // Substitute "(6 + 7)" for leaf k, as the paper's mutator does; the
  // result becomes ((3+4)-(1-2)) + (5-13) = 8 - 8 = 0.
  TreeNode *Sub = makeOp(RT, Pool, '+', makeLeaf(RT, Pool, 6),
                         makeLeaf(RT, Pool, 7));
  RT.modifyT<TreeNode *>(I->Right, Sub);
  RT.propagate();
  EXPECT_EQ(RT.derefT<int64_t>(Res), 0);

  // Only the path from the changed leaf to the root is re-evaluated:
  // node i and node a, plus the fresh subtree — far fewer reads than the
  // whole tree.
  EXPECT_LE(RT.stats().ReadsReexecuted, 6u);
  for (TreeNode *N : Pool)
    delete N;
}

TEST(Runtime, MapInitialRun) {
  Runtime RT;
  std::vector<Word> In = {1, 2, 3, 4, 5};
  CellOwner Owner;
  Modref *Src = buildList(RT, Owner, In);
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(Src, Dst);
  std::vector<Word> Expected;
  for (Word V : In)
    Expected.push_back(mapFn(V));
  EXPECT_EQ(readListBack(RT, Dst), Expected);
}

TEST(Runtime, MapInsertSplicesInsteadOfRecomputing) {
  Runtime RT;
  std::vector<Word> In;
  for (Word I = 0; I < 1000; ++I)
    In.push_back(I);
  std::vector<Cell *> Cells;
  CellOwner Owner;
  Modref *Src = buildList(RT, Owner, In, &Cells);
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(Src, Dst);

  // Insert a new element after position 100.
  Cell *NewCell = newCell(Owner, 7777, RT.modref<Cell *>(nullptr));
  RT.modifyT(NewCell->Tail, RT.derefT<Cell *>(Cells[100]->Tail));
  RT.modifyT(Cells[100]->Tail, NewCell);

  uint64_t ReexecBefore = RT.stats().ReadsReexecuted;
  uint64_t FreshBefore = RT.stats().ReadsTraced;
  RT.propagate();

  std::vector<Word> Expected;
  for (Word I = 0; I <= 100; ++I)
    Expected.push_back(mapFn(I));
  Expected.push_back(mapFn(7777));
  for (Word I = 101; I < 1000; ++I)
    Expected.push_back(mapFn(I));
  EXPECT_EQ(readListBack(RT, Dst), Expected);

  // The splice makes the update O(1): one re-execution, a handful of
  // fresh reads, and at least one memo hit — not ~900 re-processed cells.
  EXPECT_EQ(RT.stats().ReadsReexecuted - ReexecBefore, 1u);
  EXPECT_LE(RT.stats().ReadsTraced - FreshBefore, 4u);
  EXPECT_GE(RT.stats().MemoReadHits, 1u);
}

TEST(Runtime, MapDeleteRevokesAndReuses) {
  Runtime RT;
  std::vector<Word> In;
  for (Word I = 0; I < 500; ++I)
    In.push_back(I);
  std::vector<Cell *> Cells;
  CellOwner Owner;
  Modref *Src = buildList(RT, Owner, In, &Cells);
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(Src, Dst);

  // Delete element 250 by bypassing its cell.
  RT.modifyT(Cells[249]->Tail, Cells[251]);
  RT.propagate();

  std::vector<Word> Expected;
  for (Word I = 0; I < 500; ++I)
    if (I != 250)
      Expected.push_back(mapFn(I));
  EXPECT_EQ(readListBack(RT, Dst), Expected);
  EXPECT_GE(RT.stats().MemoReadHits, 1u);
  EXPECT_GE(RT.stats().NodesRevoked, 1u);

  // Reinsert it.
  RT.modifyT(Cells[249]->Tail, Cells[250]);
  RT.propagate();
  std::vector<Word> Expected2;
  for (Word I = 0; I < 500; ++I)
    Expected2.push_back(mapFn(I));
  EXPECT_EQ(readListBack(RT, Dst), Expected2);
}

TEST(Runtime, MapThenSumPipeline) {
  // Two cores over the same input: map feeds a list that sum consumes.
  Runtime RT;
  std::vector<Word> In = {10, 20, 30, 40};
  std::vector<Cell *> Cells;
  CellOwner Owner;
  Modref *Src = buildList(RT, Owner, In, &Cells);
  Modref *Mid = RT.modref();
  Modref *Out = RT.modref();
  RT.runCore<&mapCore>(Src, Mid);
  RT.runCore<&sumCore>(Mid, Out);

  auto ExpectedSum = [&](const std::vector<Word> &Vs) {
    Word Acc = 0;
    for (Word V : Vs)
      Acc += mapFn(V);
    return Acc;
  };
  EXPECT_EQ(RT.deref(Out), ExpectedSum(In));

  // Delete the second element; both cores must update consistently.
  RT.modifyT(Cells[0]->Tail, Cells[2]);
  RT.propagate();
  EXPECT_EQ(RT.deref(Out), ExpectedSum({10, 30, 40}));

  // Put it back, and replace the head cell with one carrying value 11
  // (cell heads are plain words, so value changes are cell replacements).
  RT.modifyT(Cells[0]->Tail, Cells[1]);
  Cell *Repl = newCell(Owner, 11, RT.modref<Cell *>(Cells[1]));
  RT.modifyT(Src, Repl);
  RT.propagate();
  EXPECT_EQ(RT.deref(Out), ExpectedSum({11, 20, 30, 40}));
}

TEST(Runtime, RandomizedListEditingMatchesOracle) {
  // Property test: after every random edit + propagate, the mapped output
  // equals a from-scratch recomputation on the current input.
  for (uint64_t Seed : {11ull, 22ull, 33ull}) {
    Rng R(Seed);
    Runtime RT;
    std::vector<Word> In;
    for (Word I = 0; I < 200; ++I)
      In.push_back(R.below(1000));
    std::vector<Cell *> Cells;
    CellOwner Owner;
    Modref *Src = buildList(RT, Owner, In, &Cells);
    Modref *Dst = RT.modref();
    RT.runCore<&mapCore>(Src, Dst);

    // Maintain a mirror of the list as (modref chain) for edits.
    for (int Edit = 0; Edit < 60; ++Edit) {
      // Pick a random position's tail modref and either delete the
      // following cell or insert a fresh one.
      std::vector<Word> Cur = readListBack(RT, Src);
      size_t Pos = R.below(Cur.size() + 1);
      Modref *TailRef = Src;
      Cell *Walk = RT.derefT<Cell *>(Src);
      for (size_t I = 0; I < Pos && Walk; ++I) {
        TailRef = Walk->Tail;
        Walk = RT.derefT<Cell *>(Walk->Tail);
      }
      if (R.flip() && Walk) {
        // Delete the cell after TailRef.
        RT.modifyT(TailRef, RT.derefT<Cell *>(Walk->Tail));
      } else {
        // Insert before Walk.
        Cell *Fresh = newCell(Owner, R.below(1000), RT.modref<Cell *>(Walk));
        RT.modifyT(TailRef, Fresh);
      }
      RT.propagate();
      std::vector<Word> Input = readListBack(RT, Src);
      std::vector<Word> Expected;
      for (Word V : Input)
        Expected.push_back(mapFn(V));
      ASSERT_EQ(readListBack(RT, Dst), Expected)
          << "seed=" << Seed << " edit=" << Edit;
    }
  }
}

TEST(Runtime, AllocStealingPreservesPointerIdentity) {
  Runtime RT;
  std::vector<Word> In = {1, 2, 3, 4, 5, 6};
  std::vector<Cell *> Cells;
  CellOwner Owner;
  Modref *Src = buildList(RT, Owner, In, &Cells);
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(Src, Dst);

  // Record the output cells for the untouched suffix.
  std::vector<Cell *> OutBefore;
  for (auto *C = RT.derefT<Cell *>(Dst); C; C = RT.derefT<Cell *>(C->Tail))
    OutBefore.push_back(C);

  // Delete element 1 (index 1); the suffix 3..6 should keep its cells.
  RT.modifyT(Cells[0]->Tail, Cells[2]);
  RT.propagate();
  std::vector<Cell *> OutAfter;
  for (auto *C = RT.derefT<Cell *>(Dst); C; C = RT.derefT<Cell *>(C->Tail))
    OutAfter.push_back(C);
  ASSERT_EQ(OutAfter.size(), OutBefore.size() - 1);
  // Cell for input value 3 onwards must be pointer-identical (stolen).
  for (size_t I = 1; I < OutAfter.size(); ++I)
    EXPECT_EQ(OutAfter[I], OutBefore[I + 1]) << "index " << I;
}

TEST(Runtime, DerefSeesLatestWrite) {
  Runtime RT;
  Modref *M = RT.modref<int64_t>(3);
  EXPECT_EQ(RT.derefT<int64_t>(M), 3);
  RT.modifyT<int64_t>(M, 4);
  EXPECT_EQ(RT.derefT<int64_t>(M), 4);
}

TEST(Runtime, TraceMemoryIsReclaimedOnDelete) {
  Runtime RT;
  std::vector<Word> In;
  for (Word I = 0; I < 2000; ++I)
    In.push_back(I);
  std::vector<Cell *> Cells;
  CellOwner Owner;
  Modref *Src = buildList(RT, Owner, In, &Cells);
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(Src, Dst);
  size_t LiveFull = RT.liveBytes();

  // Cut the list to its first 10 elements: ~99% of the trace is revoked.
  RT.modifyT(Cells[9]->Tail, static_cast<Cell *>(nullptr));
  RT.propagate();
  size_t LiveCut = RT.liveBytes();
  EXPECT_LT(LiveCut, LiveFull / 10);
  std::vector<Word> Expected;
  for (Word I = 0; I < 10; ++I)
    Expected.push_back(mapFn(I));
  EXPECT_EQ(readListBack(RT, Dst), Expected);
}
