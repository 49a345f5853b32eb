//===- tests/CompiledCTest.cpp - Run compiled CEAL output -----------------===//
//
// The full pipeline, machine code included: CL source -> cealc
// (normalize + translate) -> gcc -> shared object -> dlopen -> execute
// against the RTS shim -> modify inputs -> change propagation. This is
// what the paper ships: compiled self-adjusting C programs running
// against the run-time library.
//
//===----------------------------------------------------------------------===//

#include "cl/Parser.h"
#include "cl/Samples.h"
#include "normalize/Normalize.h"
#include "support/Random.h"
#include "translate/EmitC.h"
#include "translate/RtsShim.h"

#include <gtest/gtest.h>

#include <dlfcn.h>

#include <cstdlib>
#include <fstream>

using namespace ceal;
using namespace ceal::cl;
using namespace ceal::normalize;
using namespace ceal::translate;

namespace {

/// Compiles \p Source's normalized translation into a shared object and
/// returns the dlopen handle (null on failure).
void *compileToSharedObject(const char *Source, const std::string &Tag) {
  auto Parsed = parseProgram(Source);
  EXPECT_TRUE(Parsed) << Parsed.Error;
  if (!Parsed)
    return nullptr;
  Program Norm = normalizeProgram(*Parsed.Prog).Prog;
  EmitResult R = emitC(Norm, Mode::Refined, Linkage::External);
  std::string CPath = "/tmp/ceal_dl_" + Tag + ".c";
  std::string SoPath = "/tmp/libceal_dl_" + Tag + ".so";
  std::ofstream(CPath) << R.Code;
  std::string Cmd = "gcc -std=gnu11 -O1 -shared -fPIC " + CPath + " -o " +
                    SoPath + " 2>/tmp/ceal_dl_" + Tag + ".log";
  if (std::system(Cmd.c_str()) != 0) {
    ADD_FAILURE() << "gcc failed; see /tmp/ceal_dl_" << Tag << ".log";
    return nullptr;
  }
  void *Handle = dlopen(SoPath.c_str(), RTLD_NOW);
  EXPECT_NE(Handle, nullptr) << dlerror();
  return Handle;
}

} // namespace

TEST(CompiledC, MapRunsAndSelfAdjusts) {
  void *Handle = compileToSharedObject(samples::ListPrims, "listprims");
  ASSERT_NE(Handle, nullptr);
  void *MapFn = dlsym(Handle, "f_map");
  ASSERT_NE(MapFn, nullptr) << dlerror();

  Runtime RT;
  shim::setRuntime(&RT);

  // Build a modifiable input list ([0] head word, [1] tail modref).
  Rng R(5);
  constexpr size_t N = 400;
  std::vector<int64_t> In;
  Modref *Head = RT.modref();
  std::vector<Modref *> Tails;
  std::vector<Word *> Cells;
  Modref *Cur = Head;
  for (size_t I = 0; I < N; ++I) {
    int64_t V = static_cast<int64_t>(R.below(100000));
    In.push_back(V);
    auto *Blk = static_cast<Word *>(RT.arena().allocate(16));
    Modref *Tail = RT.modref();
    Blk[0] = toWord(V);
    Blk[1] = toWord(Tail);
    RT.modifyT(Cur, Blk);
    Cells.push_back(Blk);
    Tails.push_back(Tail);
    Cur = Tail;
  }
  Modref *Out = RT.modref();

  // run_core(f_map, l, d) — on real machine code this time.
  RT.run(shim::makeEntryClosure(RT, MapFn, {toWord(Head), toWord(Out)}));

  auto ReadOut = [&] {
    std::vector<int64_t> Result;
    for (Word W = RT.deref(Out); W;) {
      Word *Blk = fromWord<Word *>(W);
      Result.push_back(fromWord<int64_t>(Blk[0]));
      W = RT.deref(fromWord<Modref *>(Blk[1]));
    }
    return Result;
  };
  auto Expect = [&](const std::vector<int64_t> &Vals) {
    std::vector<int64_t> E;
    for (int64_t V : Vals)
      E.push_back(V / 3 + V / 7 + V / 9);
    return E;
  };
  ASSERT_EQ(ReadOut(), Expect(In));

  // Delete + reinsert elements; machine-code closures re-execute and the
  // memoized suffix splices.
  for (size_t I : {size_t(10), size_t(200), size_t(399)}) {
    Modref *Before = I == 0 ? Head : Tails[I - 1];
    RT.modify(Before, RT.deref(Tails[I]));
    RT.propagate();
    std::vector<int64_t> Smaller;
    for (size_t J = 0; J < N; ++J)
      if (J != I)
        Smaller.push_back(In[J]);
    ASSERT_EQ(ReadOut(), Expect(Smaller)) << "after deleting " << I;
    RT.modify(Before, toWord(Cells[I]));
    RT.propagate();
    ASSERT_EQ(ReadOut(), Expect(In)) << "after reinserting " << I;
  }
  EXPECT_GE(RT.stats().MemoReadHits, 3u)
      << "compiled code must splice through the memo";
  shim::setRuntime(nullptr);
}

TEST(CompiledC, ExpTreesPaperExampleInMachineCode) {
  void *Handle = compileToSharedObject(samples::ExpTrees, "exptrees");
  ASSERT_NE(Handle, nullptr);
  void *EvalFn = dlsym(Handle, "f_eval");
  ASSERT_NE(EvalFn, nullptr) << dlerror();

  Runtime RT;
  shim::setRuntime(&RT);

  // Node: [0] kind(1=leaf) [1] op/num [2] left mr [3] right mr.
  auto Leaf = [&](int64_t V) {
    auto *Nd = static_cast<Word *>(RT.arena().allocate(32));
    Nd[0] = 1;
    Nd[1] = toWord(V);
    return Nd;
  };
  auto Node = [&](int64_t Op, Word *L, Word *Rn) {
    auto *Nd = static_cast<Word *>(RT.arena().allocate(32));
    Modref *LM = RT.modref(), *RM = RT.modref();
    RT.modifyT(LM, L);
    RT.modifyT(RM, Rn);
    Nd[0] = 0;
    Nd[1] = toWord(Op);
    Nd[2] = toWord(LM);
    Nd[3] = toWord(RM);
    return Nd;
  };
  Word *B = Node(1, Node(0, Leaf(3), Leaf(4)), Node(1, Leaf(1), Leaf(2)));
  Word *I = Node(1, Leaf(5), Leaf(6));
  Word *A = Node(0, B, I);
  Modref *Root = RT.modref();
  RT.modifyT(Root, A);
  Modref *Res = RT.modref();

  RT.run(shim::makeEntryClosure(RT, EvalFn, {toWord(Root), toWord(Res)}));
  EXPECT_EQ(fromWord<int64_t>(RT.deref(Res)), 7);

  // The paper's Fig. 3 mutator: substitute (6+7) for leaf k; result 0.
  Word *Sub = Node(0, Leaf(6), Leaf(7));
  RT.modifyT(fromWord<Modref *>(I[3]), Sub);
  RT.propagate();
  EXPECT_EQ(fromWord<int64_t>(RT.deref(Res)), 0);
  shim::setRuntime(nullptr);
}

TEST(CompiledC, QuicksortSortsInMachineCode) {
  void *Handle = compileToSharedObject(samples::Quicksort, "quicksort");
  ASSERT_NE(Handle, nullptr);
  void *QsortFn = dlsym(Handle, "f_qsort");
  ASSERT_NE(QsortFn, nullptr) << dlerror();

  Runtime RT;
  shim::setRuntime(&RT);
  Rng R(6);
  constexpr size_t N = 150;
  std::vector<int64_t> In;
  Modref *Head = RT.modref();
  std::vector<Modref *> Tails;
  Modref *Cur = Head;
  for (size_t I = 0; I < N; ++I) {
    int64_t V = static_cast<int64_t>(R.below(10000));
    In.push_back(V);
    auto *Blk = static_cast<Word *>(RT.arena().allocate(16));
    Modref *Tail = RT.modref();
    Blk[0] = toWord(V);
    Blk[1] = toWord(Tail);
    RT.modifyT(Cur, Blk);
    Tails.push_back(Tail);
    Cur = Tail;
  }
  Modref *Out = RT.modref();
  RT.run(shim::makeEntryClosure(RT, QsortFn, {toWord(Head), toWord(Out)}));

  std::vector<int64_t> Result;
  for (Word W = RT.deref(Out); W;) {
    Word *Blk = fromWord<Word *>(W);
    Result.push_back(fromWord<int64_t>(Blk[0]));
    W = RT.deref(fromWord<Modref *>(Blk[1]));
  }
  std::vector<int64_t> Expected = In;
  std::sort(Expected.begin(), Expected.end());
  EXPECT_EQ(Result, Expected);
  shim::setRuntime(nullptr);
}

//===----------------------------------------------------------------------===//
// The shim's arity bound (no compiled code needed)
//===----------------------------------------------------------------------===//

extern "C" Closure *ceal_closure_make_words(void *Fn, int NumArgs,
                                            const intptr_t *Args);

TEST(RtsShimDeathTest, ClosureAboveMaxArityIsFatal) {
  // shimInvoker copies a closure's words into a MaxCArity-word array, so
  // a wider closure must be refused where it is made, in every build.
  EXPECT_DEATH(
      {
        Runtime RT;
        std::vector<Word> Args(shim::MaxCArity + 1, 0);
        shim::makeEntryClosure(RT, nullptr, Args);
      },
      "ceal fatal error");
  EXPECT_DEATH(
      {
        Runtime RT;
        shim::setRuntime(&RT);
        std::vector<intptr_t> Args(shim::MaxCArity + 1, 0);
        ceal_closure_make_words(nullptr, static_cast<int>(Args.size()),
                                Args.data());
      },
      "ceal fatal error");
}

TEST(RtsShim, ClosureAtMaxArityKeepsItsWords) {
  Runtime RT;
  std::vector<Word> Args(shim::MaxCArity);
  for (size_t I = 0; I < Args.size(); ++I)
    Args[I] = 100 + I;
  Closure *C = shim::makeEntryClosure(RT, nullptr, Args);
  ASSERT_EQ(C->numArgs(), 3 + shim::MaxCArity);
  EXPECT_EQ(C->args()[1], Word(shim::MaxCArity));
  for (size_t I = 0; I < Args.size(); ++I)
    EXPECT_EQ(C->args()[3 + I], Args[I]);
}
