//===- tests/GoldenTest.cpp - Pinned compiler output and VM closures ------===//
//
// Golden values for the CL path, so that a refactor of the front end,
// NORMALIZE or the VM is shown to be byte-identical rather than merely
// correct:
//
//  * Compiler output: for every sample program, FNV-1a-64 digests of the
//    printed normalized program and of the Refined-mode C that emitC
//    produces from it.
//  * VM closures: listprims `map` on interp::Vm over a seeded list with
//    delete/reinsert edits; the closure census, the trace census and the
//    memo-hit counters. Closure frames feed memo keys, so a change in
//    their bytes shows up in these counts.
//
// The values were recorded at commit c765a98. A deliberate change of
// output must re-record them and say why.
//
//===----------------------------------------------------------------------===//

#include "cl/Parser.h"
#include "cl/Printer.h"
#include "cl/Samples.h"
#include "interp/Vm.h"
#include "normalize/Normalize.h"
#include "runtime/TraceAudit.h"
#include "support/Random.h"
#include "translate/EmitC.h"

#include <gtest/gtest.h>

#include <map>

using namespace ceal;
using namespace ceal::cl;

namespace {

uint64_t fnv1a64(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

Program parseOrDie(const std::string &Src) {
  auto R = parseProgram(Src);
  EXPECT_TRUE(R) << R.Error;
  return R ? std::move(*R.Prog) : Program();
}

struct CompilerDigests {
  uint64_t Normalized; ///< printProgram of the normalized program.
  uint64_t EmittedC;   ///< emitC(normalized, Mode::Refined).Code.
};

} // namespace

TEST(Golden, CompilerOutputPerSample) {
  const std::map<std::string, CompilerDigests> Expected = {
      {"exptrees", {0x53868f00cc20937cull, 0xdfe139058f59f50cull}},
      {"listprims", {0x6acba1daf241ffb3ull, 0x6be9d3b9ca4371b0ull}},
      {"listreduce", {0x5fca449c21cc35dbull, 0xa33048f32899f9a8ull}},
      {"quicksort", {0x15013b5bf933703dull, 0x4c887dd1e9dc6388ull}},
      {"mergesort", {0x2263c2ddc37eabc2ull, 0x5df1030fc7df8e61ull}},
      {"quickhull", {0xc3d60939e7f25bd1ull, 0x985c2dc0bb17242aull}},
      {"testdriver", {0xb6987602664d2b91ull, 0xc4df5257e0edfb7cull}},
  };
  size_t Seen = 0;
  for (const auto &[Name, Source] : samples::allPrograms()) {
    Program Norm = normalize::normalizeProgram(parseOrDie(Source)).Prog;
    uint64_t Printed = fnv1a64(printProgram(Norm));
    uint64_t Emitted =
        fnv1a64(translate::emitC(Norm, translate::Mode::Refined).Code);
    auto It = Expected.find(Name);
    ASSERT_NE(It, Expected.end()) << "no golden digest for sample " << Name;
    ++Seen;
    EXPECT_EQ(Printed, It->second.Normalized)
        << Name << ": printed normalized program, got 0x" << std::hex
        << Printed;
    EXPECT_EQ(Emitted, It->second.EmittedC)
        << Name << ": emitted C, got 0x" << std::hex << Emitted;
  }
  EXPECT_EQ(Seen, Expected.size());
}

TEST(Golden, VmMapClosuresAndTrace) {
  Program Norm =
      normalize::normalizeProgram(parseOrDie(samples::ListPrims)).Prog;
  Rng R(0x601de7);
  constexpr size_t N = 512;
  Runtime RT;
  interp::Vm M(RT, Norm);
  Modref *Head = M.metaModref();
  std::vector<Word *> Cells;
  std::vector<Modref *> Tails;
  Modref *Cur = Head;
  for (size_t I = 0; I < N; ++I) {
    auto *Blk = static_cast<Word *>(M.metaAlloc(2 * sizeof(Word)));
    Modref *Tail = M.metaModref();
    Blk[0] = R.below(1u << 20);
    Blk[1] = toWord(Tail);
    M.metaWrite(Cur, toWord(Blk));
    Cells.push_back(Blk);
    Tails.push_back(Tail);
    Cur = Tail;
  }
  Modref *Out = M.metaModref();
  M.runCore("map", {toWord(Head), toWord(Out)});

  const Runtime::Stats Before = RT.stats();
  for (int Edit = 0; Edit < 20; ++Edit) {
    size_t I = R.below(N);
    Modref *Prev = I == 0 ? Head : Tails[I - 1];
    M.metaWrite(Prev, M.metaRead(Tails[I])); // Delete cell I.
    M.propagate();
    M.metaWrite(Prev, toWord(Cells[I])); // Reinsert it.
    M.propagate();
  }
  const Runtime::Stats &After = RT.stats();
  TraceAudit::Report Census = TraceAudit::inspect(RT);
  ASSERT_TRUE(Census.ok()) << Census.summary();

  EXPECT_EQ(M.closuresMade(), 1146u);
  EXPECT_EQ(M.closureEnvWords(), 3437u);
  EXPECT_EQ(Census.Reads, 513u);
  EXPECT_EQ(Census.Writes, 513u);
  EXPECT_EQ(Census.Allocs, 1024u);
  EXPECT_EQ(Census.Timestamps, 2564u);
  EXPECT_EQ(After.MemoReadHits - Before.MemoReadHits, 40u);
  EXPECT_EQ(After.MemoAllocHits - Before.MemoAllocHits, 80u);
  EXPECT_EQ(After.ReadsReexecuted - Before.ReadsReexecuted, 40u);
}
