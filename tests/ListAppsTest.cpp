//===- tests/ListAppsTest.cpp - List benchmark correctness ---------------===//
//
// Each self-adjusting list primitive is checked three ways:
//  1. initial run matches the conventional implementation,
//  2. every random edit + propagate matches a from-scratch conventional
//     recomputation of the edited input (the paper's correctness
//     guarantee for change propagation),
//  3. updates are *incremental*: the work counters stay far below
//     input size for single-element edits where the paper promises it.
//
//===----------------------------------------------------------------------===//

#include "apps/ListApps.h"
#include "apps/ListConv.h"
#include "support/Random.h"
#include "tests/support/OracleModels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

using namespace ceal;
using namespace ceal::apps;

namespace {

Word mapPaper(Word X, Word) { return X / 3 + X / 7 + X / 9; }
bool filterPaper(Word X, Word) { return (mapPaper(X, 0) & 1) == 0; }
Word combineMin(Word A, Word B, Word) { return A < B ? A : B; }
Word combineSum(Word A, Word B, Word) { return A + B; }
int cmpWord(Word A, Word B) { return A < B ? -1 : (A > B ? 1 : 0); }
int cmpStr(Word A, Word B) {
  return std::strcmp(reinterpret_cast<const char *>(A),
                     reinterpret_cast<const char *>(B));
}

/// Oracle versions computed with the conventional implementations.
std::vector<Word> oracleSorted(std::vector<Word> V) {
  std::sort(V.begin(), V.end());
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Initial runs match the conventional implementations.
//===----------------------------------------------------------------------===//

TEST(ListApps, MapMatchesConventional) {
  Rng R(1);
  std::vector<Word> In = gen::randomWords(R, 300);
  Runtime RT;
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(L.Head, Dst, &mapPaper, Word(0));

  Arena A;
  conv::PCell *CIn = conv::buildList(A, In);
  EXPECT_EQ(readList(RT, Dst),
            conv::toVector(conv::mapList(A, CIn, &mapPaper, 0)));
}

TEST(ListApps, FilterMatchesConventional) {
  Rng R(2);
  std::vector<Word> In = gen::randomWords(R, 300);
  Runtime RT;
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  RT.runCore<&filterCore>(L.Head, Dst, &filterPaper, Word(0));

  Arena A;
  conv::PCell *CIn = conv::buildList(A, In);
  EXPECT_EQ(readList(RT, Dst),
            conv::toVector(conv::filterList(A, CIn, &filterPaper, 0)));
}

TEST(ListApps, ReverseMatchesConventional) {
  Rng R(3);
  std::vector<Word> In = gen::randomWords(R, 257);
  Runtime RT;
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  RT.runCore<&reverseCore>(L.Head, Dst);

  std::vector<Word> Expected(In.rbegin(), In.rend());
  EXPECT_EQ(readList(RT, Dst), Expected);
}

TEST(ListApps, ReduceMinAndSum) {
  Rng R(4);
  std::vector<Word> In = gen::randomWords(R, 513);
  Runtime RT;
  ListHandle L = buildList(RT, In);
  Modref *MinDst = RT.modref();
  Modref *SumDst = RT.modref();
  RT.runCore<&reduceCore>(L.Head, MinDst, &combineMin, Word(0),
                          Word(UINT64_MAX));
  RT.runCore<&reduceCore>(L.Head, SumDst, &combineSum, Word(0), Word(0));
  EXPECT_EQ(RT.deref(MinDst), *std::min_element(In.begin(), In.end()));
  Word Sum = 0;
  for (Word V : In)
    Sum += V;
  EXPECT_EQ(RT.deref(SumDst), Sum);
}

TEST(ListApps, ReduceEmptyAndSingleton) {
  Runtime RT;
  ListHandle Empty = buildList(RT, {});
  Modref *D1 = RT.modref();
  RT.runCore<&reduceCore>(Empty.Head, D1, &combineSum, Word(0), Word(99));
  EXPECT_EQ(RT.deref(D1), 99u) << "empty reduce yields the identity";

  ListHandle One = buildList(RT, {42});
  Modref *D2 = RT.modref();
  RT.runCore<&reduceCore>(One.Head, D2, &combineSum, Word(0), Word(0));
  EXPECT_EQ(RT.deref(D2), 42u);
}

TEST(ListApps, QuicksortSortsRandomWords) {
  Rng R(5);
  std::vector<Word> In = gen::randomWords(R, 400);
  Runtime RT;
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  RT.runCore<&quicksortCore>(L.Head, Dst, &cmpWord);
  EXPECT_EQ(readList(RT, Dst), oracleSorted(In));
}

TEST(ListApps, MergesortSortsRandomWords) {
  Rng R(6);
  std::vector<Word> In = gen::randomWords(R, 400);
  Runtime RT;
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  RT.runCore<&mergesortCore>(L.Head, Dst, &cmpWord);
  EXPECT_EQ(readList(RT, Dst), oracleSorted(In));
}

TEST(ListApps, SortsHandleDuplicatesAndTinyLists) {
  for (const std::vector<Word> &In :
       {std::vector<Word>{}, std::vector<Word>{1}, std::vector<Word>{2, 1},
        std::vector<Word>{5, 5, 5, 5}, std::vector<Word>{3, 1, 3, 1, 3}}) {
    Runtime RT;
    ListHandle L = buildList(RT, In);
    Modref *DQ = RT.modref();
    Modref *DM = RT.modref();
    RT.runCore<&quicksortCore>(L.Head, DQ, &cmpWord);
    RT.runCore<&mergesortCore>(L.Head, DM, &cmpWord);
    EXPECT_EQ(readList(RT, DQ), oracleSorted(In));
    EXPECT_EQ(readList(RT, DM), oracleSorted(In));
  }
}

TEST(ListApps, QuicksortSortsStrings) {
  // The paper sorts lists of random 32-character strings.
  Rng R(7);
  std::vector<std::string> Strs;
  std::vector<Word> In;
  for (int I = 0; I < 200; ++I) {
    std::string S;
    for (int J = 0; J < 32; ++J)
      S.push_back('a' + static_cast<char>(R.below(26)));
    Strs.push_back(std::move(S));
  }
  for (const std::string &S : Strs)
    In.push_back(reinterpret_cast<Word>(S.c_str()));
  Runtime RT;
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  RT.runCore<&quicksortCore>(L.Head, Dst, &cmpStr);

  std::vector<std::string> Expected = Strs;
  std::sort(Expected.begin(), Expected.end());
  std::vector<Word> Got = readList(RT, Dst);
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_EQ(reinterpret_cast<const char *>(Got[I]), Expected[I]);
}

//===----------------------------------------------------------------------===//
// Edit sweeps, ported onto the shared oracle harness: each sequence runs
// all seven primitives under random LIFO detach/reattach edits with the
// trace sanitizer at every-propagation level, comparing word-for-word
// against the conventional oracles. A failure prints the sequence seed
// and a shrunk change list for replay.
//===----------------------------------------------------------------------===//

TEST(ListEditSweep, SmallListsStayConsistent) {
  harness::HarnessOptions Opt;
  Opt.Sequences = 6;
  Opt.Changes = 12;
  Opt.BaseSeed = 101;
  EXPECT_EQ(harness::runOracleHarness(
                [] { return std::make_unique<harness::ListModel>(0, 64); },
                Opt),
            "");
}

TEST(ListEditSweep, MediumListsStayConsistent) {
  harness::HarnessOptions Opt;
  Opt.Sequences = 3;
  Opt.Changes = 10;
  Opt.BaseSeed = 303;
  EXPECT_EQ(harness::runOracleHarness(
                [] { return std::make_unique<harness::ListModel>(100, 200); },
                Opt),
            "");
}

//===----------------------------------------------------------------------===//
// Incrementality: single-element edits must not re-run the whole core.
//===----------------------------------------------------------------------===//

TEST(ListApps, MapUpdateIsConstantWork) {
  Rng R(8);
  std::vector<Word> In = gen::randomWords(R, 4000);
  Runtime RT;
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(L.Head, Dst, &mapPaper, Word(0));

  uint64_t Before = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted;
  for (size_t I = 500; I < 520; ++I) {
    detachCell(RT, L, I);
    RT.propagate();
    reattachCell(RT, L, I);
    RT.propagate();
  }
  uint64_t Work = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted - Before;
  // 40 propagations; each should cost O(1) reads, far below list size.
  EXPECT_LT(Work, 400u);
}

TEST(ListApps, ReduceUpdateIsLogarithmicWork) {
  Rng R(9);
  std::vector<Word> In = gen::randomWords(R, 8192);
  Runtime RT;
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  RT.runCore<&reduceCore>(L.Head, Dst, &combineSum, Word(0), Word(0));
  uint64_t Before = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted;
  int Updates = 0;
  for (size_t I = 100; I < 8100; I += 400, Updates += 2) {
    detachCell(RT, L, I);
    RT.propagate();
    reattachCell(RT, L, I);
    RT.propagate();
  }
  uint64_t Work = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted - Before;
  // Each update should touch ~O(log n) runs, not the whole list. Allow a
  // generous constant.
  EXPECT_LT(Work / Updates, 60 * 13u);
}

TEST(ListApps, QuicksortUpdateIsPolylogWork) {
  Rng R(10);
  std::vector<Word> In = gen::randomWords(R, 4096);
  Runtime RT;
  ListHandle L = buildList(RT, In);
  Modref *Dst = RT.modref();
  RT.runCore<&quicksortCore>(L.Head, Dst, &cmpWord);
  uint64_t Before = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted;
  int Updates = 0;
  for (size_t I = 64; I < 4000; I += 256, Updates += 2) {
    detachCell(RT, L, I);
    RT.propagate();
    reattachCell(RT, L, I);
    RT.propagate();
  }
  uint64_t Work = RT.stats().ReadsTraced + RT.stats().ReadsReexecuted - Before;
  // O(log^2 n) expected per update; n=4096 -> log^2 = 144. Allow slack.
  EXPECT_LT(Work / Updates, 3000u) << "quicksort update not incremental";
}
