//===- tests/RuntimePerfTest.cpp - Profiler and hot-path regressions ------===//
//
// Regression coverage for the propagation profiler and the constant-factor
// pass that came with it: the governing-write cache and insertion hint
// (validated against TraceAudit's independent walk), the zero-cost-when-off
// profiler contract, and the latent-bug fixes (simulated-GC mark underflow
// after a stats reset, hard narrowing checks in allocate/makeRaw, the
// allocation-free VM modref path, deref's meta-phase precondition).
//
//===----------------------------------------------------------------------===//

#include "apps/ListApps.h"
#include "runtime/TraceAudit.h"
#include "support/Random.h"
#include "tests/support/Generators.h"

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>
#include <utility>

using namespace ceal;
using namespace ceal::apps;

namespace {

Word mapFn(Word X, Word) { return X * 3 + 1; }
Word combineMin(Word A, Word B, Word) { return A < B ? A : B; }

/// Builds a mapped list and runs a few delete/reinsert propagation
/// rounds; the shared workload for the profiler and cache tests.
struct EditedMapRun {
  Runtime RT;
  ListHandle L;
  Modref *Dst;

  explicit EditedMapRun(Runtime::Config C = {}, size_t N = 64,
                        size_t Edits = 8)
      : RT(C) {
    Rng R(7);
    L = buildList(RT, gen::randomWords(R, N));
    Dst = RT.modref();
    RT.runCore<&mapCore>(L.Head, Dst, &mapFn, Word(0));
    for (size_t E = 0; E < Edits; ++E) {
      size_t Index = R.below(N);
      detachCell(RT, L, Index);
      RT.propagate();
      reattachCell(RT, L, Index);
      RT.propagate();
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Governing-write cache and insertion hint
//===----------------------------------------------------------------------===//

// TraceAudit recomputes every use's governing write with a full walk and
// compares it against the O(1) cache, and checks the insertion hint is a
// list member; a clean report across runs and propagations is the
// correctness statement for the hot-path pass.
TEST(GoverningCache, AuditCleanAcrossMapEdits) {
  EditedMapRun W;
  TraceAudit::Report Rep = TraceAudit::inspect(W.RT);
  EXPECT_TRUE(Rep.ok()) << (Rep.Violations.empty() ? ""
                                                   : Rep.Violations.front());
}

TEST(GoverningCache, AuditCleanAcrossMultiWriteReduce) {
  // reduceCore rewrites per-round accumulators, producing use lists with
  // several writes interleaved with reads — the shape that exercises
  // revokeWrite's cache retargeting.
  Runtime RT;
  Rng R(11);
  size_t N = 48;
  ListHandle L = buildList(RT, gen::randomWords(R, N));
  Modref *Dst = RT.modref();
  RT.runCore<&reduceCore>(L.Head, Dst, &combineMin, Word(0), ~Word(0));
  for (size_t E = 0; E < 6; ++E) {
    size_t Index = R.below(N);
    detachCell(RT, L, Index);
    RT.propagate();
    reattachCell(RT, L, Index);
    RT.propagate();
  }
  TraceAudit::Report Rep = TraceAudit::inspect(RT);
  EXPECT_TRUE(Rep.ok()) << (Rep.Violations.empty() ? ""
                                                   : Rep.Violations.front());
}

TEST(GoverningCache, DerefMatchesInitialAfterPropagation) {
  // deref is now O(1) off the tail's cache; cross-check it against the
  // mutator-visible semantics (latest write, else initial).
  Runtime RT;
  Modref *M = RT.modref<int64_t>(41);
  EXPECT_EQ(RT.derefT<int64_t>(M), 41);
  RT.modifyT<int64_t>(M, 42);
  EXPECT_EQ(RT.derefT<int64_t>(M), 42);
}

TEST(InsertHint, AppendOnlyRunsScanZeroSteps) {
  // An initial run appends every use at its list's tail; with the
  // insertion cursor the placement scan must never step.
  Runtime RT;
  Rng R(13);
  ListHandle L = buildList(RT, gen::randomWords(R, 128));
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(L.Head, Dst, &mapFn, Word(0));
  EXPECT_EQ(RT.stats().UseScanSteps, 0u);
}

//===----------------------------------------------------------------------===//
// Propagation profiler
//===----------------------------------------------------------------------===//

TEST(Profiler, PopulatesWhenEnabled) {
  Runtime::Config Cfg;
  Cfg.EnableProfile = true;
  EditedMapRun W(Cfg);
  const PropagationProfile &P = W.RT.profile();
  EXPECT_TRUE(P.Enabled);
  EXPECT_GE(P.RunCoreCalls, 1u);
  EXPECT_GT(P.QueuePops, 0u);
  EXPECT_GT(P.ReexecCalls, 0u);
  EXPECT_GT(P.MemoLookups, 0u);
  EXPECT_GT(P.RunCoreNs, 0u);
  EXPECT_GT(P.PropagateNs, 0u);
  EXPECT_EQ(P.ReexecWork.Count, P.ReexecCalls);
  EXPECT_GT(P.UseScan.Count, 0u);
}

TEST(Profiler, InertWhenDisabled) {
  EditedMapRun W; // Default config: profiler off.
  const PropagationProfile &P = W.RT.profile();
  EXPECT_FALSE(P.Enabled);
  EXPECT_EQ(P.RunCoreCalls, 0u);
  EXPECT_EQ(P.QueuePops, 0u);
  EXPECT_EQ(P.ReexecCalls, 0u);
  EXPECT_EQ(P.MemoLookups, 0u);
  EXPECT_EQ(P.RunCoreNs + P.PropagateNs + P.ReexecNs + P.RevokeNs +
                P.MemoLookupNs + P.QueueNs,
            0u);
  EXPECT_EQ(P.ReexecWork.Count, 0u);
  EXPECT_EQ(P.UseScan.Count, 0u);
}

TEST(Profiler, ResetPreservesEnabled) {
  Runtime::Config Cfg;
  Cfg.EnableProfile = true;
  EditedMapRun W(Cfg);
  ASSERT_GT(W.RT.profile().QueuePops, 0u);
  W.RT.resetProfile();
  EXPECT_TRUE(W.RT.profile().Enabled);
  EXPECT_EQ(W.RT.profile().QueuePops, 0u);
  EXPECT_EQ(W.RT.profile().ReexecWork.Count, 0u);
}

TEST(Profiler, HistogramBucketsPowersOfTwo) {
  ProfileHistogram H;
  H.record(0); // Bucket 0.
  H.record(1); // Bucket 1: [1, 2).
  H.record(2); // Bucket 2: [2, 4).
  H.record(3);
  H.record(1000);
  EXPECT_EQ(H.Count, 5u);
  EXPECT_EQ(H.Sum, 1006u);
  EXPECT_EQ(H.Max, 1000u);
  EXPECT_DOUBLE_EQ(H.mean(), 1006.0 / 5.0);
  EXPECT_EQ(H.Buckets[0], 1u);
  EXPECT_EQ(H.Buckets[1], 1u);
  EXPECT_EQ(H.Buckets[2], 2u);
  EXPECT_EQ(H.Buckets[10], 1u); // 1000 is in [512, 1024).
}

TEST(Profiler, JsonWriterEmitsPhasesAndHistograms) {
  Runtime::Config Cfg;
  Cfg.EnableProfile = true;
  EditedMapRun W(Cfg);
  std::ostringstream Out;
  W.RT.profile().writeJson(Out);
  std::string J = Out.str();
  EXPECT_EQ(J.front(), '{');
  EXPECT_EQ(J.back(), '}');
  for (const char *Key :
       {"\"enabled\": true", "\"propagate_ns\"", "\"reexec_ns\"",
        "\"revoke_ns\"", "\"memo_lookup_ns\"", "\"queue_ns\"",
        "\"reexec_work_hist\"", "\"use_scan_hist\"", "\"buckets\""})
    EXPECT_NE(J.find(Key), std::string::npos) << Key;
}

//===----------------------------------------------------------------------===//
// Simulated-GC mark vs. stats resets
//===----------------------------------------------------------------------===//

TEST(SimulatedGc, StatsResetDoesNotForcePerAllocationScans) {
  // Force at least one collection so GcAllocMark moves off zero, then
  // reset the stats. Before the fix, Arena::resetStats() zeroed
  // TotalAllocated while the mark kept its old value, so the headroom
  // subtraction wrapped and every later allocation "collected".
  std::vector<Word> In;
  Rng R(17);
  for (int I = 0; I < 1500; ++I)
    In.push_back(R.below(1000));

  Runtime Probe;
  {
    ListHandle L = buildList(Probe, In);
    Modref *D = Probe.modref();
    Probe.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
  }
  size_t Live = Probe.maxLiveBytes();

  Runtime::Config Cfg;
  Cfg.HeapLimitBytes = Live + Live / 4;
  Runtime RT(Cfg);
  ListHandle L = buildList(RT, In);
  Modref *D = RT.modref();
  RT.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
  ASSERT_FALSE(RT.outOfMemory());
  ASSERT_GE(RT.stats().GcScans, 1u) << "workload too small to trigger GC";

  RT.resetStats();
  ASSERT_EQ(RT.stats().GcScans, 0u);
  // A handful of small edits allocates far less than the post-reset
  // headroom; any scan here means the mark wrapped.
  for (size_t E = 0; E < 4; ++E) {
    size_t Index = R.below(In.size());
    detachCell(RT, L, Index);
    RT.propagate();
    reattachCell(RT, L, Index);
    RT.propagate();
  }
  EXPECT_EQ(RT.stats().GcScans, 0u);
}

TEST(SimulatedGc, BareArenaResetIsClampedDefensively) {
  // Resetting only the arena statistics (not via Runtime::resetStats)
  // leaves the mark ahead of the cumulative counter; maybeSimulateGc must
  // re-anchor instead of wrapping.
  std::vector<Word> In;
  Rng R(19);
  for (int I = 0; I < 1500; ++I)
    In.push_back(R.below(1000));

  Runtime Probe;
  {
    ListHandle L = buildList(Probe, In);
    Modref *D = Probe.modref();
    Probe.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
  }
  size_t Live = Probe.maxLiveBytes();

  Runtime::Config Cfg;
  Cfg.HeapLimitBytes = Live + Live / 4;
  Runtime RT(Cfg);
  ListHandle L = buildList(RT, In);
  Modref *D = RT.modref();
  RT.runCore<&mapCore>(L.Head, D, &mapFn, Word(0));
  ASSERT_GE(RT.stats().GcScans, 1u);

  RT.arena().resetStats();
  uint64_t ScansAfterReset = RT.stats().GcScans;
  for (size_t E = 0; E < 4; ++E) {
    size_t Index = R.below(In.size());
    detachCell(RT, L, Index);
    RT.propagate();
    reattachCell(RT, L, Index);
    RT.propagate();
  }
  EXPECT_EQ(RT.stats().GcScans, ScansAfterReset);
}

//===----------------------------------------------------------------------===//
// Narrowing limits fail hard in every build type
//===----------------------------------------------------------------------===//

namespace {

Closure *noInit(Runtime &, void *) { return nullptr; }

Closure *hugeAllocBody(Runtime &RT, Word) {
  RT.alloc<&noInit>(size_t(UINT32_MAX));
  return nullptr;
}

} // namespace

TEST(NarrowingChecksDeathTest, OversizedTracedAllocationAborts) {
  EXPECT_DEATH(
      {
        Runtime RT;
        RT.runCore<&hugeAllocBody>(Word(0));
      },
      "32-bit size limit");
}

TEST(NarrowingChecksDeathTest, OversizedClosureArityAborts) {
  EXPECT_DEATH(
      {
        Runtime RT;
        std::vector<Word> Args(size_t(UINT16_MAX) + 1, 0);
        RT.makeRaw(nullptr, Args.data(), Args.size());
      },
      "16-bit frame limit");
}

//===----------------------------------------------------------------------===//
// Dynamic-keyed modifiables allocate nothing transient
//===----------------------------------------------------------------------===//

namespace {

Closure *noopCore(Runtime &, Word) { return nullptr; }

Closure *dynModrefCore(Runtime &RT, Word NumKeys) {
  Word Keys[8];
  for (Word I = 0; I < NumKeys; ++I)
    Keys[I] = 100 + I;
  RT.coreModrefDynamic(Keys, size_t(NumKeys));
  return nullptr;
}

} // namespace

TEST(DynamicModref, ArenaAllocationsIndependentOfKeyCount) {
  // Per call: one AllocNode holding the init closure and the modref
  // block; the key frame is staged off the arena. The entry closure of
  // runCore is the only other arena allocation; subtract it via a no-op
  // run. A first keyed call allocates the alloc memo table's bucket array
  // in the arena, once, so it runs before the measured calls.
  Runtime RT;
  RT.runCore<&dynModrefCore>(Word(1));
  size_t Before = RT.arena().allocationCount();
  RT.runCore<&noopCore>(Word(0));
  size_t NoopDelta = RT.arena().allocationCount() - Before;

  Before = RT.arena().allocationCount();
  RT.runCore<&dynModrefCore>(Word(2));
  size_t TwoKeys = RT.arena().allocationCount() - Before - NoopDelta;

  Before = RT.arena().allocationCount();
  RT.runCore<&dynModrefCore>(Word(8));
  size_t EightKeys = RT.arena().allocationCount() - Before - NoopDelta;

  EXPECT_EQ(TwoKeys, 1u);
  EXPECT_EQ(EightKeys, 1u);
}

//===----------------------------------------------------------------------===//
// Work gates: arena blocks per traced operation
//===----------------------------------------------------------------------===//

namespace {

/// Order-list groups currently allocated (the base sentinel excluded).
size_t omGroups(Runtime &RT) {
  return (RT.memoryStats().OmGroupBytes - sizeof(OmNode)) / sizeof(OmGroup);
}

/// Arena allocations of an \p N-element map construction that are not
/// order-list groups, and the ones that are.
std::pair<size_t, size_t> mapConstructionAllocs(size_t N) {
  Runtime RT;
  Rng R(11);
  ListHandle L = buildList(RT, gen::randomWords(R, N));
  Modref *Dst = RT.modref();
  const size_t Groups0 = omGroups(RT);
  const size_t Before = RT.arena().allocationCount();
  RT.runCore<&mapCore>(L.Head, Dst, &mapFn, Word(0));
  const size_t Groups = omGroups(RT) - Groups0;
  return {RT.arena().allocationCount() - Before - Groups, Groups};
}

} // namespace

TEST(WorkGates, MapConstructionIsOneArenaBlockPerTracedOperation) {
  // Each element traces a read, a write and two allocations, and each of
  // them is one arena block: the read's closure and the allocations'
  // initializers and blocks live in their nodes. Beyond those, a run
  // allocates the entry closure, the two memo tables' bucket arrays, and
  // the order list's groups (counted apart). The trailing read of the
  // empty tail adds one read and one write.
  for (size_t N : {500, 2000}) {
    auto [Allocs, Groups] = mapConstructionAllocs(N);
    EXPECT_LE(Allocs, 4 * N + 2 + 3) << "N = " << N;
    EXPECT_LE(Groups, (5 * N) / 32 + 2) << "N = " << N;
  }
}

TEST(WorkGates, EditPropagationWorkIsIndependentOfInputSize) {
  // One detach and one reattach of a middle cell, each propagated: the
  // arena blocks and memo inserts they cost must not grow with the list.
  auto EditCost = [](size_t N) {
    Runtime::Config C;
    C.EnableProfile = true;
    Runtime RT(C);
    Rng R(13);
    ListHandle L = buildList(RT, gen::randomWords(R, N));
    Modref *Dst = RT.modref();
    RT.runCore<&mapCore>(L.Head, Dst, &mapFn, Word(0));
    std::vector<uint64_t> Cost;
    for (bool Attach : {false, true}) {
      const size_t Allocs0 = RT.arena().allocationCount();
      const uint64_t Inserts0 = RT.profile().MemoInserts;
      if (Attach)
        reattachCell(RT, L, N / 2);
      else
        detachCell(RT, L, N / 2);
      RT.propagate();
      Cost.push_back(RT.arena().allocationCount() - Allocs0);
      Cost.push_back(RT.profile().MemoInserts - Inserts0);
    }
    return Cost;
  };
  const std::vector<uint64_t> Small = EditCost(1000);
  EXPECT_EQ(Small, EditCost(4000));
  // Detach: the re-executed read memo-matches the next cell's two
  // allocations, moving them, writes its output (the one new block) and
  // splices at the next read. Reattach: the reattached cell costs a new
  // read, a write and two allocations, all three memoized nodes
  // inserted; the next cell's work is a second write, then moves and a
  // splice as before.
  EXPECT_EQ(Small, (std::vector<uint64_t>{1, 0, 5, 3}));
}

TEST(WorkGates, MemoMatchedAllocationKeepsItsNodeAndBlock) {
  // Stealing a block moves its node to the cursor, so both keep their
  // addresses: no node is freed and rebuilt around the stolen block.
  Runtime RT;
  Rng R(17);
  const size_t N = 64;
  ListHandle L = buildList(RT, gen::randomWords(R, N));
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(L.Head, Dst, &mapFn, Word(0));
  auto NodeOfBlock = [&RT]() {
    std::unordered_map<const void *, const AllocNode *> M;
    const OrderList &Om = RT.orderList();
    for (const OmNode *T = Om.next(Om.base()); T; T = Om.next(T))
      if (T->Kind == TraceKind::Alloc) {
        const auto *A = static_cast<const AllocNode *>(T);
        M.emplace(A->block(), A);
      }
    return M;
  };
  const auto Before = NodeOfBlock();
  detachCell(RT, L, N / 2);
  RT.propagate();
  ASSERT_GT(RT.stats().MemoAllocHits, 0u);
  size_t Kept = 0;
  for (const auto &[Block, Node] : NodeOfBlock()) {
    auto It = Before.find(Block);
    if (It == Before.end())
      continue;
    EXPECT_EQ(It->second, Node) << "the block at " << Block
                                << " changed nodes";
    ++Kept;
  }
  // Every allocation but the detached element's two survived.
  EXPECT_EQ(Kept, 2 * (N - 1));
  TraceAudit::enforce(RT, "after a memo-matched allocation");
}

//===----------------------------------------------------------------------===//
// deref is a mutator operation
//===----------------------------------------------------------------------===//

#ifndef NDEBUG
namespace {

Closure *derefInCore(Runtime &RT, Word MRef) {
  // Illegal: deref from core code bypasses the traced-read protocol.
  RT.deref(fromWord<Modref *>(MRef));
  return nullptr;
}

} // namespace

TEST(PhaseChecksDeathTest, DerefFromCoreAsserts) {
  EXPECT_DEATH(
      {
        Runtime RT;
        Modref *M = RT.modref<int64_t>(1);
        RT.runCore<&derefInCore>(toWord(M));
      },
      "deref is a mutator operation");
}
#endif
