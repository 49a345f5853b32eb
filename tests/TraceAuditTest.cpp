//===- tests/TraceAuditTest.cpp - Trace sanitizer unit tests --------------===//
//
// Two directions: traces the runtime builds must audit clean (on request
// and from the Config::Audit hooks, across runs and propagations), and
// deliberately corrupted state must be *detected* — each corruption test
// breaks one structure through public types (Modref, ReadNode are plain
// structs) and asserts inspect() reports it rather than crashing.
//
//===----------------------------------------------------------------------===//

#include "apps/ListApps.h"
#include "runtime/TraceAudit.h"
#include "support/Random.h"
#include "tests/support/Generators.h"

#include <gtest/gtest.h>

using namespace ceal;
using namespace ceal::apps;

namespace {

Word mapId(Word X, Word) { return X * 2 + 1; }

/// A small runtime with a mapped list: enough structure to exercise every
/// audit pass (reads, writes, allocs, memo entries, use lists).
struct Fixture {
  Runtime RT;
  ListHandle L;
  Modref *Dst;

  explicit Fixture(Runtime::Config C = {}, size_t N = 24) : RT(C) {
    Rng R(42);
    L = buildList(RT, gen::randomWords(R, N));
    Dst = RT.modref();
    RT.runCore<&mapCore>(L.Head, Dst, &mapId, Word(0));
  }

  /// The first traced read in some cell's use list.
  ReadNode *someRead() {
    Arena &A = RT.arena();
    for (Cell *C : L.Cells)
      for (Use *U = A.ptr(C->Tail->Head); U; U = A.ptr(U->NextUse))
        if (U->Kind == TraceKind::Read)
          return static_cast<ReadNode *>(U);
    return nullptr;
  }
};

/// True if some violation message contains \p Needle.
bool reports(const TraceAudit::Report &Rep, const char *Needle) {
  for (const std::string &V : Rep.Violations)
    if (V.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Clean traces audit clean
//===----------------------------------------------------------------------===//

TEST(TraceAudit, FreshRunAuditsClean) {
  Fixture F;
  TraceAudit::Report Rep = TraceAudit::inspect(F.RT);
  EXPECT_TRUE(Rep.ok()) << Rep.summary();
  EXPECT_GT(Rep.Reads, 0u);
  EXPECT_GT(Rep.Writes, 0u);
  EXPECT_GT(Rep.Timestamps, Rep.Reads);
  EXPECT_GT(Rep.TraceBytes, 0u);
}

TEST(TraceAudit, CleanAcrossEditsAndPropagations) {
  Fixture F;
  Rng R(7);
  for (int Edit = 0; Edit < 12; ++Edit) {
    size_t I = R.below(F.L.Cells.size());
    detachCell(F.RT, F.L, I);
    F.RT.propagate();
    TraceAudit::Report Rep = TraceAudit::inspect(F.RT);
    ASSERT_TRUE(Rep.ok()) << "after delete: " << Rep.summary();
    reattachCell(F.RT, F.L, I);
    F.RT.propagate();
    Rep = TraceAudit::inspect(F.RT);
    ASSERT_TRUE(Rep.ok()) << "after reinsert: " << Rep.summary();
  }
}

TEST(TraceAudit, EveryPropagationHooksRunOnCleanTraces) {
  Runtime::Config C;
  C.Audit = true;
  // Constructing, running, editing, propagating with the hooks live must
  // not abort.
  Fixture F(C);
  detachCell(F.RT, F.L, 3);
  F.RT.propagate();
  reattachCell(F.RT, F.L, 3);
  F.RT.propagate();
  EXPECT_EQ(F.RT.derefT<Cell *>(F.L.Head), F.L.Cells[0]);
}

TEST(TraceAudit, CheckpointsCleanWithFastPathReserveAndChurn) {
  // The construction fast path (OM append mode, raw-init nodes, deferred
  // memo build) plus an input-size reservation, audited the way the
  // benchmarks run: checkpoint after the from-scratch run, then through
  // edit/propagate churn that revisits the half-open groups and the
  // bulk-built memo index.
  Runtime RT;
  const size_t N = 512;
  RT.reserveTrace(4 * N);
  Rng R(11);
  ListHandle L = buildList(RT, gen::randomWords(R, N));
  Modref *Dst = RT.modref();
  RT.runCore<&mapCore>(L.Head, Dst, &mapId, Word(0));
  TraceAudit::enforce(RT, "after fast-path construction");
  TraceAudit::Report Rep = TraceAudit::inspect(RT);
  ASSERT_TRUE(Rep.ok()) << Rep.summary();
  ASSERT_GT(Rep.Reads, N) << "trace unexpectedly small";

  for (int Edit = 0; Edit < 16; ++Edit) {
    size_t I = R.below(L.Cells.size());
    detachCell(RT, L, I);
    RT.propagate();
    reattachCell(RT, L, I);
    RT.propagate();
    TraceAudit::enforce(RT, "after churn round");
  }
  Rep = TraceAudit::inspect(RT);
  EXPECT_TRUE(Rep.ok()) << Rep.summary();
}

// The pointer-width CEAL_WIDE_TRACE build is gone (commit 1615f00 is the
// last with it); the golden below still pins that any later layout
// change alters only how nodes are packed, not what gets traced.
TEST(TraceAudit, TraceShapeIsLayoutIndependent) {
  // Golden trace-shape signature for a fixed workload (seeded Fixture,
  // N = 64), recorded before the node layouts were compressed and kept
  // through every repacking since (32-bit handles, embedded timestamps,
  // packed labels). A layout change that alters what gets traced, rather
  // than just how the nodes are packed, diverges from the golden and
  // fails.
  Fixture F({}, 64);
  TraceAudit::Report Rep = TraceAudit::inspect(F.RT);
  ASSERT_TRUE(Rep.ok()) << Rep.summary();
  EXPECT_EQ(Rep.Reads, 65u);
  EXPECT_EQ(Rep.Writes, 65u);
  EXPECT_EQ(Rep.Allocs, 128u);
  EXPECT_EQ(Rep.Timestamps, 324u);
}

TEST(TraceAudit, OffLevelIgnoresEvenCorruptedState) {
  Fixture F; // Config::Audit defaults to off.
  ReadNode *R = F.someRead();
  ASSERT_NE(R, nullptr);
  Word Saved = R->SeenValue;
  R->SeenValue ^= 1;
  F.RT.propagate(); // Nothing queued; with the hook off, no audit runs.
  R->SeenValue = Saved;
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// Corruption detection
//===----------------------------------------------------------------------===//

TEST(TraceAudit, DetectsEqualityCutViolation) {
  Fixture F;
  ReadNode *R = F.someRead();
  ASSERT_NE(R, nullptr);
  ASSERT_FALSE(R->isDirty());
  R->SeenValue ^= 1; // Clean read no longer agrees with its governing write.
  EXPECT_TRUE(reports(TraceAudit::inspect(F.RT), "equality cut"));
  R->SeenValue ^= 1;
}

TEST(TraceAudit, DetectsUseListLinkCorruption) {
  Fixture F;
  ReadNode *R = F.someRead();
  ASSERT_NE(R, nullptr);
  Handle<Use> Saved = R->PrevUse;
  // Break the back-link: point the read's PrevUse at itself.
  R->PrevUse = F.RT.arena().handle(static_cast<Use *>(R));
  EXPECT_TRUE(reports(TraceAudit::inspect(F.RT), "uselist"));
  R->PrevUse = Saved;
}

TEST(TraceAudit, DetectsOutOfBoundsHandle) {
  // A trace edge whose handle decodes past the arena's bump frontier must
  // be reported, not dereferenced (the compressed layouts make every edge
  // a 32-bit offset, so a stray write can forge one cheaply).
  Fixture F;
  ReadNode *R = F.someRead();
  ASSERT_NE(R, nullptr);
  Handle<Use> Saved = R->PrevUse;
  R->PrevUse = Handle<Use>(0x3fffffffu); // Far beyond the bump frontier.
  EXPECT_TRUE(reports(TraceAudit::inspect(F.RT),
                      "outside the trace arena"));
  R->PrevUse = Saved;
}

TEST(TraceAudit, DetectsOutOfBoundsOmHandle) {
  // The order list links its timestamps and groups by 32-bit handles
  // too: a Next or Group handle forged past the trace arena's bump
  // frontier must be reported, not dereferenced. A read is its own start
  // timestamp, so the forgery goes straight into the read's links.
  Fixture F;
  ReadNode *R = F.someRead();
  ASSERT_NE(R, nullptr);
  OmNode *N = R;
  const uint32_t Forged = 0x3fffffffu; // Far beyond the bump frontier.
  ASSERT_FALSE(F.RT.arena().handleInBounds(Forged));

  Handle<OmNode> SavedNext = N->Next;
  N->Next = Handle<OmNode>(Forged);
  EXPECT_TRUE(reports(TraceAudit::inspect(F.RT),
                      "om: node link: handle 0x3fffffff outside the trace "
                      "arena"));
  N->Next = SavedNext;

  Handle<OmGroup> SavedGroup = N->Group;
  N->Group = Handle<OmGroup>(Forged);
  EXPECT_TRUE(reports(TraceAudit::inspect(F.RT),
                      "om: node group: handle 0x3fffffff outside the trace "
                      "arena"));
  N->Group = SavedGroup;
  EXPECT_TRUE(TraceAudit::inspect(F.RT).ok());
}

TEST(TraceAudit, DetectsEndStampKindCorruption) {
  // Every timestamp is embedded in a trace node, and its kind byte must
  // say which part of the node it is: a read's End member is the only
  // stamp that may say End, and it must.
  Fixture F;
  ReadNode *R = F.someRead();
  ASSERT_NE(R, nullptr);
  ASSERT_EQ(R->End.Kind, TraceKind::End);

  // The end stamp claims to be a write's start.
  R->End.Kind = TraceKind::Write;
  EXPECT_TRUE(reports(TraceAudit::inspect(F.RT),
                      "read's end stamp carries kind"));
  R->End.Kind = TraceKind::End;
  EXPECT_TRUE(TraceAudit::inspect(F.RT).ok());

  // A read's start stamp claims to be an end: it then names no open
  // read, and the read it really is drops out of the trace.
  R->Kind = TraceKind::End;
  TraceAudit::Report Rep = TraceAudit::inspect(F.RT);
  EXPECT_FALSE(Rep.ok());
  EXPECT_TRUE(reports(Rep, "end stamp embedded in a non-read node") ||
              reports(Rep, "interval end with no open read") ||
              reports(Rep, "not properly nested"))
      << Rep.summary();
  R->Kind = TraceKind::Read;

  // End moved before Start: the interval is inverted. Relabeling inside
  // one group is enough, so take a read whose interval fits in one.
  const OrderList &Om = F.RT.orderList();
  R = nullptr;
  for (OmNode *N = Om.next(Om.base()); N && !R; N = Om.next(N))
    if (N->Kind == TraceKind::Read &&
        static_cast<ReadNode *>(N)->End.Group == N->Group)
      R = static_cast<ReadNode *>(N);
  ASSERT_NE(R, nullptr) << "no read interval within one group";
  uint64_t SavedLabel = R->End.Label;
  R->End.Label = R->Label - 1;
  Rep = TraceAudit::inspect(F.RT);
  EXPECT_TRUE(reports(Rep, "read: End does not follow Start"))
      << Rep.summary();
  R->End.Label = SavedLabel;
  EXPECT_TRUE(TraceAudit::inspect(F.RT).ok());
}

TEST(TraceAudit, DetectsUndefinedKindsAndLabelDisorderInThePackedWord) {
  // A timestamp packs its in-group label, kind and flags into one word.
  // The kind field is 3 bits wide, so 5-7 fit but name no TraceKind; a
  // stamp carrying one, on any kind of node, is reported rather than
  // trusted. The label bits are checked for order independently.
  Fixture F;
  const OrderList &Om = F.RT.orderList();
  std::vector<OmNode *> Stamps; // One read, write, alloc and end stamp.
  for (TraceKind K : {TraceKind::Read, TraceKind::Write, TraceKind::Alloc,
                      TraceKind::End})
    for (OmNode *N = Om.next(Om.base()); N; N = Om.next(N))
      if (N->Kind == K) {
        Stamps.push_back(N);
        break;
      }
  ASSERT_EQ(Stamps.size(), 4u);
  for (OmNode *N : Stamps)
    for (unsigned K = 5; K < 8; ++K) {
      const TraceKind Saved = N->Kind;
      const uint32_t Label = N->Label;
      const uint8_t Flags = N->Flags;
      N->Kind = static_cast<TraceKind>(K);
      ASSERT_EQ(unsigned(N->Kind), K);
      EXPECT_EQ(N->Label, Label) << "the kind store touched the label";
      EXPECT_EQ(N->Flags, Flags) << "the kind store touched the flags";
      TraceAudit::Report Rep = TraceAudit::inspect(F.RT);
      EXPECT_TRUE(reports(Rep, ("kind " + std::to_string(K)).c_str()))
          << "stamp of kind " << unsigned(Saved) << ": " << Rep.summary();
      N->Kind = Saved;
    }
  EXPECT_TRUE(TraceAudit::inspect(F.RT).ok());

  // Two neighbours in one group: the second's label drops to the
  // first's, then below it.
  OmNode *A = nullptr, *B = nullptr;
  for (OmNode *N = Om.next(Om.base()); N && !A; N = Om.next(N))
    if (OmNode *Succ = Om.next(N); Succ && Succ->Group == N->Group)
      A = N, B = Succ;
  ASSERT_NE(A, nullptr) << "no two stamps share a group";
  const uint32_t Saved = B->Label;
  const TraceKind Kind = B->Kind;
  for (uint32_t Broken : {uint32_t(A->Label), uint32_t(A->Label - 1)}) {
    B->Label = Broken;
    EXPECT_EQ(B->Kind, Kind) << "the label store touched the kind";
    TraceAudit::Report Rep = TraceAudit::inspect(F.RT);
    EXPECT_TRUE(reports(Rep, "labels not strictly increasing within group"))
        << Rep.summary();
  }
  B->Label = Saved;
  EXPECT_TRUE(TraceAudit::inspect(F.RT).ok());
}

TEST(TraceAudit, DetectsDirtyFlagWithoutQueueEntry) {
  Fixture F;
  ReadNode *R = F.someRead();
  ASSERT_NE(R, nullptr);
  R->setDirty(true); // Dirty but never pushed on the propagation queue.
  TraceAudit::Report Rep = TraceAudit::inspect(F.RT);
  EXPECT_TRUE(reports(Rep, "dirty flag and queue membership disagree") ||
              reports(Rep, "dirty reads"))
      << Rep.summary();
  R->setDirty(false);
}

TEST(TraceAudit, DetectsMemoHashCorruption) {
  Fixture F;
  ReadNode *R = F.someRead();
  ASSERT_NE(R, nullptr);
  uint32_t Saved = R->Memo.Hash;
  R->Memo.Hash ^= 0x8000; // Now chained in a bucket its hash denies, and
                          // the stored hash no longer matches its key.
  EXPECT_TRUE(reports(TraceAudit::inspect(F.RT), "memo"));
  R->Memo.Hash = Saved;
}

TEST(TraceAudit, DetectsUntrackedArenaAllocationAsLeak) {
  Fixture F;
  void *Block = F.RT.arena().allocate(64); // Bypasses metaAlloc tracking.
  EXPECT_TRUE(reports(TraceAudit::inspect(F.RT), "leak"));
  F.RT.arena().deallocate(Block, 64);
  EXPECT_TRUE(TraceAudit::inspect(F.RT).ok());
}

TEST(TraceAudit, DetectsDoubleFreeAsNegativeDelta) {
  Fixture F;
  // Tracked allocation released behind the tracker's back: live bytes
  // drop below what the trace plus meta accounting can explain.
  void *Block = F.RT.metaAlloc(64);
  F.RT.arena().deallocate(Block, 64);
  EXPECT_TRUE(reports(TraceAudit::inspect(F.RT), "double free"));
  // Restore the books for teardown.
  void *Again = F.RT.arena().allocate(64);
  EXPECT_TRUE(TraceAudit::inspect(F.RT).ok());
  F.RT.metaRelease(Again, 64);
}

TEST(TraceAuditDeathTest, EnforceAbortsWithBanner) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture F;
  ReadNode *R = F.someRead();
  ASSERT_NE(R, nullptr);
  R->SeenValue ^= 1;
  EXPECT_DEATH(TraceAudit::enforce(F.RT, "in the death test"),
               "TraceAudit.*violation.*in the death test");
  R->SeenValue ^= 1;
}
