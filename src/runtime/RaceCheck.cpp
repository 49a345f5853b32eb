//===- runtime/RaceCheck.cpp - Determinacy-race detector ------------------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "runtime/RaceCheck.h"

#include "runtime/Runtime.h"

#include <algorithm>

using namespace ceal;

void RaceReport::writeJson(std::ostream &Out) const {
  Out << "{\"intervals\": " << Intervals << ", \"clusters\": " << Clusters
      << ", \"initial_dirty_reads\": " << InitialDirtyReads
      << ", \"tagged_reads\": " << TaggedReads
      << ", \"tagged_writes\": " << TaggedWrites
      << ", \"tagged_memo_hits\": " << TaggedMemoHits
      << ", \"cascade_invalidations\": " << CascadeInvalidations
      << ", \"ww_conflicts\": " << WwConflicts
      << ", \"rw_conflicts\": " << RwConflicts
      << ", \"cascade_conflicts\": " << CascadeConflicts
      << ", \"partitionable\": " << (partitionable() ? "true" : "false")
      << ", \"recorded_conflicts\": [";
  for (size_t I = 0; I < Conflicts.size(); ++I) {
    const RaceConflict &C = Conflicts[I];
    Out << (I ? ", " : "") << "{\"kind\": \"" << raceConflictKindName(C.K)
        << "\", \"a\": " << C.IntervalA << ", \"b\": " << C.IntervalB
        << ", \"object\": " << C.ObjectId << "}";
  }
  Out << "]}";
}

/// Sorts the pending dirty reads by start timestamp and merges
/// overlapping read intervals into clusters. Reads whose trace intervals
/// overlap re-execute as one region (intervals nest, so an inner dirty
/// read is subsumed by the outer one's re-execution or handled inside it)
/// and must share a cluster; disjoint clusters are the units a parallel
/// propagator can distribute. Duplicate heap entries (the heap tolerates
/// them transiently — the second pop sees a clean read and skips) are
/// removed first so a read never lands in two clusters or inflates the
/// dirty count.
DirtyClustering RaceCheck::clusterPending(Runtime &RT,
                                          std::vector<ReadNode *> Pending) {
  DirtyClustering C;
  if (Pending.empty())
    return C;
  // Dedup by identity before the timestamp sort: heapLess ties on equal
  // nodes, so duplicates would otherwise stay adjacent-but-distinct and
  // double-count their interval in the overlap merge.
  std::sort(Pending.begin(), Pending.end());
  Pending.erase(std::unique(Pending.begin(), Pending.end()), Pending.end());
  std::sort(Pending.begin(), Pending.end(),
            [&RT](const ReadNode *A, const ReadNode *B) {
              return RT.heapLess(A, B);
            });

  // Cluster by interval overlap: in start order, a read whose start
  // precedes the running cluster end extends the cluster (nesting keeps
  // the end stable, but take the max defensively).
  C.ClusterOf.resize(Pending.size());
  Handle<OmNode> ClusterEnd{};
  for (size_t I = 0; I < Pending.size(); ++I) {
    Handle<OmNode> Start = Pending[I]->Start;
    Handle<OmNode> End = Pending[I]->End;
    if (!ClusterEnd || !RT.Om.precedes(Start, ClusterEnd)) {
      ++C.NumClusters;
      ClusterEnd = End;
    } else if (RT.Om.precedes(ClusterEnd, End)) {
      ClusterEnd = End;
    }
    C.ClusterOf[I] = C.NumClusters - 1;
  }
  C.Sorted = std::move(Pending);
  return C;
}

DirtyClustering RaceCheck::clusterDirty(Runtime &RT) {
  return clusterPending(RT, RT.Main.Heap);
}

/// Partitions the pending dirty reads into at most \p MaxIntervals
/// contiguous groups of overlap clusters (see clusterPending) and arms
/// the hooks.
void RaceCheck::beginPropagate(Runtime &RT, unsigned MaxIntervals) {
  AccessMap.clear();
  Owner.clear();
  Rep = RaceReport();
  Cur = 0;
  Active = true;

  DirtyClustering C = clusterDirty(RT);
  Rep.InitialDirtyReads = C.Sorted.size();
  if (C.Sorted.empty())
    return;
  Rep.Clusters = C.NumClusters;

  uint32_t K = std::min<uint32_t>(
      C.NumClusters, std::max(1u, std::min(MaxIntervals, MaxIntervalBits)));
  Rep.Intervals = K;
  // Contiguous balanced split: cluster c lands in group c*K/NumClusters,
  // preserving timestamp order within and across groups.
  for (size_t I = 0; I < C.Sorted.size(); ++I)
    Owner[C.Sorted[I]] =
        static_cast<uint32_t>(uint64_t(C.ClusterOf[I]) * K / C.NumClusters);
}

void RaceCheck::setCurrent(const ReadNode *R) {
  // Every popped read is either initially dirty (tagged above) or was
  // cascade-invalidated mid-propagation (tagged in onInvalidate); an
  // unknown read keeps the current interval rather than inventing one.
  auto It = Owner.find(R);
  if (It != Owner.end())
    Cur = It->second;
}

void RaceCheck::finishPropagate() {
  Active = false;
  AccessMap.clear();
  Owner.clear();
}

void RaceCheck::recordConflict(RaceConflict::Kind K, uint32_t Other,
                               uintptr_t Id) {
  switch (K) {
  case RaceConflict::WW:
    ++Rep.WwConflicts;
    break;
  case RaceConflict::RW:
    ++Rep.RwConflicts;
    break;
  case RaceConflict::CascadeInvalidate:
    ++Rep.CascadeConflicts;
    break;
  }
  if (Rep.Conflicts.size() < RaceReport::MaxRecorded)
    Rep.Conflicts.push_back({K, Cur, Other, Id});
}

/// Lowest interval index set in \p Mask (callers guarantee nonzero).
static uint32_t firstInterval(uint32_t Mask) {
  return static_cast<uint32_t>(__builtin_ctz(Mask));
}

void RaceCheck::onRead(const Modref *M, const ReadNode *R) {
  ++Rep.TaggedReads;
  (void)R; // Fresh reads enter Owner lazily, in onInvalidate (see there).
  Access &A = AccessMap[M];
  const uint32_t Bit = 1u << Cur;
  // Reading a value a foreign interval wrote: the observed value would
  // depend on whether that interval's write had landed yet.
  if (uint32_t Foreign = A.Writers & ~Bit)
    recordConflict(RaceConflict::RW, firstInterval(Foreign),
                   reinterpret_cast<uintptr_t>(M));
  A.Readers |= Bit;
}

void RaceCheck::onMemoHit() { ++Rep.TaggedMemoHits; }

void RaceCheck::onWrite(const Modref *M) {
  ++Rep.TaggedWrites;
  Access &A = AccessMap[M];
  const uint32_t Bit = 1u << Cur;
  if (uint32_t Foreign = A.Writers & ~Bit)
    recordConflict(RaceConflict::WW, firstInterval(Foreign),
                   reinterpret_cast<uintptr_t>(M));
  if (uint32_t Foreign = A.Readers & ~Bit)
    recordConflict(RaceConflict::RW, firstInterval(Foreign),
                   reinterpret_cast<uintptr_t>(M));
  A.Writers |= Bit;
}

void RaceCheck::onInvalidate(const ReadNode *R) {
  ++Rep.CascadeInvalidations;
  // Owner holds the initially-dirty partition plus reads already pulled
  // into an interval's cascade. A read absent from the map (traced at
  // construction, or fresh this propagation) simply joins the current
  // interval's cascade: its invalidating write already ran the RW mask
  // check, so cross-interval dependence through it is not lost. A read
  // *present* under another interval is a direct conflict — this
  // interval grew that interval's work list.
  auto It = Owner.find(R);
  if (It != Owner.end() && It->second != Cur)
    recordConflict(RaceConflict::CascadeInvalidate, It->second,
                   reinterpret_cast<uintptr_t>(R));
  Owner[R] = Cur;
}

void RaceCheck::onRevokeRead(const ReadNode *R) { Owner.erase(R); }
