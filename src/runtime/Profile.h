//===- runtime/Profile.h - Propagation profiler ----------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The propagation profiler: always-compiled phase timers and work
/// histograms for the change-propagation hot paths. Profiling is a
/// runtime knob (Runtime::Config::EnableProfile); when it is off the only
/// cost left on a hot path is a predictable branch, so release numbers
/// are unaffected (the acceptance bar is <= 2% against a build without
/// the profiler). When it is on, the runtime accumulates:
///
///  * phase wall time — runCore trampolines, whole propagate() calls,
///    and within propagation the re-executions (inclusive of the revoke
///    and memo work they trigger), revokeInterval walks, memo-index
///    probes, and priority-queue pops;
///  * a histogram of re-executed interval sizes, measured as the number
///    of trace operations (nodes traced, revoked, or memo-spliced)
///    performed per re-execution;
///  * a histogram of use-list insertion scan lengths (the placement
///    walk in Runtime::insertUse).
///
/// The benchmark harnesses (bench/rt_microbench, bench/table1_summary)
/// serialize the profile as JSON so CI can track where propagation time
/// goes PR over PR.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_PROFILE_H
#define CEAL_RUNTIME_PROFILE_H

#include "support/Timer.h"

#include <cstdint>
#include <ostream>

namespace ceal {

/// A power-of-two histogram over non-negative 64-bit values. Bucket 0
/// counts zeros; bucket b >= 1 counts values in [2^(b-1), 2^b).
struct ProfileHistogram {
  static constexpr unsigned NumBuckets = 40;

  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Max = 0;

  void record(uint64_t V) {
    unsigned B = 0;
    for (uint64_t X = V; X; X >>= 1)
      ++B;
    if (B >= NumBuckets)
      B = NumBuckets - 1;
    ++Buckets[B];
    ++Count;
    Sum += V;
    if (V > Max)
      Max = V;
  }

  double mean() const { return Count ? double(Sum) / double(Count) : 0.0; }

  /// Emits `{"count":...,"sum":...,"max":...,"mean":...,"buckets":[[lo,
  /// n],...]}` with one `[lower_bound, count]` pair per non-empty bucket.
  void writeJson(std::ostream &Out) const {
    Out << "{\"count\": " << Count << ", \"sum\": " << Sum
        << ", \"max\": " << Max << ", \"mean\": " << mean()
        << ", \"buckets\": [";
    bool First = true;
    for (unsigned B = 0; B < NumBuckets; ++B) {
      if (!Buckets[B])
        continue;
      uint64_t Lo = B == 0 ? 0 : uint64_t(1) << (B - 1);
      Out << (First ? "" : ", ") << "[" << Lo << ", " << Buckets[B] << "]";
      First = false;
    }
    Out << "]}";
  }
};

/// Accumulated propagation profile; owned by Runtime, read through
/// Runtime::profile(). All times are monotonic-clock nanoseconds.
/// Nesting: ReexecNs is inside PropagateNs; RevokeNs and MemoLookupNs
/// are (mostly) inside ReexecNs; QueueNs is inside PropagateNs but
/// outside ReexecNs.
struct PropagationProfile {
  /// Mirrors Config::EnableProfile; hot paths test this single flag.
  bool Enabled = false;

  uint64_t RunCoreNs = 0;    ///< runCore trampoline wall time.
  uint64_t PropagateNs = 0;  ///< whole propagate() calls.
  uint64_t ReexecNs = 0;     ///< re-executions (inclusive).
  uint64_t RevokeNs = 0;     ///< revokeInterval walks.
  uint64_t MemoLookupNs = 0; ///< read/alloc memo-index probes.
  uint64_t QueueNs = 0;      ///< priority-queue pops in propagate().

  uint64_t RunCoreCalls = 0;
  uint64_t ReexecCalls = 0;
  uint64_t RevokeCalls = 0;
  uint64_t MemoLookups = 0;
  uint64_t QueuePops = 0;

  /// Construction section: the primitive operations trace construction
  /// performs, counted wherever they happen (from-scratch runs and the
  /// re-traced parts of re-executions), plus the deferred memo-index
  /// build that the construction fast path runs at the end of run()
  /// (inside RunCoreNs).
  uint64_t MemoBuildNs = 0;        ///< deferred memo-table bulk build.
  uint64_t OmInserts = 0;          ///< order-maintenance timestamps created.
  uint64_t ArenaAllocs = 0;        ///< arena blocks handed out during runCore.
  uint64_t MemoInserts = 0;        ///< read/alloc memo-index insertions.
  uint64_t ClosureDispatches = 0;  ///< trampoline closure invocations.

  /// Trace operations (traced + revoked + memo-spliced nodes) per
  /// re-execution: the distribution of re-executed interval sizes.
  ProfileHistogram ReexecWork;
  /// Placement-scan steps per use-list insertion.
  ProfileHistogram UseScan;

  void reset() {
    bool E = Enabled;
    *this = PropagationProfile();
    Enabled = E;
  }

  /// Emits the profile as one JSON object (no trailing newline).
  void writeJson(std::ostream &Out) const {
    Out << "{\"enabled\": " << (Enabled ? "true" : "false")
        << ", \"run_core_ns\": " << RunCoreNs
        << ", \"propagate_ns\": " << PropagateNs
        << ", \"reexec_ns\": " << ReexecNs << ", \"revoke_ns\": " << RevokeNs
        << ", \"memo_lookup_ns\": " << MemoLookupNs
        << ", \"queue_ns\": " << QueueNs
        << ", \"run_core_calls\": " << RunCoreCalls
        << ", \"reexec_calls\": " << ReexecCalls
        << ", \"revoke_calls\": " << RevokeCalls
        << ", \"memo_lookups\": " << MemoLookups
        << ", \"queue_pops\": " << QueuePops
        << ", \"memo_build_ns\": " << MemoBuildNs
        << ", \"om_inserts\": " << OmInserts
        << ", \"arena_allocs\": " << ArenaAllocs
        << ", \"memo_inserts\": " << MemoInserts
        << ", \"closure_dispatches\": " << ClosureDispatches
        << ", \"reexec_work_hist\": ";
    ReexecWork.writeJson(Out);
    Out << ", \"use_scan_hist\": ";
    UseScan.writeJson(Out);
    Out << "}";
  }
};

/// Per-kind live-memory accounting, filled by Runtime::memoryStats() from
/// a meta-phase walk of the trace. Byte counts are arena-accounted (they
/// include the 8-byte size-class rounding), so the per-kind numbers sum
/// to what the arena actually charges:
///
///   ReadBytes + WriteBytes + AllocBytes + UserBlockBytes + ClosureBytes
///     + MetaBytes + OmGroupBytes + MemoBucketBytes == ArenaLiveBytes
///
/// (TraceAudit enforces the same identity). Timestamps are inside their
/// trace nodes, so ReadBytes/WriteBytes/AllocBytes include them. The memo
/// bucket arrays are arena blocks too, so the arena's high-water mark is
/// the whole footprint.
struct MemoryStats {
  uint64_t ReadBytes = 0;      ///< ReadNode records (+ per-node pad).
  uint64_t WriteBytes = 0;     ///< WriteNode records (+ per-node pad).
  uint64_t AllocBytes = 0;     ///< AllocNode records (+ per-node pad).
  uint64_t UserBlockBytes = 0; ///< memo-keyed allocations' user blocks.
  uint64_t ClosureBytes = 0;   ///< read closures + alloc initializers.
  uint64_t MetaBytes = 0;      ///< tracked meta blocks (inputs, modrefs).
  /// Order-list groups and base sentinel (in the trace arena; every
  /// other timestamp is inside its trace node and counted with it).
  uint64_t OmGroupBytes = 0;
  /// The two memo tables' bucket arrays (in the trace arena).
  uint64_t MemoBucketBytes = 0;
  /// Order-list and memo-index bytes outside the trace arena: both zero,
  /// since the list and the bucket arrays live in it. Kept so
  /// `max live + OmBytes + MemoIndexBytes` stays the whole footprint for
  /// every reader that still adds them.
  uint64_t OmBytes = 0;
  uint64_t MemoIndexBytes = 0;

  uint64_t Reads = 0, Writes = 0, Allocs = 0, Timestamps = 0;

  /// Trace-arena occupancy: live vs. high-water vs. touched region.
  uint64_t ArenaLiveBytes = 0;
  uint64_t ArenaMaxLiveBytes = 0;
  uint64_t ArenaBumpUsedBytes = 0;

  /// Fraction of the touched region currently live; the remainder is
  /// size-class freelist inventory (fragmentation()).
  double utilization() const {
    return ArenaBumpUsedBytes
               ? double(ArenaLiveBytes) / double(ArenaBumpUsedBytes)
               : 1.0;
  }
  double fragmentation() const { return 1.0 - utilization(); }

  /// Emits the stats as one JSON object (no trailing newline).
  void writeJson(std::ostream &Out) const {
    Out << "{\"read_bytes\": " << ReadBytes
        << ", \"write_bytes\": " << WriteBytes
        << ", \"alloc_bytes\": " << AllocBytes
        << ", \"user_block_bytes\": " << UserBlockBytes
        << ", \"closure_bytes\": " << ClosureBytes
        << ", \"meta_bytes\": " << MetaBytes
        << ", \"om_group_bytes\": " << OmGroupBytes
        << ", \"memo_bucket_bytes\": " << MemoBucketBytes
        << ", \"om_bytes\": " << OmBytes
        << ", \"memo_index_bytes\": " << MemoIndexBytes
        << ", \"reads\": " << Reads << ", \"writes\": " << Writes
        << ", \"allocs\": " << Allocs
        << ", \"timestamps\": " << Timestamps
        << ", \"arena_live_bytes\": " << ArenaLiveBytes
        << ", \"arena_max_live_bytes\": " << ArenaMaxLiveBytes
        << ", \"arena_bump_used_bytes\": " << ArenaBumpUsedBytes
        << ", \"utilization\": " << utilization()
        << ", \"fragmentation\": " << fragmentation() << "}";
  }
};

/// RAII phase timer. When profiling is disabled the constructor and
/// destructor each cost one branch; when enabled, one clock read each.
class ProfileTimer {
public:
  ProfileTimer(const PropagationProfile &P, uint64_t &Accumulator)
      : Acc(P.Enabled ? &Accumulator : nullptr) {
    if (Acc)
      T0 = Timer::nowNs();
  }
  ProfileTimer(const ProfileTimer &) = delete;
  ProfileTimer &operator=(const ProfileTimer &) = delete;
  ~ProfileTimer() {
    if (Acc)
      *Acc += Timer::nowNs() - T0;
  }

private:
  uint64_t *Acc;
  uint64_t T0 = 0;
};

} // namespace ceal

#endif // CEAL_RUNTIME_PROFILE_H
