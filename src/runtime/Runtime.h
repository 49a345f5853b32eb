//===- runtime/Runtime.h - Self-adjusting-computation RTS ------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The self-adjusting-computation run-time system of the paper (Sec. 6.1):
/// modifiables, traced reads/writes, memo-keyed allocation, trampolined
/// tail calls, and change propagation. A Runtime hosts one trace; the
/// mutator drives it through the meta interface (modref / modify / deref /
/// runCore / propagate) and core code — whether hand-written in the
/// compiled closure style or executed by the CL virtual machine — uses the
/// core interface (read / write / allocate / call).
///
/// Core functions have the translated shape of Sec. 6.2: they return a
/// `Closure *` that the active trampoline runs next. `read` hands back the
/// dependent closure (a tail jump, per normalization), so user code must
/// `return RT.readTail<&f>(m, ...)`. Direct tail calls may simply call the
/// next function and return its result (the paper's read-trampolining
/// refinement, Sec. 6.3).
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_RUNTIME_H
#define CEAL_RUNTIME_RUNTIME_H

#include "om/OrderList.h"
#include "runtime/Closure.h"
#include "runtime/MemoTable.h"
#include "runtime/Profile.h"
#include "runtime/Trace.h"
#include "runtime/Word.h"
#include "support/Arena.h"
#include "support/Check.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ceal {

class TraceAudit;

/// How aggressively the trace sanitizer (TraceAudit) runs.
enum class AuditLevel : uint8_t {
  /// Never; auditNow() is a no-op. The only cost is one branch per
  /// propagate/run, so release builds pay nothing per traced operation.
  Off,
  /// Only when the mutator explicitly calls auditNow() (e.g. the oracle
  /// harness between change sequences).
  Checkpoints,
  /// Additionally after every runCore and every propagate.
  EveryPropagation,
};

/// The run-time system. See the file comment for the programming model.
/// Contract: one thread at a time; a Runtime is never used concurrently.
class Runtime {
public:
  /// Behaviour knobs. The defaults model the paper's refined translation;
  /// the non-default settings implement the SaSML-style comparator (see
  /// DESIGN.md Sec. 3 and src/baseline/).
  struct Config {
    /// Extra transient closure-sized allocations per traced read,
    /// simulating the unrefined basic translation (a heap closure per
    /// tail jump) used by SaSML-style continuation runtimes.
    unsigned ExtraAllocsPerRead = 0;
    /// Busy-work iterations per traced node, modelling the per-operation
    /// interpretation/boxing overhead of the comparator; calibrated so
    /// the from-scratch and propagation ratios land in the bands the
    /// paper reports for SaSML (Table 2).
    unsigned SimSpinPerNode = 0;
    /// Extra bytes retained with every trace node, simulating boxed
    /// values and fatter closure records.
    unsigned BoxBytesPerNode = 0;
    /// Ablation: disable the equality cut (re-execute invalidated reads
    /// even when the value they would see is unchanged, and invalidate
    /// readers on writes regardless of value). Correctness is unaffected;
    /// update times degrade (bench/ablation).
    bool DisableEqualityCut = false;
    /// If nonzero, simulate a tracing garbage collector over a heap of
    /// this many bytes: when allocation exhausts headroom, a scan
    /// proportional to the live trace runs; if the live trace itself
    /// exceeds the limit, the runtime reports out-of-memory.
    size_t HeapLimitBytes = 0;
    /// Ablation/debug: fall back to the pay-as-you-go construction path
    /// (general-order OM insertion policy, immediate memo-table inserts).
    /// The default exploits the monotone timestamp order of trace
    /// construction: run_core and re-executed intervals build their trace
    /// under the OM append-mode policy (OrderList::beginAppend) and a
    /// from-scratch run defers its memo-index inserts into a bulk build
    /// at the end of run(). Correctness is unaffected either way.
    bool DisableConstructionFastPath = false;
    /// Trace-sanitizer level (see TraceAudit.h). A violation prints every
    /// finding and aborts, valgrind-style.
    AuditLevel Audit = AuditLevel::Off;
    /// Enables the propagation profiler (phase timers and work
    /// histograms; see runtime/Profile.h). Always compiled in; when off,
    /// the only hot-path cost is a predictable branch per instrumented
    /// site.
    bool EnableProfile = false;
  };

  /// Counters for tests and the benchmark harnesses.
  struct Stats {
    uint64_t ReadsTraced = 0;
    uint64_t WritesTraced = 0;
    uint64_t AllocsTraced = 0;
    uint64_t ReadsReexecuted = 0;
    uint64_t ReadsSkippedClean = 0;
    uint64_t MemoReadHits = 0;
    uint64_t MemoAllocHits = 0;
    uint64_t NodesRevoked = 0;
    uint64_t Propagations = 0;
    uint64_t GcScans = 0;
    /// Total placement-scan steps across all use-list insertions; the
    /// regression guard for the insertUse cursor hint (pure appends and
    /// runs of adjacent insertions contribute zero).
    uint64_t UseScanSteps = 0;
  };

  Runtime() : Runtime(Config()) {}
  explicit Runtime(const Config &C);
  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;
  ~Runtime();

  //===--------------------------------------------------------------===//
  // Meta (mutator) interface
  //===--------------------------------------------------------------===//

  /// Allocates a meta-level modifiable (paper: `modref` in the meta
  /// language). Meta modifiables are not traced or collected; free them
  /// with metaFree if needed.
  Modref *modref();
  template <WordSized T> Modref *modref(T V) {
    Modref *M = this->modref();
    M->Initial = toWord(V);
    return M;
  }
  void metaFree(Modref *M);

  /// Allocates mutator-owned storage (input cells, points, records) from
  /// the runtime arena, tracked so the trace sanitizer can reconcile
  /// arena liveBytes with trace-reachable blocks. Mutator code should
  /// prefer this over arena().allocate(): untracked meta allocations show
  /// up as leaks under TraceAudit's arena reconciliation.
  void *metaAlloc(size_t Size) {
    MetaBytes += Arena::accountedSize(Size);
    return Mem.allocate(Size);
  }
  /// Returns a block obtained from metaAlloc.
  void metaRelease(void *Ptr, size_t Size) {
    assert(MetaBytes >= Arena::accountedSize(Size) &&
           "releasing more meta bytes than allocated");
    MetaBytes -= Arena::accountedSize(Size);
    Mem.deallocate(Ptr, Size);
  }

  /// Mutator write (paper: `modify`): updates the value the core saw at
  /// the start of time and invalidates exactly the affected readers.
  void modify(Modref *M, Word V);
  template <WordSized T> void modifyT(Modref *M, T V) { modify(M, toWord(V)); }

  /// Mutator read (paper: `deref`): the value at the current end of time.
  Word deref(const Modref *M) const;
  template <WordSized T> T derefT(const Modref *M) const {
    return fromWord<T>(deref(M));
  }

  /// Runs a core function from scratch (paper: `run_core`).
  template <auto Fn, typename... Actual> void runCore(Actual... As) {
    run(make<Fn>(As...));
  }
  void run(Closure *C);

  /// Input-size hint: pre-sizes the trace containers (memo tables, arena
  /// chunks, pending-read stack, OM node storage) for a run_core expected
  /// to perform about \p ExpectedOps traced operations (reads + writes +
  /// allocations). Purely an optimization — construction is correct with
  /// any hint including none; the hint only removes incremental grows and
  /// chunk refills from the from-scratch path.
  void reserveTrace(size_t ExpectedOps);

  /// Propagates all pending modifications (paper: `propagate`).
  void propagate();

  //===--------------------------------------------------------------===//
  // Core interface
  //===--------------------------------------------------------------===//

  /// Creates a closure for core function \p Fn with arguments \p As.
  /// The C++ template instantiation is the paper's monomorphized
  /// closure_make (Sec. 6.3).
  template <auto Fn, typename... Actual> Closure *make(Actual... As) {
    using Maker =
        detail::ClosureMaker<Fn,
                             typename CoreFnTraits<decltype(Fn)>::ArgsTuple>;
    constexpr size_t Arity = CoreFnTraits<decltype(Fn)>::Arity;
    static_assert(sizeof...(Actual) == Arity, "closure arity mismatch");
    auto *C = static_cast<Closure *>(Mem.allocate(Closure::byteSize(Arity)));
    Maker::fill(C, As...);
    return C;
  }

  /// Creates a closure with a dynamic argument list (used by the CL
  /// virtual machine, whose arities are only known at run time). The
  /// typed make<Fn> is preferable wherever signatures are static.
  Closure *makeRaw(ClosureFn Fn, const Word *Args, size_t NumArgs) {
    // Hard failure in all build types: truncating the arity would make
    // the closure silently drop arguments and corrupt memo keys.
    checkAlways(NumArgs <= UINT16_MAX,
                "closure arity exceeds the 16-bit frame limit");
    auto *C = static_cast<Closure *>(Mem.allocate(Closure::byteSize(NumArgs)));
    C->setHeader(Fn, NumArgs);
    for (size_t I = 0; I < NumArgs; ++I)
      C->args()[I] = Args[I];
    return C;
  }

  /// Traced read (paper: `modref_read`). Substitutes the modifiable's
  /// value as the closure's first argument and returns the closure for
  /// the active trampoline; returns null after a memo splice. The caller
  /// must return the result immediately (the read body is everything
  /// after it, per normalization).
  Closure *read(Modref *M, Closure *C);

  /// Sugar: read \p M and tail-jump to \p Fn whose first core parameter
  /// receives the value. `Closure *Fn(Runtime &, T0 Value, Rest...)`.
  template <auto Fn, typename... Rest>
  Closure *readTail(Modref *M, Rest... Rs) {
    return read(M, makeWithPlaceholder<Fn>(Rs...));
  }

  /// Traced write (paper: `modref_write`).
  void write(Modref *M, Word V);
  template <WordSized T> void writeT(Modref *M, T V) { write(M, toWord(V)); }

  /// Traced, memo-keyed allocation (paper: `allocate`). The block is
  /// initialized by running \p Init once (its first argument becomes the
  /// block address); a re-execution allocating with an equal key (init
  /// function, size, trailing arguments) steals the previous block.
  void *allocate(size_t Size, Closure *Init, uint8_t NodeFlags = 0);

  /// Sugar: allocate with `Closure *Fn(Runtime &, void *Block, Rest...)`.
  template <auto Fn, typename... Rest> void *alloc(size_t Size, Rest... Rs) {
    return allocate(Size, makeWithPlaceholder<Fn>(Rs...));
  }

  /// Core-level modifiable, memo-keyed by the given key words so that
  /// re-executions recover the same modifiable (and with it, the
  /// downstream trace). With no keys, modifiables are matched in
  /// allocation order.
  template <typename... Keys> Modref *coreModref(Keys... Ks) {
    void *Block =
        allocate(sizeof(Modref), makeWithPlaceholder<&modrefInit<Keys...>>(Ks...),
                 AllocNode::FlagModref);
    return static_cast<Modref *>(Block);
  }

  /// Core-level array of \p Count modifiables under one memo key; used by
  /// applications that keep per-round state tables (e.g. tree
  /// contraction). Indexable as a plain Modref array.
  template <typename... Keys>
  Modref *coreModrefArray(size_t Count, Keys... Ks) {
    assert(Count > 0 && "empty modifiable array");
    void *Block = allocate(
        Count * sizeof(Modref),
        makeWithPlaceholder<&modrefArrayInit<Keys...>>(Word(Count), Ks...),
        AllocNode::FlagModref);
    return static_cast<Modref *>(Block);
  }

  /// Core-level modifiable with a run-time-sized key (the CL VM's
  /// `modref(keys...)`); equivalent to coreModref but for dynamic keys.
  Modref *coreModrefDynamic(const Word *Keys, size_t NumKeys);

  /// Non-tail function call (paper: `closure_run`): runs \p C and the
  /// chain it unleashes on a nested trampoline, then returns.
  void call(Closure *C) { trampoline(C); }
  template <auto Fn, typename... Actual> void callFn(Actual... As) {
    call(make<Fn>(As...));
  }

  //===--------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------===//

  const Stats &stats() const { return Main.S; }
  /// Resets the runtime counters and the arena statistics together; the
  /// simulated-GC allocation mark is re-anchored at the same time so a
  /// stats reset can never leave it ahead of totalAllocatedBytes() (which
  /// would underflow the headroom test and force a collection on every
  /// allocation).
  void resetStats() {
    Main.S = Stats();
    Mem.resetStats();
    GcAllocMark = Mem.totalAllocatedBytes();
  }
  /// Propagation profiler state (phase timers, work histograms). Only
  /// populated when Config::EnableProfile is set.
  const PropagationProfile &profile() const { return Main.Prof; }
  void resetProfile() { Main.Prof.reset(); }
  Arena &arena() { return Mem; }
  size_t liveBytes() const { return Mem.liveBytes(); }
  size_t maxLiveBytes() const { return Mem.maxLiveBytes(); }
  /// True once the simulated bounded heap has been exhausted.
  bool outOfMemory() const { return Oom; }
  /// Number of trace timestamps currently live (incl. the base).
  size_t traceSize() const { return Om.size(); }
  /// The trace's order-maintenance list (timestamps, read-only).
  const OrderList &orderList() const { return Om; }
  /// Bytes currently held by tracked mutator-owned blocks (metaAlloc).
  size_t metaBytes() const { return MetaBytes; }
  const Config &config() const { return Cfg; }

  /// Per-kind live-memory accounting: walks the trace (meta phase only)
  /// and attributes every live arena byte to reads, writes, allocations,
  /// user blocks, closures, or meta blocks, alongside OM/memo-index
  /// footprints and arena occupancy. See MemoryStats in Profile.h.
  MemoryStats memoryStats() const;

  /// Runs the trace sanitizer if Config::Audit is not Off; prints all
  /// violations and aborts if any invariant fails. Must be called from
  /// the meta phase (between runCore/propagate calls).
  void auditNow(const char *Where = "checkpoint") const;

  /// True when the runtime is at a checkpointable quiescent point: meta
  /// phase, no pending invalidations, every construction-time deferral
  /// flushed. Snapshot::save (runtime/Snapshot.h) requires this and
  /// reports BadState otherwise; \p Why receives the reason on false.
  bool readyForCheckpoint(std::string *Why = nullptr) const;

private:
  friend class TraceAudit;
  /// Trace persistence (runtime/Snapshot): serializes and restores the
  /// runtime's scalar state around the arenas' same-base remap.
  friend class Snapshot;
  template <typename... Keys>
  static Closure *modrefInit(Runtime &, void *Block, Keys...) {
    new (Block) Modref();
    return nullptr;
  }

  template <typename... Keys>
  static Closure *modrefArrayInit(Runtime &, void *Block, Word Count,
                                  Keys...) {
    auto *Arr = static_cast<Modref *>(Block);
    for (Word I = 0; I < Count; ++I)
      new (Arr + I) Modref();
    return nullptr;
  }

  /// Builds a closure whose first declared parameter is a placeholder
  /// bound later through the trampoline's substitution register (the read
  /// value or the allocated block address). The placeholder has no frame
  /// slot — the frame stores only the trailing arguments, one word less
  /// than the function's arity.
  template <auto Fn, typename... Rest>
  Closure *makeWithPlaceholder(Rest... Rs) {
    using Traits = CoreFnTraits<decltype(Fn)>;
    static_assert(Traits::Arity == sizeof...(Rest) + 1,
                  "expected one placeholder parameter plus Rest");
    return makePlaceholderImpl<Fn, typename Traits::ArgsTuple>::fill(*this,
                                                                     Rs...);
  }

  template <auto Fn, typename Tuple> struct makePlaceholderImpl;
  template <auto Fn, typename T0, typename... As>
  struct makePlaceholderImpl<Fn, std::tuple<T0, As...>> {
    static Closure *fill(Runtime &RT, As... Vs) {
      auto *C = static_cast<Closure *>(
          RT.Mem.allocate(Closure::byteSize(sizeof...(As))));
      detail::SubstClosureMaker<Fn, std::tuple<T0, As...>>::fill(C, Vs...);
      return C;
    }
  };

  enum class Phase : uint8_t { Meta, Running, Propagating };

  /// A user block whose revocation is deferred to the end of propagation
  /// (memo reuse may steal the block back mid-phase).
  struct DeferredFree {
    void *Block;
    uint32_t Size;
    bool IsModref;
  };

  /// Everything the tracing and propagation entry points mutate while
  /// core code executes; the runtime's single instance is Main.
  struct ExecState {
    /// The pending substitution value for the next closure the
    /// trampoline invokes: read() parks the value seen here, allocate()
    /// the fresh block. Subst-flavor invokers (makeWithPlaceholder)
    /// consume it as their first declared parameter; plain closures
    /// ignore it.
    Word PendingSubst = 0;
    Handle<OmNode> Cursor{};
    Handle<OmNode> IntervalEnd{};
    bool SplicedFlag = false;
    std::vector<ReadNode *> PendingReads;
    /// Propagation queue (intrusive binary heap ordered by start time).
    std::vector<ReadNode *> Heap;
    std::vector<DeferredFree> DeferredFrees;
    Stats S;
    PropagationProfile Prof;
  };

  // Trace construction.
  template <typename NodeT> NodeT *newNode();
  template <typename NodeT> void destroyNode(NodeT *N);
  void freeClosure(Closure *C);
  Handle<OmNode> stampAfterCursor(OmItem Item);
  void insertUse(Modref *M, Use *U);
  void insertUseTail(Modref *M, Use *U);
  void unlinkUse(Use *U);
  Word valueGoverning(const ReadNode *R) const;
  Handle<WriteNode> writeGoverning(const Use *U) const;

  // Execution.
  bool trampoline(Closure *C);
  /// Bulk-builds the memo indexes from the inserts deferred during
  /// construction; runs before run() returns to the meta phase (audits
  /// and propagation require complete memo membership).
  void flushConstructionMemo();

  /// Trace operations performed so far, as a monotone work measure; the
  /// profiler records the delta across one re-execution as the
  /// re-executed interval's size.
  uint64_t traceWorkOps() const {
    const Stats &S = Main.S;
    return S.ReadsTraced + S.WritesTraced + S.AllocsTraced + S.NodesRevoked +
           S.MemoReadHits + S.MemoAllocHits;
  }

  // Change propagation.
  void reexecute(ReadNode *R);
  void invalidate(ReadNode *R);
  void revokeInterval(Handle<OmNode> From, Handle<OmNode> To);
  void revokeRead(ReadNode *R);
  void revokeWrite(WriteNode *W);
  void revokeAlloc(AllocNode *A);
  void flushDeferredFrees();

  // Memo indexes.
  uint64_t readMemoHash(const Modref *M, const Closure *C) const;
  uint64_t allocMemoHash(const Closure *Init, size_t Size) const;
  ReadNode *findReadMemo(const Modref *M, const Closure *C, uint64_t Hash);
  AllocNode *findAllocMemo(const Closure *Init, size_t Size, uint64_t Hash);
  bool inReuseWindow(Handle<OmNode> Start) const;

  // Propagation queue operations over Main's intrusive binary heap
  // (ordered by start time, position cached in ReadNode::HeapIndex).
  bool heapLess(const ReadNode *A, const ReadNode *B) const;
  void heapPush(ReadNode *R);
  ReadNode *heapPopMin();
  void heapRemove(ReadNode *R);
  void heapSiftUp(size_t Index);
  void heapSiftDown(size_t Index);

  // Simulated GC for the SaSML-style configuration.
  void maybeSimulateGc();

  Config Cfg;
  Arena Mem;
  OrderList Om;
  /// The maximum stamped position: where a subsequent run_core appends.
  Handle<OmNode> TraceEnd;
  Phase CurPhase = Phase::Meta;

  /// The execution state. See ExecState.
  ExecState Main;

  /// The memo indexes chain through 32-bit handles, so each table is
  /// bound to the arena that owns its nodes (Mem, declared above).
  MemoTable<ReadNode> ReadMemo{Mem};
  MemoTable<AllocNode> AllocMemo{Mem};
  /// Memo-index inserts deferred by the construction fast path; flushed
  /// (bulk-built with an up-front reserve) at the end of run().
  std::vector<ReadNode *> PendingReadMemo;
  std::vector<AllocNode *> PendingAllocMemo;

  size_t GcAllocMark = 0;
  size_t MetaBytes = 0;
  bool Oom = false;
};

} // namespace ceal

#endif // CEAL_RUNTIME_RUNTIME_H
