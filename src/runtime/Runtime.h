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

/// The run-time system. See the file comment for the programming model.
/// Contract: one thread at a time; a Runtime is never used concurrently.
class Runtime {
public:
  /// Behaviour knobs. The defaults model the paper's refined translation.
  struct Config {
    /// Simulate SaSML, the comparator of Table 2 and Fig. 14 (the SML
    /// self-adjusting library of Ley-Wild et al. under MLton). That system
    /// is not available here, so (DESIGN.md Sec. 3) the runtime models the
    /// two properties the paper attributes its behaviour to, with
    /// algorithms and results unchanged:
    ///
    ///  * constant-factor overhead from continuation allocation and boxed
    ///    values: every traced read allocates and drops the boxed
    ///    continuations of the unrefined basic translation, every trace
    ///    node carries a pad standing in for boxed values and fatter
    ///    closure records (landing Table 2's 3-5x space ratio), and every
    ///    node costs a fixed amount of interpretation work (landing its
    ///    ~6-12x from-scratch slowdown); the constants sit next to
    ///    newNode and read in Runtime.cpp;
    ///
    ///  * super-linear degradation under memory pressure, which comes
    ///    from HeapLimitBytes and applies with or without this switch.
    bool SimulateSaSml = false;
    /// If nonzero, simulate a tracing garbage collector over a heap of
    /// this many bytes: when allocation exhausts headroom, a scan
    /// proportional to the live trace runs; if the live trace itself
    /// exceeds the limit, the runtime reports out-of-memory (where the
    /// paper's Fig. 14 lines end).
    size_t HeapLimitBytes = 0;
    /// Ablation: disable the equality cut (re-execute invalidated reads
    /// even when the value they would see is unchanged, and invalidate
    /// readers on writes regardless of value). Correctness is unaffected;
    /// update times degrade (bench/ablation).
    bool DisableEqualityCut = false;
    /// Runs the trace sanitizer (TraceAudit::enforce) after every run and
    /// every propagate; a violation prints every finding and aborts,
    /// valgrind-style. Off, it costs one branch per run/propagate and
    /// nothing per traced operation.
    bool Audit = false;
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

  /// Input-size hint: pre-sizes the trace containers (memo tables,
  /// pending-read stack) for a run_core expected to perform about
  /// \p ExpectedOps traced operations (reads + writes + allocations), and
  /// checks that the arena region can hold their trace (the region is
  /// mapped whole up front, so that part is an overflow check only).
  /// Purely an optimization — construction is correct with any hint
  /// including none; the hint only removes incremental grows from the
  /// from-scratch path.
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

  /// Traced read (paper: `modref_read`). Copies the caller's closure
  /// \p C into the new read node, substitutes the modifiable's value as
  /// its first argument, and returns the node's copy for the active
  /// trampoline; returns null after a memo splice. \p C is never kept or
  /// freed: the caller may stage it anywhere and owns it afterwards. The
  /// caller must return the result immediately (the read body is
  /// everything after it, per normalization).
  Closure *read(Modref *M, const Closure *C);

  /// Sugar: read \p M and tail-jump to \p Fn whose first core parameter
  /// receives the value. `Closure *Fn(Runtime &, T0 Value, Rest...)`.
  /// The closure is staged on the C++ stack.
  template <auto Fn, typename... Rest>
  Closure *readTail(Modref *M, Rest... Rs) {
    StagedClosure<sizeof...(Rest)> K;
    stagePlaceholder<Fn>(K.get(), Rs...);
    return read(M, K.get());
  }

  /// Traced write (paper: `modref_write`).
  void write(Modref *M, Word V);
  template <WordSized T> void writeT(Modref *M, T V) { write(M, toWord(V)); }

  /// Traced, memo-keyed allocation (paper: `allocate`). The block is
  /// initialized by running \p Init once (its first argument becomes the
  /// block address); a re-execution allocating with an equal key (init
  /// function, size, trailing arguments) steals the previous block by
  /// moving its node to the cursor. Like read(), allocate() copies
  /// \p Init into the node (the block follows it there) and never keeps
  /// or frees the caller's closure.
  void *allocate(size_t Size, const Closure *Init, uint8_t NodeFlags = 0);

  /// Sugar: allocate with `Closure *Fn(Runtime &, void *Block, Rest...)`.
  template <auto Fn, typename... Rest> void *alloc(size_t Size, Rest... Rs) {
    StagedClosure<sizeof...(Rest)> Init;
    stagePlaceholder<Fn>(Init.get(), Rs...);
    return allocate(Size, Init.get());
  }

  /// Core-level modifiable, memo-keyed by the given key words so that
  /// re-executions recover the same modifiable (and with it, the
  /// downstream trace). With no keys, modifiables are matched in
  /// allocation order.
  template <typename... Keys> Modref *coreModref(Keys... Ks) {
    StagedClosure<sizeof...(Keys)> Init;
    stagePlaceholder<&modrefInit<Keys...>>(Init.get(), Ks...);
    return static_cast<Modref *>(
        allocate(sizeof(Modref), Init.get(), AllocNode::FlagModref));
  }

  /// Core-level array of \p Count modifiables under one memo key; used by
  /// applications that keep per-round state tables (e.g. tree
  /// contraction). Indexable as a plain Modref array.
  template <typename... Keys>
  Modref *coreModrefArray(size_t Count, Keys... Ks) {
    assert(Count > 0 && "empty modifiable array");
    StagedClosure<1 + sizeof...(Keys)> Init;
    stagePlaceholder<&modrefArrayInit<Keys...>>(Init.get(), Word(Count), Ks...);
    return static_cast<Modref *>(
        allocate(Count * sizeof(Modref), Init.get(), AllocNode::FlagModref));
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

  /// Frees a closure from make() or makeRaw() that was never handed to a
  /// trampoline (which frees transient closures itself), such as one
  /// passed to read() or allocate(), which only copy it.
  void freeClosure(Closure *C) { Mem.deallocate(C, C->byteSize()); }

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
  /// The trace's order-maintenance list (timestamps, read-only). Its
  /// groups and base live in arena(), like the timestamps themselves.
  const OrderList &orderList() const { return Om; }
  /// Bytes currently held by tracked mutator-owned blocks (metaAlloc).
  size_t metaBytes() const { return MetaBytes; }
  const Config &config() const { return Cfg; }
  /// Bytes every trace node carries beyond its record: the comparator's
  /// boxing pad under Config::SimulateSaSml, otherwise 0.
  size_t nodePadBytes() const { return NodePad; }

  /// Per-kind live-memory accounting: walks the trace (meta phase only)
  /// and attributes every live arena byte to reads, writes, allocations,
  /// user blocks, closures, meta blocks, the order list's groups, or the
  /// memo bucket arrays, alongside arena occupancy. See
  /// MemoryStats in Profile.h.
  MemoryStats memoryStats() const;

  /// True when the runtime is at a checkpointable quiescent point: meta
  /// phase, no pending invalidations, every construction-time deferral
  /// flushed. Snapshot::save (runtime/Snapshot.h) requires this and
  /// reports BadState otherwise; \p Why receives the reason on false.
  bool readyForCheckpoint(std::string *Why = nullptr) const;

private:
  friend class TraceAudit;
  /// Trace persistence (runtime/Snapshot): serializes and restores the
  /// runtime's scalar state around the arena's same-base remap.
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

  /// Fills the staged closure \p C (room for sizeof...(Rest) frame
  /// words) for \p Fn, whose first declared parameter is a placeholder
  /// bound later through the trampoline's substitution register (the read
  /// value or the allocated block address). The placeholder has no frame
  /// slot — the frame stores only the trailing arguments, one word less
  /// than the function's arity.
  template <auto Fn, typename... Rest>
  static void stagePlaceholder(Closure *C, Rest... Rs) {
    using Traits = CoreFnTraits<decltype(Fn)>;
    static_assert(Traits::Arity == sizeof...(Rest) + 1,
                  "expected one placeholder parameter plus Rest");
    detail::SubstClosureMaker<Fn, typename Traits::ArgsTuple>::fill(C, Rs...);
  }

  enum class Phase : uint8_t { Meta, Running, Propagating };

  /// Everything the tracing and propagation entry points mutate while
  /// core code executes; the runtime's single instance is Main.
  struct ExecState {
    /// The pending substitution value for the next closure the
    /// trampoline invokes: read() parks the value seen here, allocate()
    /// the fresh block. Subst-flavor invokers (stagePlaceholder)
    /// consume it as their first declared parameter; plain closures
    /// ignore it.
    Word PendingSubst = 0;
    OmNode *Cursor = nullptr;
    OmNode *IntervalEnd = nullptr;
    bool SplicedFlag = false;
    std::vector<ReadNode *> PendingReads;
    /// Propagation queue (intrusive binary heap ordered by start time).
    std::vector<ReadNode *> Heap;
    /// Revoked allocations whose nodes (initializer and block included)
    /// are freed when propagation ends: revokeAlloc has already taken
    /// them out of the memo index, so nothing can steal them back, but
    /// re-executions later in the same propagation may still dereference
    /// their blocks until the reads that do so are revoked or re-run.
    std::vector<AllocNode *> DeferredFrees;
    Stats S;
    PropagationProfile Prof;
  };

  // Trace construction. A node's block holds \p Extra bytes after the
  // fixed fields (a closure, and an allocation's user block), then the
  // per-node pad.
  template <typename NodeT> NodeT *newNode(size_t Extra = 0);
  size_t nodeBytes(const ReadNode *R) const {
    return ReadNode::byteSize(R->closure()->numArgs()) + NodePad;
  }
  size_t nodeBytes(const WriteNode *) const {
    return sizeof(WriteNode) + NodePad;
  }
  size_t nodeBytes(const AllocNode *A) const {
    return AllocNode::byteSize(A->init()->numArgs(), A->Size) + NodePad;
  }
  template <typename NodeT> void destroyNode(NodeT *N);
  void stampAfterCursor(OmNode *Stamp);
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
  void revokeInterval(OmNode *From, OmNode *To);
  void revokeRead(ReadNode *R);
  void revokeWrite(WriteNode *W);
  void revokeAlloc(AllocNode *A);
  void flushDeferredFrees();

  // Memo indexes.
  uint64_t readMemoHash(const Modref *M, const Closure *C) const;
  uint64_t allocMemoHash(const Closure *Init, size_t Size) const;
  ReadNode *findReadMemo(const Modref *M, const Closure *C, uint64_t Hash);
  AllocNode *findAllocMemo(const Closure *Init, size_t Size, uint64_t Hash);
  bool inReuseWindow(const OmNode *Start) const;

  // Propagation queue operations over Main's intrusive binary heap
  // (ordered by start time, position cached in ReadNode::HeapIndex).
  bool heapLess(const ReadNode *A, const ReadNode *B) const;
  void heapPush(ReadNode *R);
  ReadNode *heapPopMin();
  void heapRemove(ReadNode *R);
  void heapSiftUp(size_t Index);
  void heapSiftDown(size_t Index);

  // The SaSML comparator's costs (Config::SimulateSaSml, HeapLimitBytes).
  void simulateNodeCost();
  void simulateContinuations();
  void maybeSimulateGc();

  Config Cfg;
  /// nodePadBytes(), fixed at construction.
  size_t NodePad;
  /// The runtime's one arena: trace nodes with their timestamps,
  /// closures and user blocks, the order list's groups, transient
  /// closures, and meta blocks.
  Arena Mem;
  OrderList Om{Mem};
  /// The maximum stamped position: where a subsequent run_core appends.
  OmNode *TraceEnd;
  Phase CurPhase = Phase::Meta;

  /// The execution state. See ExecState.
  ExecState Main;

  /// The memo indexes chain through 32-bit handles, so each table is
  /// bound to the arena that owns its nodes (Mem, declared above), which
  /// also holds its bucket array.
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
