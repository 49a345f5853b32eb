//===- runtime/Runtime.cpp - Self-adjusting-computation RTS ---------------===//
//
// Change-propagation mechanics, following the paper and its substrates:
//
//  * Execution is trampolined (Sec. 6.2): core functions return the next
//    closure; a read hands its dependent closure to the trampoline, so a
//    read body is the rest of the tail-call chain — exactly the dynamic
//    extent normalization assigns to it (Sec. 5).
//
//  * Each read owns a time interval (Start, End). Change propagation
//    re-executes the earliest invalidated read inside its own interval:
//    fresh trace is created at the time cursor, and a read or allocation
//    performed during re-execution that matches an not-yet-reached node of
//    the old trace *splices*: the skipped old prefix is revoked and the
//    matched suffix is kept (memoization, Sec. 1). When re-execution
//    finishes without a match, the remainder of the old interval is
//    revoked.
//
//  * Modifiables are imperative and multi-write (Acar et al., POPL 2008):
//    per modifiable, reads and writes are kept in timestamp order, and a
//    write invalidates exactly the readers between itself and the next
//    write whose seen value actually changed.
//
//  * Blocks freed by revoked allocations are reclaimed at the end of
//    propagation (Hammer & Acar, ISMM 2008), after every read that could
//    reference them has been revoked or re-executed.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "runtime/TraceAudit.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace ceal;

Runtime::Runtime(const Config &C) : Cfg(C) {
  Main.Cursor = Om.base();
  TraceEnd = Main.Cursor;
  GcAllocMark = 0;
  Main.Prof.Enabled = Cfg.EnableProfile;
}

Runtime::~Runtime() = default; // Arena reclaims all trace storage.

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

template <typename NodeT> NodeT *Runtime::newNode() {
  // The simulation knobs are off in every real configuration; keep their
  // work (and the out-of-line GC call) behind one predictable branch.
  if (Cfg.HeapLimitBytes || Cfg.SimSpinPerNode) {
    maybeSimulateGc();
    // Comparator cost model: per-operation boxing/interpretation work.
    uint64_t X = 0x9e3779b97f4a7c15ULL;
    for (unsigned I = 0; I < Cfg.SimSpinPerNode; ++I)
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : : "r"(X));
  }
  void *Raw = Mem.allocate(sizeof(NodeT) + Cfg.BoxBytesPerNode);
  // RawInit contract: every caller stamps, links, and memo-keys the node
  // before anything inspects it (audits run only between core phases), so
  // the default constructor's zero stores would all be dead.
  return new (Raw) NodeT(TraceNode::RawInit{});
}

template <typename NodeT> void Runtime::destroyNode(NodeT *N) {
  N->~NodeT();
  Mem.deallocate(N, sizeof(NodeT) + Cfg.BoxBytesPerNode);
}

void Runtime::freeClosure(Closure *C) { Mem.deallocate(C, C->byteSize()); }

Handle<OmNode> Runtime::stampAfterCursor(OmItem Item) {
  if (Main.Prof.Enabled)
    ++Main.Prof.OmInserts;
  Main.Cursor = Om.insertAfter(Main.Cursor, Item);
  return Main.Cursor;
}

/// insertUse specialized for construction: the cursor is the global
/// timestamp maximum, so \p U always belongs at the tail of \p M's use
/// list and the order query of the general path (three dependent loads
/// through the timestamp and its group) is dead weight. Correct whenever
/// no interval is being re-executed, independent of any fast-path config.
void Runtime::insertUseTail(Modref *M, Use *U) {
  Use *T = Mem.ptr(M->Tail);
  assert((!T || Om.precedes(T->Start, U->Start)) &&
         "construction use out of timestamp order");
  Handle<Use> HU = Mem.handle(U);
  U->PrevUse = M->Tail;
  U->NextUse = Handle<Use>{};
  if (T)
    T->NextUse = HU;
  else
    M->Head = HU;
  M->Tail = HU;
  M->Hint = HU;
  if (U->Kind == TraceKind::Read)
    static_cast<ReadNode *>(U)->Gov = writeGoverning(U);
  if (Main.Prof.Enabled)
    Main.Prof.UseScan.record(0);
}

/// Inserts \p U into its modifiable's use list at the position given by
/// its timestamp. The placement scan starts from the modifiable's cursor
/// hint (the use most recently inserted) and walks toward the position in
/// either direction, so an initial run appends in O(1) and mid-interval
/// re-execution pays O(distance from the previous insertion) instead of
/// O(uses after the position). Also seeds the governing-write cache from
/// the predecessor.
void Runtime::insertUse(Modref *M, Use *U) {
  Use *T = Mem.ptr(M->Tail);
  Handle<OmNode> UStart = U->Start;
  Handle<Use> HU = Mem.handle(U);
  if (!T || Om.precedes(T->Start, UStart)) {
    // Tail append, including the first use of a fresh modifiable: no
    // placement scan, no hint to consult. This is every insertion of the
    // initial run and the overwhelmingly common case in re-execution.
    U->PrevUse = M->Tail;
    U->NextUse = Handle<Use>{};
    if (T)
      T->NextUse = HU;
    else
      M->Head = HU;
    M->Tail = HU;
    M->Hint = HU;
    if (U->Kind == TraceKind::Read)
      static_cast<ReadNode *>(U)->Gov = writeGoverning(U);
    if (Main.Prof.Enabled)
      Main.Prof.UseScan.record(0);
    return;
  }
  uint64_t Steps = 0;
  Use *After = M->Hint ? Mem.ptr(M->Hint) : T;
  // Too late: back up until the candidate precedes U.
  while (After && Om.precedes(UStart, After->Start)) {
    After = Mem.ptr(After->PrevUse);
    ++Steps;
  }
  // Too early (stale hint): advance while the successor still precedes U.
  for (;;) {
    Use *Next = After ? Mem.ptr(After->NextUse) : Mem.ptr(M->Head);
    if (!Next || Om.precedes(UStart, Next->Start))
      break;
    After = Next;
    ++Steps;
  }
  if (After) {
    U->PrevUse = Mem.handle(After);
    U->NextUse = After->NextUse;
    After->NextUse = HU;
  } else {
    U->PrevUse = Handle<Use>{};
    U->NextUse = M->Head;
    M->Head = HU;
  }
  if (U->Kind == TraceKind::Read)
    static_cast<ReadNode *>(U)->Gov = writeGoverning(U);
  if (Use *Next = Mem.ptr(U->NextUse))
    Next->PrevUse = HU;
  else
    M->Tail = HU;
  M->Hint = HU;
  Main.S.UseScanSteps += Steps;
  if (Main.Prof.Enabled)
    Main.Prof.UseScan.record(Steps);
}

void Runtime::unlinkUse(Use *U) {
  Modref *M = Mem.ptr(U->Ref);
  Handle<Use> HU = Mem.handle(U);
  if (M->Hint == HU)
    M->Hint = U->PrevUse ? U->PrevUse : U->NextUse;
  if (Use *Prev = Mem.ptr(U->PrevUse))
    Prev->NextUse = U->NextUse;
  else
    M->Head = U->NextUse;
  if (Use *Next = Mem.ptr(U->NextUse))
    Next->PrevUse = U->PrevUse;
  else
    M->Tail = U->PrevUse;
  U->PrevUse = U->NextUse = Handle<Use>{};
}

/// The value a read at this position observes: the latest preceding
/// traced write (cached on the read itself), else the modifiable's
/// meta-written initial value.
Word Runtime::valueGoverning(const ReadNode *R) const {
  if (const WriteNode *G = Mem.ptr(R->Gov))
    return G->Value;
  return Mem.ptr(R->Ref)->Initial;
}

/// The latest traced write strictly preceding U in its use list, derived
/// in O(1): the predecessor is either that write itself or a read whose
/// cache names it. Writes therefore need not store the cache.
Handle<WriteNode> Runtime::writeGoverning(const Use *U) const {
  Use *P = Mem.ptr(U->PrevUse);
  if (!P)
    return Handle<WriteNode>{};
  if (P->Kind == TraceKind::Write)
    return handle_cast<WriteNode>(U->PrevUse);
  return static_cast<ReadNode *>(P)->Gov;
}

//===----------------------------------------------------------------------===//
// Meta interface
//===----------------------------------------------------------------------===//

Modref *Runtime::modref() {
  void *Raw = metaAlloc(sizeof(Modref));
  return new (Raw) Modref();
}

void Runtime::metaFree(Modref *M) {
  assert(!M->Head && "freeing a modifiable with live traced uses");
  M->~Modref();
  metaRelease(M, sizeof(Modref));
}

void Runtime::modify(Modref *M, Word V) {
  assert(CurPhase == Phase::Meta && "modify is a mutator operation");
  M->Initial = V;
  // Readers governed by the initial value are the prefix of the use list
  // up to the first traced write.
  for (Use *U = Mem.ptr(M->Head); U && U->Kind == TraceKind::Read;
       U = Mem.ptr(U->NextUse)) {
    auto *R = static_cast<ReadNode *>(U);
    if (R->SeenValue != V || Cfg.DisableEqualityCut)
      invalidate(R);
  }
}

Word Runtime::deref(const Modref *M) const {
  assert(CurPhase == Phase::Meta && "deref is a mutator operation");
  // The latest traced write is the tail itself or the tail's cached
  // governing write; no backward walk.
  const Use *T = Mem.ptr(M->Tail);
  if (!T)
    return M->Initial;
  const WriteNode *W = T->Kind == TraceKind::Write
                           ? static_cast<const WriteNode *>(T)
                           : Mem.ptr(static_cast<const ReadNode *>(T)->Gov);
  return W ? W->Value : M->Initial;
}

void Runtime::run(Closure *C) {
  assert(CurPhase == Phase::Meta && "run_core is a mutator operation");
  CurPhase = Phase::Running;
  Main.Cursor = TraceEnd; // Append this run's trace after all previous runs.
  const bool FastPath = !Cfg.DisableConstructionFastPath;
  uint64_t Allocs0 = Main.Prof.Enabled ? Mem.allocationCount() : 0;
  if (FastPath)
    Om.beginAppend(); // Construction stamps in monotone order.
  {
    ProfileTimer T(Main.Prof, Main.Prof.RunCoreNs);
    trampoline(C);
    // The memo inserts deferred during construction must land before the
    // meta phase resumes: propagation probes the indexes, and the audits
    // check exact membership. Counted inside RunCoreNs (it is part of the
    // from-scratch cost), itemized under MemoBuildNs.
    flushConstructionMemo();
  }
  if (FastPath)
    Om.finalizeAppend();
  if (Main.Prof.Enabled) {
    ++Main.Prof.RunCoreCalls;
    Main.Prof.ArenaAllocs += Mem.allocationCount() - Allocs0;
  }
  TraceEnd = Main.Cursor;
  CurPhase = Phase::Meta;
  if (Cfg.Audit == AuditLevel::EveryPropagation)
    auditNow("after run_core");
}

void Runtime::reserveTrace(size_t ExpectedOps) {
  // Ratios measured across the bench apps: reads and allocations are each
  // roughly a third to a half of traced operations, timestamps about 1.5x
  // (two per read, one per write/alloc), and a traced operation retains
  // about 80 arena bytes under the compressed node layouts (trace node,
  // closure, user block).
  ReadMemo.reserve(ExpectedOps / 2);
  AllocMemo.reserve(ExpectedOps / 2);
  PendingReadMemo.reserve(ExpectedOps / 2);
  PendingAllocMemo.reserve(ExpectedOps / 2);
  Main.PendingReads.reserve(ExpectedOps / 2);
  Om.reserve(ExpectedOps + ExpectedOps / 2);
  constexpr size_t BytesPerOp = 80;
  constexpr size_t MaxReserve = size_t(1) << 30;
  Mem.reserve(std::min(ExpectedOps * BytesPerOp, MaxReserve));
}

void Runtime::flushConstructionMemo() {
  if (PendingReadMemo.empty() && PendingAllocMemo.empty())
    return;
  ProfileTimer T(Main.Prof, Main.Prof.MemoBuildNs);
  ReadMemo.insertBulk(PendingReadMemo.data(), PendingReadMemo.size());
  PendingReadMemo.clear();
  AllocMemo.insertBulk(PendingAllocMemo.data(), PendingAllocMemo.size());
  PendingAllocMemo.clear();
}

void Runtime::propagate() {
  assert(CurPhase == Phase::Meta && "propagate is a mutator operation");
  CurPhase = Phase::Propagating;
  ++Main.S.Propagations;
  {
    ProfileTimer Total(Main.Prof, Main.Prof.PropagateNs);
    for (;;) {
      ReadNode *R;
      {
        ProfileTimer T(Main.Prof, Main.Prof.QueueNs);
        R = heapPopMin();
      }
      if (!R)
        break;
      if (Main.Prof.Enabled)
        ++Main.Prof.QueuePops;
      if (!R->isDirty())
        continue;
      R->setDirty(false);
      reexecute(R);
    }
    flushDeferredFrees();
  }
  CurPhase = Phase::Meta;
  if (Cfg.Audit == AuditLevel::EveryPropagation)
    auditNow("after propagate");
}

void Runtime::auditNow(const char *Where) const {
  if (Cfg.Audit == AuditLevel::Off)
    return;
  TraceAudit::enforce(*this, Where);
}

MemoryStats Runtime::memoryStats() const {
  assert(CurPhase == Phase::Meta &&
         "memory accounting requires a quiescent trace");
  MemoryStats S;
  const size_t Box = Cfg.BoxBytesPerNode;
  for (const OmNode *N = Om.node(Om.next(Om.base())); N;
       N = Om.node(N->Next)) {
    ++S.Timestamps;
    OmItem Item = N->Item;
    if (!Item || isEndItem(Item))
      continue;
    const TraceNode *T = itemNode(Mem, Item);
    switch (T->Kind) {
    case TraceKind::Read: {
      const auto *R = static_cast<const ReadNode *>(T);
      ++S.Reads;
      S.ReadBytes += Arena::accountedSize(sizeof(ReadNode) + Box);
      if (const Closure *C = Mem.ptr(R->Clo))
        S.ClosureBytes += Arena::accountedSize(C->byteSize());
      break;
    }
    case TraceKind::Write:
      ++S.Writes;
      S.WriteBytes += Arena::accountedSize(sizeof(WriteNode) + Box);
      break;
    case TraceKind::Alloc: {
      const auto *A = static_cast<const AllocNode *>(T);
      ++S.Allocs;
      S.AllocBytes += Arena::accountedSize(sizeof(AllocNode) + Box);
      if (const Closure *Init = Mem.ptr(A->Init))
        S.ClosureBytes += Arena::accountedSize(Init->byteSize());
      if (A->Size)
        S.UserBlockBytes += Arena::accountedSize(A->Size);
      break;
    }
    }
  }
  S.MetaBytes = MetaBytes;
  S.OmBytes = Om.arena().liveBytes();
  S.MemoIndexBytes = ReadMemo.bucketCount() * sizeof(Handle<ReadNode>) +
                     AllocMemo.bucketCount() * sizeof(Handle<AllocNode>);
  S.ArenaLiveBytes = Mem.liveBytes();
  S.ArenaMaxLiveBytes = Mem.maxLiveBytes();
  S.ArenaBumpUsedBytes = Mem.bumpUsedBytes();
  return S;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

/// Runs the closure chain rooted at \p C. Returns true if the chain ended
/// in a memo splice (the remainder of the computation was recovered from
/// the old trace) rather than by running to completion.
///
/// Reads begun on this trampoline have their interval ends stamped here,
/// innermost (most recent) first, which produces the proper nesting
/// r1.start < r2.start < ... < r2.end < r1.end.
bool Runtime::trampoline(Closure *C) {
  size_t PendingBase = Main.PendingReads.size();
  bool DidSplice = false;
  while (C) {
    if (Main.Prof.Enabled)
      ++Main.Prof.ClosureDispatches;
    // Hand the parked substitution value (read value, block address) to
    // the closure and clear it: only the dispatch immediately after the
    // read/alloc that parked it may consume it.
    Word Sub = Main.PendingSubst;
    Main.PendingSubst = 0;
    Closure *Next = C->fn()(*this, C, Sub);
    if (!C->ownedByTrace())
      freeClosure(C);
    C = Next;
    if (Main.SplicedFlag) {
      Main.SplicedFlag = false;
      DidSplice = true;
      assert(!C && "a spliced read must be returned immediately");
      break;
    }
  }
  for (size_t I = Main.PendingReads.size(); I > PendingBase; --I) {
    ReadNode *R = Main.PendingReads[I - 1];
    R->End = stampAfterCursor(endItemOf(Mem, R));
  }
  Main.PendingReads.resize(PendingBase);
  return DidSplice;
}

Closure *Runtime::read(Modref *M, Closure *C) {
  assert(CurPhase != Phase::Meta && "read is a core operation");
  // The modifiable's header line is not touched until the use-list link,
  // ~50ns of node setup from now; start the (usually cold) fill early.
  __builtin_prefetch(M, 1);
  // SaSML-style simulation: the basic translation allocates one heap
  // continuation per tail jump; model that garbage with transient
  // allocations of a typical boxed-continuation size, so a bounded heap
  // fills at a realistic rate.
  constexpr size_t SimContinuationBytes = 256;
  for (unsigned I = 0; I < Cfg.ExtraAllocsPerRead; ++I) {
    void *Extra = Mem.allocate(SimContinuationBytes);
    Mem.deallocate(Extra, SimContinuationBytes);
  }
  // Construction (no interval being re-executed) never probes the memo
  // index, so its inserts are deferred to the bulk build at the end of
  // run(). The hash itself is still computed here, while the closure's
  // key words sit in cache (hashing at flush time was measurably slower:
  // it re-misses on every closure line).
  const bool EagerMemo = Main.IntervalEnd || Cfg.DisableConstructionFastPath;
  uint64_t Hash = readMemoHash(M, C);
  if (Main.IntervalEnd) {
    ReadNode *Hit;
    {
      ProfileTimer T(Main.Prof, Main.Prof.MemoLookupNs);
      Hit = findReadMemo(M, C, Hash);
    }
    if (Main.Prof.Enabled)
      ++Main.Prof.MemoLookups;
    if (Hit) {
      ++Main.S.MemoReadHits;
      assert(!C->ownedByTrace() && "memo-spliced closure must be transient");
      freeClosure(C);
      revokeInterval(Main.Cursor, Hit->Start);
      Main.Cursor = Hit->End;
      Main.SplicedFlag = true;
      return nullptr;
    }
  }
  ++Main.S.ReadsTraced;
  ReadNode *R = newNode<ReadNode>();
  R->Ref = Mem.handle(M);
  R->Clo = Mem.handle(C);
  C->setOwnedByTrace(true);
  R->Start = stampAfterCursor(itemOf(Mem, R));
  if (Main.IntervalEnd)
    insertUse(M, R);
  else
    insertUseTail(M, R);
  Word V = valueGoverning(R);
  R->SeenValue = V;
  // The value reaches the closure through the trampoline's substitution
  // register, not a frame slot (the frame has none for it).
  Main.PendingSubst = V;
  if (Main.Prof.Enabled)
    ++Main.Prof.MemoInserts;
  // Propagation both probes and revokes the memo index, so its inserts
  // must be immediate; construction defers them to the bulk build.
  R->Memo.Hash = static_cast<uint32_t>(Hash);
  if (EagerMemo) {
    ReadMemo.insert(R);
  } else {
    PendingReadMemo.push_back(R);
  }
  Main.PendingReads.push_back(R);
  return C;
}

void Runtime::write(Modref *M, Word V) {
  assert(CurPhase != Phase::Meta && "write is a core operation");
  __builtin_prefetch(M, 1); // See read(): cold until the use-list link.
  ++Main.S.WritesTraced;
  WriteNode *W = newNode<WriteNode>();
  W->Ref = Mem.handle(M);
  W->Value = V;
  W->Start = stampAfterCursor(itemOf(Mem, W));
  if (!M->Head) {
    // Fresh modifiable, no trace history: nothing to scan for placement,
    // no governing-write bookkeeping to derive, no readers downstream to
    // retarget or invalidate. This covers every write of the initial run
    // against a just-allocated modifiable (the common CEAL idiom: each
    // output cell is written exactly once, right after its allocation).
    W->PrevUse = W->NextUse = Handle<Use>{};
    M->Head = M->Tail = M->Hint = Mem.handle(static_cast<Use *>(W));
    if (Main.Prof.Enabled)
      Main.Prof.UseScan.record(0);
    return;
  }
  if (!Main.IntervalEnd) {
    // Construction with trace history on the modifiable (a multi-write
    // modref): still a guaranteed tail append, with no readers after it
    // to retarget.
    insertUseTail(M, W);
    return;
  }
  insertUse(M, W);
  // This write governs the readers between itself and the next write:
  // retarget their governing-write cache and invalidate those that saw a
  // different value. The first non-read successor (if any) is the next
  // write, whose previous-write pointer becomes W.
  Handle<WriteNode> HW = Mem.handle(W);
  for (Use *U = Mem.ptr(W->NextUse); U && U->Kind == TraceKind::Read;
       U = Mem.ptr(U->NextUse)) {
    auto *R = static_cast<ReadNode *>(U);
    R->Gov = HW;
    if (R->SeenValue != V || Cfg.DisableEqualityCut)
      invalidate(R);
  }
}

void *Runtime::allocate(size_t Size, Closure *Init, uint8_t NodeFlags) {
  assert(CurPhase != Phase::Meta && "allocate is a core operation");
  // Hard failure in all build types: AllocNode::Size is 32-bit, and a
  // truncated size would corrupt the deferred-free accounting.
  checkAlways(Size < UINT32_MAX,
              "traced allocation exceeds the 32-bit size limit");
  // See read(): construction defers the memo insert, not the hashing.
  const bool EagerMemo = Main.IntervalEnd || Cfg.DisableConstructionFastPath;
  uint64_t Hash = allocMemoHash(Init, Size);
  if (Main.IntervalEnd) {
    AllocNode *Hit;
    {
      ProfileTimer T(Main.Prof, Main.Prof.MemoLookupNs);
      Hit = findAllocMemo(Init, Size, Hash);
    }
    if (Main.Prof.Enabled)
      ++Main.Prof.MemoLookups;
    if (Hit) {
      ++Main.S.MemoAllocHits;
      Handle<void> BlockH = Hit->Block;
      void *Block = Mem.ptr(BlockH);
      uint8_t Flags = Hit->Flags;
      // Steal the block: consume the old node and re-trace the
      // allocation at the cursor. The initializer is not re-run — by the
      // correct-usage restrictions (Sec. 4.2) the block was only
      // side-effected by an initializer that is a function of the key.
      AllocMemo.remove(Hit);
      Om.remove(Hit->Start);
      freeClosure(Mem.ptr(Hit->Init));
      destroyNode(Hit);
      AllocNode *A = newNode<AllocNode>();
      A->Flags = Flags;
      A->Block = BlockH;
      A->Size = static_cast<uint32_t>(Size);
      A->Init = Mem.handle(Init);
      Init->setOwnedByTrace(true);
      A->Start = stampAfterCursor(itemOf(Mem, A));
      A->Memo.Hash = static_cast<uint32_t>(Hash);
      if (Main.Prof.Enabled)
        ++Main.Prof.MemoInserts;
      AllocMemo.insert(A);
      return Block;
    }
  }
  ++Main.S.AllocsTraced;
  void *Block = Mem.allocate(Size);
  AllocNode *A = newNode<AllocNode>();
  A->Flags = NodeFlags;
  A->Block = Mem.handle(Block);
  A->Size = static_cast<uint32_t>(Size);
  A->Init = Mem.handle(Init);
  Init->setOwnedByTrace(true);
  A->Start = stampAfterCursor(itemOf(Mem, A));
  if (Main.Prof.Enabled)
    ++Main.Prof.MemoInserts;
  A->Memo.Hash = static_cast<uint32_t>(Hash);
  if (EagerMemo) {
    AllocMemo.insert(A);
  } else {
    PendingAllocMemo.push_back(A);
  }
  // Run the initializer now; it may not read or write modifiables
  // (correct-usage restriction 2), so it cannot splice or extend traces.
  // The block address travels in the substitution register.
  Closure *Result = Init->fn()(*this, Init, toWord(Block));
  assert(!Result && "initializers must not continue a tail-call chain");
  (void)Result;
  return Block;
}

/// Initializer for dynamically keyed modifiables: the block address
/// arrives in the substitution register; the frame slots are memo-key
/// words it ignores.
static Closure *modrefInitDynamic(Runtime &, Closure *, Word Block) {
  new (fromWord<void *>(Block)) Modref();
  return nullptr;
}

Modref *Runtime::coreModrefDynamic(const Word *Keys, size_t NumKeys) {
  // Hot path of every VM-executed `modref(keys...)`: build the
  // initializer closure in place instead of staging the key words through
  // a heap-allocated frame (the arena closure is needed either way, so
  // this is the minimum — one arena block, no transient allocation).
  checkAlways(NumKeys <= UINT16_MAX,
              "closure arity exceeds the 16-bit frame limit");
  auto *Init = static_cast<Closure *>(Mem.allocate(Closure::byteSize(NumKeys)));
  Init->setHeader(&modrefInitDynamic, NumKeys);
  for (size_t I = 0; I < NumKeys; ++I)
    Init->args()[I] = Keys[I];
  void *Block = allocate(sizeof(Modref), Init, AllocNode::FlagModref);
  return static_cast<Modref *>(Block);
}

//===----------------------------------------------------------------------===//
// Change propagation
//===----------------------------------------------------------------------===//

void Runtime::invalidate(ReadNode *R) {
  if (R->isDirty())
    return;
  R->setDirty(true);
  heapPush(R);
}

void Runtime::reexecute(ReadNode *R) {
  Word V = valueGoverning(R);
  if (V == R->SeenValue && !Cfg.DisableEqualityCut) {
    // The modification history restored the value this read saw; its
    // trace is still consistent.
    ++Main.S.ReadsSkippedClean;
    return;
  }
  R->SeenValue = V;
  ++Main.S.ReadsReexecuted;
  // Re-executed interval size, measured as the trace operations the
  // re-execution performs (nodes traced, revoked, or memo-spliced).
  bool ProfOn = Main.Prof.Enabled;
  uint64_t Work0 = ProfOn ? traceWorkOps() : 0;
  if (ProfOn)
    ++Main.Prof.ReexecCalls;
  {
    ProfileTimer T(Main.Prof, Main.Prof.ReexecNs);
    Main.PendingSubst = V; // Consumed by the first trampoline dispatch below.
    Main.Cursor = R->Start;
    Handle<OmNode> End = R->End;
    Main.IntervalEnd = End;
    bool Spliced = trampoline(Mem.ptr(R->Clo));
    if (!Spliced)
      revokeInterval(Main.Cursor, End);
    Main.IntervalEnd = Handle<OmNode>{};
  }
  if (ProfOn)
    Main.Prof.ReexecWork.record(traceWorkOps() - Work0);
}

/// Revokes every old trace node strictly between \p From and \p To.
/// Read nodes remove both their start and end timestamps; end markers
/// encountered directly belong to reads whose start lies in the interval
/// as well and are handled when the start is visited.
void Runtime::revokeInterval(Handle<OmNode> From, Handle<OmNode> To) {
  ProfileTimer T(Main.Prof, Main.Prof.RevokeNs);
  if (Main.Prof.Enabled)
    ++Main.Prof.RevokeCalls;
  Handle<OmNode> N = Om.next(From);
  while (N && N != To) {
    const OmNode *NN = Om.node(N);
    OmItem Item = NN->Item;
    Handle<OmNode> Next = NN->Next;
    if (isEndItem(Item)) {
      // Skipped: removed together with its read's start. A read whose
      // start precedes the interval cannot end inside it (intervals
      // nest), so the owning read is always revoked by this same walk.
      N = Next;
      continue;
    }
    TraceNode *T = itemNode(Mem, Item);
    switch (T->Kind) {
    case TraceKind::Read: {
      auto *R = static_cast<ReadNode *>(T);
      // The read's end node is ahead of us and about to be deleted; if it
      // is the immediate successor, step over it.
      if (R->End == Next)
        Next = Om.next(Next);
      revokeRead(R);
      break;
    }
    case TraceKind::Write:
      revokeWrite(static_cast<WriteNode *>(T));
      break;
    case TraceKind::Alloc:
      revokeAlloc(static_cast<AllocNode *>(T));
      break;
    }
    N = Next;
  }
}

void Runtime::revokeRead(ReadNode *R) {
  ++Main.S.NodesRevoked;
  if (R->HeapIndex >= 0)
    heapRemove(R);
  ReadMemo.remove(R);
  unlinkUse(R);
  Om.remove(R->Start);
  assert(R->End && "revoking a read whose interval is still open");
  Om.remove(R->End);
  freeClosure(Mem.ptr(R->Clo));
  destroyNode(R);
}

void Runtime::revokeWrite(WriteNode *W) {
  ++Main.S.NodesRevoked;
  Modref *M = Mem.ptr(W->Ref);
  // Readers this write governed fall back to the previous write (or the
  // initial value); invalidate those that saw something different.
  Handle<WriteNode> PrevH = writeGoverning(W);
  WriteNode *Prev = Mem.ptr(PrevH);
  Word PrevValue = Prev ? Prev->Value : M->Initial;
  for (Use *U = Mem.ptr(W->NextUse); U && U->Kind == TraceKind::Read;
       U = Mem.ptr(U->NextUse)) {
    auto *R = static_cast<ReadNode *>(U);
    // Retarget the governing-write cache to the write this one shadowed.
    R->Gov = PrevH;
    if (R->SeenValue != PrevValue || Cfg.DisableEqualityCut)
      invalidate(R);
  }
  unlinkUse(W);
  Om.remove(W->Start);
  destroyNode(W);
}

void Runtime::revokeAlloc(AllocNode *A) {
  ++Main.S.NodesRevoked;
  AllocMemo.remove(A);
  Om.remove(A->Start);
  freeClosure(Mem.ptr(A->Init));
  Main.DeferredFrees.push_back({Mem.ptr(A->Block), A->Size, A->isModrefBlock()});
  destroyNode(A);
}

void Runtime::flushDeferredFrees() {
  for (const DeferredFree &F : Main.DeferredFrees) {
    if (F.IsModref) {
      // The block is an array of modifiables (coreModref allocates an
      // array of one). By this point every use must have been revoked or
      // re-targeted; a live use means the core program violated the
      // correct-usage restrictions, in which case we leak rather than
      // dangle.
      auto *Arr = static_cast<Modref *>(F.Block);
      size_t Count = F.Size / sizeof(Modref);
      bool AnyLive = false;
      for (size_t I = 0; I < Count; ++I) {
        assert(!Arr[I].Head &&
               "collected modifiable still has live uses; core program "
               "violates the correct-usage restrictions");
        AnyLive |= static_cast<bool>(Arr[I].Head);
      }
      if (AnyLive)
        continue;
      for (size_t I = 0; I < Count; ++I)
        Arr[I].~Modref();
    }
    Mem.deallocate(F.Block, F.Size);
  }
  Main.DeferredFrees.clear();
}

//===----------------------------------------------------------------------===//
// Memo indexes
//===----------------------------------------------------------------------===//

uint64_t Runtime::readMemoHash(const Modref *M, const Closure *C) const {
  // identityBits covers the code pointer and the arity; the frame holds
  // only key words (the pending value has no slot), so every stored
  // argument participates.
  uint64_t H = hashMixWord(0x51ab5eed, C->identityBits());
  H = hashMixWord(H, reinterpret_cast<uintptr_t>(M));
  for (size_t I = 0, N = C->numArgs(); I < N; ++I)
    H = hashMixWord(H, C->args()[I]);
  return H;
}

uint64_t Runtime::allocMemoHash(const Closure *Init, size_t Size) const {
  uint64_t H = hashMixWord(0xa110c5eed, Init->identityBits());
  H = hashMixWord(H, Size);
  for (size_t I = 0, N = Init->numArgs(); I < N; ++I)
    H = hashMixWord(H, Init->args()[I]);
  return H;
}

/// True if an old trace node starting at \p Start may be reused: it must
/// lie strictly between the cursor and the end of the interval being
/// re-executed.
bool Runtime::inReuseWindow(Handle<OmNode> Start) const {
  return Om.precedes(Main.Cursor, Start) &&
         Om.precedes(Start, Main.IntervalEnd);
}

static bool sameTrailingArgs(const Closure *A, const Closure *B) {
  if (A->identityBits() != B->identityBits())
    return false;
  for (size_t I = 0, N = A->numArgs(); I < N; ++I)
    if (A->args()[I] != B->args()[I])
      return false;
  return true;
}

ReadNode *Runtime::findReadMemo(const Modref *M, const Closure *C,
                                uint64_t Hash) {
  const uint32_t H32 = static_cast<uint32_t>(Hash);
  ReadNode *Best = nullptr;
  for (ReadNode *N = ReadMemo.chainHead(Hash); N; N = ReadMemo.next(N)) {
    if (N->Memo.Hash != H32 || Mem.ptr(N->Ref) != M ||
        !sameTrailingArgs(Mem.ptr(N->Clo), C))
      continue;
    if (!inReuseWindow(N->Start))
      continue;
    if (!Best || Om.precedes(N->Start, Best->Start))
      Best = N;
  }
  return Best;
}

AllocNode *Runtime::findAllocMemo(const Closure *Init, size_t Size,
                                  uint64_t Hash) {
  const uint32_t H32 = static_cast<uint32_t>(Hash);
  AllocNode *Best = nullptr;
  for (AllocNode *N = AllocMemo.chainHead(Hash); N; N = AllocMemo.next(N)) {
    if (N->Memo.Hash != H32 || N->Size != Size ||
        !sameTrailingArgs(Mem.ptr(N->Init), Init))
      continue;
    if (!inReuseWindow(N->Start))
      continue;
    if (!Best || Om.precedes(N->Start, Best->Start))
      Best = N;
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// Propagation queue: intrusive binary heap ordered by start timestamp
//===----------------------------------------------------------------------===//

bool Runtime::heapLess(const ReadNode *A, const ReadNode *B) const {
  return Om.precedes(A->Start, B->Start);
}

void Runtime::heapPush(ReadNode *R) {
  assert(R->HeapIndex < 0 && "node already queued");
  R->HeapIndex = static_cast<int32_t>(Main.Heap.size());
  Main.Heap.push_back(R);
  heapSiftUp(Main.Heap.size() - 1);
}

ReadNode *Runtime::heapPopMin() {
  if (Main.Heap.empty())
    return nullptr;
  ReadNode *Min = Main.Heap.front();
  Min->HeapIndex = -1;
  ReadNode *Last = Main.Heap.back();
  Main.Heap.pop_back();
  if (!Main.Heap.empty()) {
    Main.Heap[0] = Last;
    Last->HeapIndex = 0;
    heapSiftDown(0);
  }
  return Min;
}

void Runtime::heapRemove(ReadNode *R) {
  size_t Index = static_cast<size_t>(R->HeapIndex);
  assert(Index < Main.Heap.size() && Main.Heap[Index] == R && "heap index corrupt");
  R->HeapIndex = -1;
  ReadNode *Last = Main.Heap.back();
  Main.Heap.pop_back();
  if (Last == R)
    return;
  Main.Heap[Index] = Last;
  Last->HeapIndex = static_cast<int32_t>(Index);
  heapSiftDown(Index);
  heapSiftUp(static_cast<size_t>(Last->HeapIndex));
}

void Runtime::heapSiftUp(size_t Index) {
  while (Index > 0) {
    size_t Parent = (Index - 1) / 2;
    if (!heapLess(Main.Heap[Index], Main.Heap[Parent]))
      break;
    std::swap(Main.Heap[Index], Main.Heap[Parent]);
    Main.Heap[Index]->HeapIndex = static_cast<int32_t>(Index);
    Main.Heap[Parent]->HeapIndex = static_cast<int32_t>(Parent);
    Index = Parent;
  }
}

void Runtime::heapSiftDown(size_t Index) {
  for (;;) {
    size_t Left = Index * 2 + 1;
    if (Left >= Main.Heap.size())
      return;
    size_t Small = Left;
    size_t Right = Left + 1;
    if (Right < Main.Heap.size() && heapLess(Main.Heap[Right], Main.Heap[Left]))
      Small = Right;
    if (!heapLess(Main.Heap[Small], Main.Heap[Index]))
      return;
    std::swap(Main.Heap[Index], Main.Heap[Small]);
    Main.Heap[Index]->HeapIndex = static_cast<int32_t>(Index);
    Main.Heap[Small]->HeapIndex = static_cast<int32_t>(Small);
    Index = Small;
  }
}

//===----------------------------------------------------------------------===//
// Simulated tracing GC (SaSML-style configuration only)
//===----------------------------------------------------------------------===//

void Runtime::maybeSimulateGc() {
  if (Cfg.HeapLimitBytes == 0)
    return;
  size_t Live = Mem.liveBytes();
  if (Live >= Cfg.HeapLimitBytes) {
    Oom = true;
    return;
  }
  // A collection runs whenever allocation has consumed the free space —
  // which shrinks as the live trace approaches the limit, so collections
  // grow more frequent super-linearly under memory pressure.
  size_t Headroom = std::max<size_t>(Cfg.HeapLimitBytes - Live, 1 << 14);
  size_t Total = Mem.totalAllocatedBytes();
  // Defensive re-anchor: if the mark is ahead of the cumulative counter
  // (an arena stats reset without a matching mark reset), the subtraction
  // below would wrap and force a collection on every allocation.
  if (Total < GcAllocMark)
    GcAllocMark = Total;
  if (Total - GcAllocMark < Headroom)
    return;
  // "Collect": a tracing collector's cost is proportional to the live
  // data; walk every live timestamp and touch the trace object it marks
  // (the pointer chase is what makes real collections expensive).
  ++Main.S.GcScans;
  uint64_t Sink = 0;
  for (const OmNode *N = Om.node(Om.base()); N; N = Om.node(N->Next)) {
    Sink += N->Label;
    if (N->Item && !isEndItem(N->Item))
      Sink += itemNode(Mem, N->Item)->Flags;
  }
  asm volatile("" : : "r"(Sink) : "memory");
  GcAllocMark = Mem.totalAllocatedBytes();
}
