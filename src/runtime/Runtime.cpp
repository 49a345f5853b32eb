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
//    reference them has been revoked or re-executed. Each block lives in
//    its allocation's trace node, so the whole node waits.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "runtime/TraceAudit.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

using namespace ceal;

//===----------------------------------------------------------------------===//
// The SaSML comparator's calibration (Config::SimulateSaSml)
//===----------------------------------------------------------------------===//

namespace {
/// Boxed continuations allocated and dropped per traced read: in
/// normalized code tail jumps and reads are in proportion, so the basic
/// translation's heap closure per tail jump is charged at the read.
constexpr unsigned SimContinuationsPerRead = 6;
/// A typical boxed continuation's size.
constexpr size_t SimContinuationBytes = 256;
/// Pad per trace node for boxed values and fatter closure records: trace
/// nodes here are 40-72 bytes plus, for reads and allocations, the
/// closure (and block) stored in them, and this lands the space ratio in
/// Table 2's 3-5x band.
constexpr size_t SimNodePadBytes = 288;
/// Interpretation/boxing work per trace node, calibrated so from-scratch
/// runs land ~6-12x slower than the CEAL runtime (Table 2's band).
constexpr unsigned SimWorkPerNode = 1500;
} // namespace

Runtime::Runtime(const Config &C)
    : Cfg(C), NodePad(C.SimulateSaSml ? SimNodePadBytes : 0) {
  Main.Cursor = Om.base();
  TraceEnd = Main.Cursor;
  GcAllocMark = 0;
  Main.Prof.Enabled = Cfg.EnableProfile;
}

Runtime::~Runtime() = default; // Arena reclaims all trace storage.

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

template <typename NodeT> NodeT *Runtime::newNode(size_t Extra) {
  // The comparator's costs are off in every real configuration; keep their
  // work behind one predictable branch.
  if (Cfg.HeapLimitBytes || Cfg.SimulateSaSml)
    simulateNodeCost();
  void *Raw = Mem.allocate(sizeof(NodeT) + Extra + NodePad);
  // RawInit contract: every caller stamps, links, and memo-keys the node
  // before anything inspects it (audits run only between core phases), so
  // the default constructor's zero stores would all be dead.
  return new (Raw) NodeT(TraceNode::RawInit{});
}

template <typename NodeT> void Runtime::destroyNode(NodeT *N) {
  const size_t Bytes = nodeBytes(N);
  N->~NodeT();
  Mem.deallocate(N, Bytes);
}

/// Copies the caller-staged closure \p From into its trace node's slot
/// \p To and marks the copy trace-owned, so the trampoline keeps it.
static void adoptClosure(Closure *To, const Closure *From) {
  std::memcpy(To, From, From->byteSize());
  To->setOwnedByTrace(true);
}

void Runtime::stampAfterCursor(OmNode *Stamp) {
  if (Main.Prof.Enabled)
    ++Main.Prof.OmInserts;
  Om.insertAfter(Main.Cursor, Stamp);
  Main.Cursor = Stamp;
}

/// insertUse specialized for construction: the cursor is the global
/// timestamp maximum, so \p U always belongs at the tail of \p M's use
/// list and the order query of the general path (the tail node and the
/// two groups) is dead weight. Correct whenever no interval is being
/// re-executed, independent of any fast-path config.
void Runtime::insertUseTail(Modref *M, Use *U) {
  Use *T = Mem.ptr(M->Tail);
  assert((!T || Om.precedes(T, U)) &&
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
  Handle<Use> HU = Mem.handle(U);
  if (!T || Om.precedes(T, U)) {
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
  while (After && Om.precedes(U, After)) {
    After = Mem.ptr(After->PrevUse);
    ++Steps;
  }
  // Too early (stale hint): advance while the successor still precedes U.
  for (;;) {
    Use *Next = After ? Mem.ptr(After->NextUse) : Mem.ptr(M->Head);
    if (!Next || Om.precedes(U, Next))
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
  uint64_t Allocs0 = Main.Prof.Enabled ? Mem.allocationCount() : 0;
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
  Om.finalizeAppend();
  if (Main.Prof.Enabled) {
    ++Main.Prof.RunCoreCalls;
    Main.Prof.ArenaAllocs += Mem.allocationCount() - Allocs0;
  }
  TraceEnd = Main.Cursor;
  CurPhase = Phase::Meta;
  if (Cfg.Audit)
    TraceAudit::enforce(*this, "after run_core");
}

void Runtime::reserveTrace(size_t ExpectedOps) {
  // Ratios measured across the bench apps: reads and allocations are each
  // roughly a third to a half of traced operations, and a traced operation
  // retains about 100 arena bytes under the compressed node layouts
  // (trace node with its embedded timestamps, closure and user block, and
  // a share of an order-list group).
  ReadMemo.reserve(ExpectedOps / 2);
  AllocMemo.reserve(ExpectedOps / 2);
  PendingReadMemo.reserve(ExpectedOps / 2);
  PendingAllocMemo.reserve(ExpectedOps / 2);
  Main.PendingReads.reserve(ExpectedOps / 2);
  constexpr size_t BytesPerOp = 100;
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
  if (Cfg.Audit)
    TraceAudit::enforce(*this, "after propagate");
}

MemoryStats Runtime::memoryStats() const {
  assert(CurPhase == Phase::Meta &&
         "memory accounting requires a quiescent trace");
  MemoryStats S;
  for (const OmNode *N = Om.next(Om.base()); N; N = Om.next(N)) {
    ++S.Timestamps;
    switch (N->Kind) {
    case TraceKind::Base:
    case TraceKind::End: // Counted with its read.
      break;
    case TraceKind::Read: {
      // One block per node: the fixed part (with the pad) counts as the
      // read, the closure inside it as closure bytes.
      const auto *R = static_cast<const ReadNode *>(N);
      ++S.Reads;
      S.ReadBytes += sizeof(ReadNode) + NodePad;
      S.ClosureBytes += R->closure()->byteSize();
      break;
    }
    case TraceKind::Write:
      ++S.Writes;
      S.WriteBytes += Arena::accountedSize(sizeof(WriteNode) + NodePad);
      break;
    case TraceKind::Alloc: {
      // Fixed part and pad, initializer, block: the block's grain
      // rounding is the only rounding the node's arena block has.
      const auto *A = static_cast<const AllocNode *>(N);
      ++S.Allocs;
      S.AllocBytes += sizeof(AllocNode) + NodePad;
      S.ClosureBytes += A->init()->byteSize();
      S.UserBlockBytes += Arena::accountedSize(A->Size);
      break;
    }
    }
  }
  S.MetaBytes = MetaBytes;
  S.OmGroupBytes = Om.ownBytes();
  S.MemoBucketBytes = ReadMemo.bucketBytes() + AllocMemo.bucketBytes();
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
  for (size_t I = Main.PendingReads.size(); I > PendingBase; --I)
    stampAfterCursor(&Main.PendingReads[I - 1]->End);
  Main.PendingReads.resize(PendingBase);
  return DidSplice;
}

Closure *Runtime::read(Modref *M, const Closure *C) {
  assert(CurPhase != Phase::Meta && "read is a core operation");
  // The modifiable's header line is not touched until the use-list link,
  // ~50ns of node setup from now; start the (usually cold) fill early.
  __builtin_prefetch(M, 1);
  if (Cfg.SimulateSaSml)
    simulateContinuations();
  // Construction (no interval being re-executed) never probes the memo
  // index, so its inserts are deferred to the bulk build at the end of
  // run(). The hash itself is still computed here, while the closure's
  // key words sit in cache (hashing at flush time was measurably slower:
  // it re-misses on every closure line).
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
      revokeInterval(Main.Cursor, Hit);
      Main.Cursor = &Hit->End;
      Main.SplicedFlag = true;
      return nullptr;
    }
  }
  ++Main.S.ReadsTraced;
  ReadNode *R = newNode<ReadNode>(C->byteSize());
  R->Ref = Mem.handle(M);
  adoptClosure(R->closure(), C);
  stampAfterCursor(R);
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
  if (Main.IntervalEnd) {
    ReadMemo.insert(R);
  } else {
    PendingReadMemo.push_back(R);
  }
  Main.PendingReads.push_back(R);
  return R->closure();
}

void Runtime::write(Modref *M, Word V) {
  assert(CurPhase != Phase::Meta && "write is a core operation");
  __builtin_prefetch(M, 1); // See read(): cold until the use-list link.
  ++Main.S.WritesTraced;
  WriteNode *W = newNode<WriteNode>();
  W->Ref = Mem.handle(M);
  W->Value = V;
  stampAfterCursor(W);
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

void *Runtime::allocate(size_t Size, const Closure *Init, uint8_t NodeFlags) {
  assert(CurPhase != Phase::Meta && "allocate is a core operation");
  // Hard failure in all build types: AllocNode::Size is 32-bit, and a
  // truncated size would corrupt the deferred-free accounting.
  checkAlways(Size < UINT32_MAX,
              "traced allocation exceeds the 32-bit size limit");
  // See read(): construction defers the memo insert, not the hashing.
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
      // Steal the block: move its node, initializer and block included, to
      // the cursor. Its memo key equals this allocation's, so it keeps
      // its place in the memo index. The initializer is not re-run — by
      // the correct-usage restrictions (Sec. 4.2) the block was only
      // side-effected by an initializer that is a function of the key.
      Om.remove(Hit);
      stampAfterCursor(Hit);
      return Hit->block();
    }
  }
  ++Main.S.AllocsTraced;
  AllocNode *A = newNode<AllocNode>(Init->byteSize() + Size);
  A->Flags = NodeFlags;
  A->Size = static_cast<uint32_t>(Size);
  Closure *Own = A->init();
  adoptClosure(Own, Init);
  void *Block = A->block();
  stampAfterCursor(A);
  if (Main.Prof.Enabled)
    ++Main.Prof.MemoInserts;
  A->Memo.Hash = static_cast<uint32_t>(Hash);
  if (Main.IntervalEnd) {
    AllocMemo.insert(A);
  } else {
    PendingAllocMemo.push_back(A);
  }
  // Run the initializer now; it may not read or write modifiables
  // (correct-usage restriction 2), so it cannot splice or extend traces.
  // The block address travels in the substitution register.
  Closure *Result = Own->fn()(*this, Own, toWord(Block));
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
  // Hot path of every VM-executed `modref(keys...)`: stage the
  // initializer on the C++ stack (on the heap only past a key count no
  // sample program reaches); allocate() copies it into the node.
  checkAlways(NumKeys <= UINT16_MAX,
              "closure arity exceeds the 16-bit frame limit");
  constexpr size_t InlineKeys = 15;
  StagedClosure<InlineKeys> Staged;
  std::vector<Word> Spill;
  Closure *Init = Staged.get();
  if (NumKeys > InlineKeys) {
    Spill.resize(1 + NumKeys);
    Init = reinterpret_cast<Closure *>(Spill.data());
  }
  Init->FnBits = Closure::headerBits(&modrefInitDynamic, NumKeys);
  std::copy(Keys, Keys + NumKeys, Init->args());
  return static_cast<Modref *>(
      allocate(sizeof(Modref), Init, AllocNode::FlagModref));
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
    Main.Cursor = R;
    Main.IntervalEnd = &R->End;
    bool Spliced = trampoline(R->closure());
    if (!Spliced)
      revokeInterval(Main.Cursor, &R->End);
    Main.IntervalEnd = nullptr;
  }
  if (ProfOn)
    Main.Prof.ReexecWork.record(traceWorkOps() - Work0);
}

/// Revokes every old trace node strictly between \p From and \p To.
/// Each timestamp is its trace node, so the walk dispatches on the
/// stamp's own kind bits. Read nodes remove both their start and end
/// timestamps; end timestamps encountered directly belong to reads whose
/// start lies in the interval as well and are handled when the start is
/// visited.
void Runtime::revokeInterval(OmNode *From, OmNode *To) {
  ProfileTimer T(Main.Prof, Main.Prof.RevokeNs);
  if (Main.Prof.Enabled)
    ++Main.Prof.RevokeCalls;
  OmNode *N = Om.next(From);
  while (N && N != To) {
    OmNode *Next = Om.next(N);
    switch (N->Kind) {
    case TraceKind::Base:
    case TraceKind::End:
      // Skipped: removed together with its read's start. A read whose
      // start precedes the interval cannot end inside it (intervals
      // nest), so the owning read is always revoked by this same walk.
      break;
    case TraceKind::Read: {
      auto *R = static_cast<ReadNode *>(N);
      // The read's end stamp is ahead of us and about to be unlinked; if
      // it is the immediate successor, step over it.
      if (Next == &R->End)
        Next = Om.next(Next);
      revokeRead(R);
      break;
    }
    case TraceKind::Write:
      revokeWrite(static_cast<WriteNode *>(N));
      break;
    case TraceKind::Alloc:
      revokeAlloc(static_cast<AllocNode *>(N));
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
  // Both stamps and the closure are inside R: unlink the stamps, then
  // free the node once.
  Om.remove(R);
  Om.remove(&R->End);
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
  Om.remove(W);
  destroyNode(W);
}

void Runtime::revokeAlloc(AllocNode *A) {
  ++Main.S.NodesRevoked;
  AllocMemo.remove(A);
  Om.remove(A);
  // Out of the memo index, so no re-execution can steal it back; its
  // block may still be dereferenced until this propagation ends.
  Main.DeferredFrees.push_back(A);
}

void Runtime::flushDeferredFrees() {
  for (AllocNode *A : Main.DeferredFrees) {
    if (A->isModrefBlock()) {
      // The block is an array of modifiables (coreModref allocates an
      // array of one). By this point every use must have been revoked or
      // re-targeted; a live use means the core program violated the
      // correct-usage restrictions, in which case we leak rather than
      // dangle.
      auto *Arr = static_cast<Modref *>(A->block());
      size_t Count = A->Size / sizeof(Modref);
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
    destroyNode(A);
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
bool Runtime::inReuseWindow(const OmNode *Start) const {
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
        !sameTrailingArgs(N->closure(), C))
      continue;
    if (!inReuseWindow(N))
      continue;
    if (!Best || Om.precedes(N, Best))
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
        !sameTrailingArgs(N->init(), Init))
      continue;
    if (!inReuseWindow(N))
      continue;
    if (!Best || Om.precedes(N, Best))
      Best = N;
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// Propagation queue: intrusive binary heap ordered by start timestamp
//===----------------------------------------------------------------------===//

bool Runtime::heapLess(const ReadNode *A, const ReadNode *B) const {
  return Om.precedes(A, B);
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
// The comparator's costs: per-node work and boxed continuations
// (Config::SimulateSaSml), and the simulated tracing GC (HeapLimitBytes)
//===----------------------------------------------------------------------===//

/// Per-node interpretation/boxing work, after the collector's turn.
void Runtime::simulateNodeCost() {
  maybeSimulateGc();
  if (!Cfg.SimulateSaSml)
    return;
  uint64_t X = 0x9e3779b97f4a7c15ULL;
  for (unsigned I = 0; I < SimWorkPerNode; ++I)
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
  asm volatile("" : : "r"(X));
}

/// The basic translation's heap continuation per tail jump, modelled as
/// transient garbage so a bounded heap fills at a realistic rate.
void Runtime::simulateContinuations() {
  for (unsigned I = 0; I < SimContinuationsPerRead; ++I) {
    void *Extra = Mem.allocate(SimContinuationBytes);
    Mem.deallocate(Extra, SimContinuationBytes);
  }
}

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
  // data; walk every live timestamp, each of which is (or sits inside)
  // the trace object it marks, and touch it (the pointer chase is what
  // makes real collections expensive).
  ++Main.S.GcScans;
  uint64_t Sink = 0;
  for (const OmNode *N = Om.base(); N; N = Om.next(N))
    Sink += N->Label + N->Flags;
  asm volatile("" : : "r"(Sink) : "memory");
  GcAllocMark = Mem.totalAllocatedBytes();
}
