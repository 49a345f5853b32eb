//===- runtime/TraceAudit.cpp - Trace sanitizer ---------------------------===//
//
// The audit walks the runtime's state in five passes:
//
//   1. order structure   (groups, labels, links, two-level agreement)
//   2. trace walk        (payload back-pointers, interval nesting,
//                         closure ownership, per-node byte accounting)
//   3. use-lists + heap  (per-modifiable ordering, equality-cut
//                         soundness, dirty/queue agreement)
//   4. memo indexes      (chain shape, hash placement, exact membership)
//   5. arena             (trace-reachable + tracked meta bytes ==
//                         liveBytes)
//
// Every check records a violation string instead of asserting, so one
// corrupted structure produces a full report rather than a lone abort;
// enforce() turns a non-empty report into a banner + abort.
//
//===----------------------------------------------------------------------===//

#include "runtime/TraceAudit.h"

#include "runtime/Runtime.h"
#include "support/simd/Simd.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace ceal;

namespace {

/// Cap on recorded violations; a badly corrupted trace would otherwise
/// produce a report proportional to its size.
constexpr size_t MaxViolations = 64;

std::string formatv(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string S(Len > 0 ? static_cast<size_t>(Len) : 0, '\0');
  if (Len > 0)
    std::vsnprintf(S.data(), S.size() + 1, Fmt, Args);
  return S;
}

/// Batches memo-hash recomputation through the 32-lane hash sweep (the
/// cloned checksum loop). Both auditors re-derive every chained entry's
/// hash from its key — per-entry that is a serial mix chain, so the
/// audit's dominant cost on big traces is multiply latency. Entries are
/// instead grouped by key-word count; each full group of simd::HashLanes
/// keys is verified in one simd::hashBatch call over a lane-major
/// transpose, and sub-group leftovers take the serial mixer (the same
/// function, one lane at a time). Mismatches are collected rather than
/// reported inline — callers drain bad() after finish().
template <typename NodeT> class MemoHashBatch {
public:
  explicit MemoHashBatch(uint64_t Seed) : Seed(Seed) {}

  /// Queues \p N, whose key is the word sequence [W, W+NW). NW must be
  /// at least 1 (memo keys always lead with the closure identity).
  void add(const NodeT *N, const uint64_t *W, size_t NW) {
    Group &G = Groups[NW];
    G.Nodes.push_back(N);
    G.Words.insert(G.Words.end(), W, W + NW);
    if (G.Nodes.size() == simd::HashLanes)
      flush(NW, G);
  }

  void finish() {
    for (auto &Entry : Groups)
      flush(Entry.first, Entry.second);
  }

  const std::vector<const NodeT *> &bad() const { return Bad; }

private:
  struct Group {
    std::vector<const NodeT *> Nodes;
    std::vector<uint64_t> Words; // node-major, Nodes.size() * NW
  };

  void flush(size_t NW, Group &G) {
    constexpr size_t Lanes = simd::HashLanes;
    if (G.Nodes.size() == Lanes) {
      // Lane-major transpose: word w of key l lands at Wt[w*Lanes + l],
      // the layout the kernel consumes one 256-byte step per word.
      Wt.resize(NW * Lanes);
      for (size_t L = 0; L < Lanes; ++L)
        for (size_t W = 0; W < NW; ++W)
          Wt[W * Lanes + L] = G.Words[L * NW + W];
      uint64_t H[Lanes];
      for (uint64_t &Lane : H)
        Lane = Seed;
      simd::hashBatch(H, Wt.data(), NW);
      for (size_t L = 0; L < Lanes; ++L)
        if (static_cast<uint32_t>(H[L]) != G.Nodes[L]->Memo.Hash)
          Bad.push_back(G.Nodes[L]);
    } else {
      for (size_t I = 0; I < G.Nodes.size(); ++I) {
        uint64_t H = Seed;
        for (size_t W = 0; W < NW; ++W)
          H = hashMixWord(H, G.Words[I * NW + W]);
        if (static_cast<uint32_t>(H) != G.Nodes[I]->Memo.Hash)
          Bad.push_back(G.Nodes[I]);
      }
    }
    G.Nodes.clear();
    G.Words.clear();
  }

  uint64_t Seed;
  std::unordered_map<size_t, Group> Groups;
  std::vector<uint64_t> Wt;
  std::vector<const NodeT *> Bad;
};

/// Memo-key seeds and schemas, restated from Runtime::readMemoHash /
/// allocMemoHash on purpose: an auditor that called the production hash
/// function could not catch a bug in it.
constexpr uint64_t ReadMemoSeed = 0x51ab5eed;
constexpr uint64_t AllocMemoSeed = 0xa110c5eed;

void readMemoKey(const Modref *M, const Closure *C, std::vector<uint64_t> &W) {
  W.clear();
  W.push_back(C->identityBits());
  W.push_back(reinterpret_cast<uintptr_t>(M));
  for (size_t I = 0, N = C->numArgs(); I < N; ++I)
    W.push_back(C->args()[I]);
}

void allocMemoKey(const Closure *Init, size_t Size,
                  std::vector<uint64_t> &W) {
  W.clear();
  W.push_back(Init->identityBits());
  W.push_back(Size);
  for (size_t I = 0, N = Init->numArgs(); I < N; ++I)
    W.push_back(Init->args()[I]);
}

} // namespace

std::string TraceAudit::Report::summary() const {
  if (Violations.empty()) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "ok: %zu reads, %zu writes, %zu allocs, %zu timestamps, "
                  "%zu trace bytes",
                  Reads, Writes, Allocs, Timestamps, TraceBytes);
    return Buf;
  }
  std::string S;
  for (const std::string &V : Violations) {
    if (!S.empty())
      S += '\n';
    S += V;
  }
  return S;
}

struct TraceAudit::Impl {
  const Runtime &RT;
  TraceAudit::Report &Rep;

  // Populated by the trace walk, consumed by the later passes.
  std::unordered_set<const TraceNode *> LiveNodes;
  std::vector<const ReadNode *> Reads;
  std::vector<const WriteNode *> Writes;
  std::vector<const AllocNode *> Allocs;
  std::unordered_map<const Modref *, std::vector<const Use *>> UsesByRef;

  Impl(const Runtime &R, TraceAudit::Report &Out) : RT(R), Rep(Out) {}

  /// Decodes a trace-arena handle, bounds-checking it against the arena's
  /// bump frontier first (a corrupted handle must produce a report line,
  /// not an out-of-region dereference). Returns null for both the null
  /// handle and a failed check, so callers treat the result like the
  /// pointer it replaces.
  template <typename T> const T *decode(Handle<T> H, const char *What) {
    if (!H.Bits)
      return nullptr;
    if (!RT.Mem.handleInBounds(H.Bits)) {
      fail("%s: handle 0x%x outside the trace arena's allocated region",
           What, H.Bits);
      return nullptr;
    }
    return RT.Mem.ptr(H);
  }

  /// Same, for order-list handles (timestamps and groups), which resolve
  /// against the order list's own arena.
  template <typename T> const T *omAt(Handle<T> H, const char *What) {
    if (!H.Bits)
      return nullptr;
    if (!RT.Om.Allocator.handleInBounds(H.Bits)) {
      fail("%s: handle 0x%x outside the order-list arena", What, H.Bits);
      return nullptr;
    }
    return RT.Om.Allocator.ptr(H);
  }

  /// OrderList::precedes over bounds-checked decodes: false (with a
  /// report line) when either node's group handle is forged.
  bool ordered(const OmNode *A, const OmNode *B) {
    if (A->Group == B->Group)
      return A->Label < B->Label;
    const OmGroup *GA = omAt(A->Group, "om: node group");
    const OmGroup *GB = omAt(B->Group, "om: node group");
    return GA && GB && GA->Label < GB->Label;
  }

  void fail(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    if (Rep.Violations.size() >= MaxViolations)
      return;
    va_list Args;
    va_start(Args, Fmt);
    Rep.Violations.push_back(formatv(Fmt, Args));
    va_end(Args);
    if (Rep.Violations.size() == MaxViolations)
      Rep.Violations.push_back("... (further violations suppressed)");
  }

  void run() {
    if (RT.CurPhase != Runtime::Phase::Meta) {
      fail("audit invoked outside the meta phase");
      return; // The structures below are in flux mid-execution.
    }
    checkOrderStructure();
    walkTrace();
    checkUseLists();
    checkHeap();
    checkMemos();
    checkArena();
  }

  //===------------------------------------------------------------===//
  // Pass 1: order-maintenance structure
  //===------------------------------------------------------------===//

  void checkOrderStructure() {
    const OrderList &Om = RT.Om;
    size_t SeenNodes = 0, SeenGroups = 0;
    // Every link is decoded through omAt before it is followed, so a
    // forged handle becomes a report line instead of a wild read; the
    // group walk is capped at one group per node so a forged cycle
    // terminates.
    Handle<OmNode> Expected = Om.Base; // Next node the chain should yield.
    const OmNode *PrevN = nullptr;
    Handle<OmGroup> PrevGH{};
    const OmGroup *PrevG = nullptr;
    for (Handle<OmGroup> GH = Om.FirstGroup; GH;) {
      const OmGroup *G = omAt(GH, "om: group link");
      if (!G)
        return;
      if (++SeenGroups > Om.Size) {
        fail("om: group chain longer than the node count allows (cycle)");
        return;
      }
      if (G->Prev != PrevGH)
        fail("om: group back-link broken at label %llu",
             (unsigned long long)G->Label);
      if (PrevG && G->Label <= PrevG->Label)
        fail("om: group labels not strictly increasing (%llu after %llu)",
             (unsigned long long)G->Label, (unsigned long long)PrevG->Label);
      PrevGH = GH;
      PrevG = G;
      GH = G->Next;
      if (G->Count == 0) {
        fail("om: empty group left in list");
        continue;
      }
      if (G->First != Expected)
        fail("om: group First out of sync with node chain");
      Handle<OmNode> NH = G->First;
      uint64_t PrevLabel = 0;
      for (uint32_t I = 0; NH && I < G->Count; ++I) {
        const OmNode *N = omAt(NH, "om: node link");
        if (!N)
          return;
        if (++SeenNodes > Om.Size) {
          fail("om: node chain longer than the recorded size (cycle)");
          return;
        }
        if (N->Group != PrevGH)
          fail("om: node points at wrong group");
        if (I > 0 && N->Label <= PrevLabel)
          fail("om: node labels not strictly increasing within group");
        // Two-level agreement: the strict order precedes() computes from
        // (group label, node label) must match the linked-list order.
        if (PrevN && (!ordered(PrevN, N) || ordered(N, PrevN)))
          fail("om: precedes() disagrees with list order (labels "
               "%llu/%llu)",
               (unsigned long long)PrevN->Label,
               (unsigned long long)N->Label);
        if (const OmNode *Succ = omAt(N->Next, "om: node link"))
          if (Succ->Prev != NH)
            fail("om: node back-link broken");
        PrevLabel = N->Label;
        PrevN = N;
        Expected = N->Next;
        NH = N->Next;
      }
    }
    if (Expected)
      fail("om: trailing nodes beyond the last group");
    if (SeenNodes != Om.Size)
      fail("om: size accounting out of sync (walked %zu, Size %zu)",
           SeenNodes, Om.Size);
  }

  //===------------------------------------------------------------===//
  // Pass 2: trace walk
  //===------------------------------------------------------------===//

  void walkTrace() {
    std::vector<const ReadNode *> OpenReads;
    std::unordered_set<const void *> Blocks;
    const OmNode *Last = RT.Om.node(RT.Om.base());
    size_t Steps = 0;
    for (const OmNode *N = omAt(Last->Next, "trace: timestamp link"); N;
         N = omAt(N->Next, "trace: timestamp link")) {
      if (++Steps >= RT.Om.size()) { // Size counts the base as well.
        fail("trace: timestamp chain longer than the order list (cycle)");
        break;
      }
      Last = N;
      OmItem Item = N->Item;
      if (!Item) {
        fail("trace: non-base timestamp with no payload");
        continue;
      }
      if (!RT.Mem.handleInBounds(Item & ~OmItemEndBit)) {
        fail("trace: timestamp payload handle 0x%x outside the trace "
             "arena's allocated region",
             unsigned(Item & ~OmItemEndBit));
        continue;
      }
      if (isEndItem(Item)) {
        const ReadNode *R = endItemRead(RT.Mem, Item);
        if (omAt(R->End, "read end") != N)
          fail("trace: end marker not pointed back at by its read");
        if (OpenReads.empty())
          fail("trace: interval end with no open read");
        else if (OpenReads.back() != R)
          fail("trace: read intervals not properly nested");
        else
          OpenReads.pop_back();
        continue;
      }
      const TraceNode *T = itemNode(RT.Mem, Item);
      if (omAt(T->Start, "node start") != N)
        fail("trace: node's Start does not point back at its timestamp");
      if (!LiveNodes.insert(T).second) {
        fail("trace: node stamped at two timestamps");
        continue;
      }
      switch (T->Kind) {
      case TraceKind::Read: {
        const auto *R = static_cast<const ReadNode *>(T);
        Reads.push_back(R);
        const Modref *M = decode(R->Ref, "read modifiable");
        if (M)
          UsesByRef[M].push_back(R);
        else
          fail("read: null modifiable");
        if (!R->End)
          fail("read: interval never closed");
        else
          OpenReads.push_back(R);
        const Closure *Clo = decode(R->Clo, "read closure");
        if (!Clo)
          fail("read: null closure");
        else if (!Clo->ownedByTrace())
          fail("read: closure not marked trace-owned");
        break;
      }
      case TraceKind::Write: {
        const auto *W = static_cast<const WriteNode *>(T);
        Writes.push_back(W);
        const Modref *M = decode(W->Ref, "write modifiable");
        if (M)
          UsesByRef[M].push_back(W);
        else
          fail("write: null modifiable");
        break;
      }
      case TraceKind::Alloc: {
        const auto *A = static_cast<const AllocNode *>(T);
        Allocs.push_back(A);
        const void *Block = decode(A->Block, "alloc block");
        if (!Block)
          fail("alloc: null block");
        else if (!Blocks.insert(Block).second)
          fail("alloc: two live allocations share one block (double "
               "steal?)");
        const Closure *Init = decode(A->Init, "alloc initializer");
        if (!Init)
          fail("alloc: null initializer closure");
        else if (!Init->ownedByTrace())
          fail("alloc: initializer not marked trace-owned");
        break;
      }
      }
    }
    if (!OpenReads.empty())
      fail("trace: %zu read interval(s) missing their end markers",
           OpenReads.size());
    if (RT.Om.node(RT.TraceEnd) != Last)
      fail("trace: TraceEnd is not the maximum timestamp");
    if (!RT.Main.PendingReads.empty())
      fail("trace: pending-read stack not empty at meta time");
    if (!RT.Main.DeferredFrees.empty())
      fail("trace: deferred frees not flushed at meta time");
    Rep.Reads = Reads.size();
    Rep.Writes = Writes.size();
    Rep.Allocs = Allocs.size();
    Rep.Timestamps = RT.Om.size();
  }

  //===------------------------------------------------------------===//
  // Pass 3: use-lists and the propagation queue
  //===------------------------------------------------------------===//

  void checkUseLists() {
    for (const auto &[M, TraceUses] : UsesByRef) {
      std::unordered_set<const Use *> InList;
      const Use *Prev = nullptr;
      // Value governing the current position: the latest preceding write,
      // else the modifiable's initial value — accumulated as we walk so a
      // corrupted PrevUse chain cannot send the audit in circles. GovW is
      // the same accumulation as a node pointer, checked against each
      // read's O(1) governing-write cache (ReadNode::Gov).
      Word Governing = M->Initial;
      const WriteNode *GovW = nullptr;
      for (const Use *U = decode(M->Head, "uselist head"); U;
           U = decode(U->NextUse, "uselist next")) {
        if (!InList.insert(U).second) {
          fail("uselist: cycle in a modifiable's use list");
          break;
        }
        if (decode(U->Ref, "uselist member modifiable") != M)
          fail("uselist: member belongs to a different modifiable");
        if (!LiveNodes.count(U))
          fail("uselist: member is not a live trace node (dangling use)");
        if (decode(U->PrevUse, "uselist prev") != Prev)
          fail("uselist: PrevUse back-link broken");
        if (Prev) {
          const OmNode *PrevStart = omAt(Prev->Start, "uselist prev start");
          const OmNode *UStart = omAt(U->Start, "uselist start");
          if (!PrevStart || !UStart || !ordered(PrevStart, UStart))
            fail("uselist: uses not sorted by timestamp");
        }
        if (U->Kind == TraceKind::Read) {
          const auto *R = static_cast<const ReadNode *>(U);
          if (decode(R->Gov, "governing-write cache") != GovW)
            fail("uselist: governing-write cache out of sync (cached %p, "
                 "walk says %p)",
                 (const void *)decode(R->Gov, "governing-write cache"),
                 (const void *)GovW);
          if (!R->isDirty() && R->SeenValue != Governing)
            fail("uselist: clean read's SeenValue differs from the value "
                 "its position governs (equality cut unsound)");
        } else if (U->Kind == TraceKind::Write) {
          GovW = static_cast<const WriteNode *>(U);
          Governing = GovW->Value;
        }
        Prev = U;
      }
      if (decode(M->Tail, "uselist tail") != Prev)
        fail("uselist: Tail does not point at the last member");
      if (M->Hint && !InList.count(decode(M->Hint, "uselist hint")))
        fail("uselist: insertion hint dangles outside the use list");
      if (InList.size() != TraceUses.size())
        fail("uselist: list has %zu members but the trace has %zu uses "
             "of this modifiable",
             InList.size(), TraceUses.size());
      for (const Use *U : TraceUses)
        if (!InList.count(U))
          fail("uselist: traced use missing from its modifiable's list");
    }
  }

  void checkHeap() {
    const auto &Heap = RT.Main.Heap;
    for (size_t I = 0; I < Heap.size(); ++I) {
      const ReadNode *R = Heap[I];
      if (!LiveNodes.count(R)) {
        fail("heap: entry %zu is not a live trace node", I);
        continue;
      }
      if (R->HeapIndex != static_cast<int32_t>(I))
        fail("heap: entry %zu carries HeapIndex %d", I, R->HeapIndex);
      if (!R->isDirty())
        fail("heap: entry %zu is not dirty", I);
      if (I > 0) {
        const ReadNode *Parent = Heap[(I - 1) / 2];
        const OmNode *RStart = omAt(R->Start, "heap entry start");
        const OmNode *PStart = omAt(Parent->Start, "heap parent start");
        if (RStart && PStart && ordered(RStart, PStart))
          fail("heap: min-heap property violated at entry %zu", I);
      }
    }
    size_t DirtyReads = 0;
    for (const ReadNode *R : Reads) {
      if (R->isDirty() != (R->HeapIndex >= 0))
        fail("read: dirty flag and queue membership disagree "
             "(dirty=%d, HeapIndex=%d)",
             int(R->isDirty()), R->HeapIndex);
      if (R->isDirty())
        ++DirtyReads;
    }
    if (DirtyReads != Heap.size())
      fail("heap: %zu dirty reads in the trace but %zu queued entries",
           DirtyReads, Heap.size());
  }

  //===------------------------------------------------------------===//
  // Pass 4: memo indexes
  //===------------------------------------------------------------===//

  template <typename NodeT, typename KeyFn>
  void checkMemoTable(const MemoTable<NodeT> &Table, const char *Name,
                      const std::vector<const NodeT *> &Expected,
                      uint64_t Seed, KeyFn MakeKey) {
    const size_t NBuckets = Table.bucketCount();
    // Pre-pass over the packed head-handle array: every head is
    // bounds-checked against the arena's bump frontier in one
    // simd::boundsCheckU32 sweep, so the chain walk below never starts
    // from a wild head. (Chain *interior* handles are still checked one
    // by one through decode(); only the dense head array has the flat
    // layout the sweep needs.)
    static_assert(sizeof(Handle<NodeT>) == sizeof(uint32_t),
                  "packed head sweep assumes compressed handles");
    const uint32_t *HeadBits =
        reinterpret_cast<const uint32_t *>(Table.bucketArray());
    const uint32_t Limit =
        uint32_t(RT.Mem.bumpUsedBytes() / Arena::HandleGrain);
    for (size_t B = 0; B < NBuckets;) {
      B += simd::boundsCheckU32(HeadBits + B, NBuckets - B, Limit);
      if (B == NBuckets)
        break;
      fail("%s memo: bucket %zu head handle 0x%x outside the trace "
           "arena's allocated region",
           Name, B, HeadBits[B]);
      ++B;
    }
    auto headOf = [&](size_t B) -> const NodeT * {
      return HeadBits[B] < Limit ? Table.bucketHead(B) : nullptr;
    };
    MemoHashBatch<NodeT> Hashes(Seed);
    std::vector<uint64_t> Key;
    std::unordered_set<const NodeT *> InTable;
    for (size_t B = 0; B < NBuckets; ++B) {
      const NodeT *Prev = nullptr;
      for (const NodeT *N = headOf(B); N;
           N = decode(N->Memo.Next, "memo chain next")) {
        if (!InTable.insert(N).second) {
          fail("%s memo: chain cycle in bucket %zu", Name, B);
          break;
        }
        if (decode(N->Memo.Prev, "memo chain prev") != Prev)
          fail("%s memo: Memo.Prev back-link broken", Name);
        if (Table.bucketFor(N->Memo.Hash) != B)
          fail("%s memo: entry hashed to bucket %zu but chained in %zu",
               Name, Table.bucketFor(N->Memo.Hash), B);
        if (!LiveNodes.count(N)) {
          fail("%s memo: entry is not a live trace node", Name);
        } else {
          MakeKey(N, Key);
          Hashes.add(N, Key.data(), Key.size());
        }
        Prev = N;
      }
    }
    Hashes.finish();
    for (size_t I = 0; I < Hashes.bad().size(); ++I)
      fail("%s memo: stored hash does not match its key", Name);
    if (InTable.size() != Table.size())
      fail("%s memo: table Count %zu but %zu chained entries", Name,
           Table.size(), InTable.size());
    for (const NodeT *N : Expected)
      if (!InTable.count(N))
        fail("%s memo: live trace node missing from the index", Name);
    if (Expected.size() != InTable.size())
      fail("%s memo: %zu live nodes but %zu indexed entries", Name,
           Expected.size(), InTable.size());
  }

  void checkMemos() {
    checkMemoTable(RT.ReadMemo, "read", Reads, ReadMemoSeed,
                   [&](const ReadNode *R, std::vector<uint64_t> &W) {
                     readMemoKey(RT.Mem.ptr(R->Ref), RT.Mem.ptr(R->Clo), W);
                   });
    checkMemoTable(RT.AllocMemo, "alloc", Allocs, AllocMemoSeed,
                   [&](const AllocNode *A, std::vector<uint64_t> &W) {
                     allocMemoKey(RT.Mem.ptr(A->Init), A->Size, W);
                   });
  }

  //===------------------------------------------------------------===//
  // Pass 5: arena reconciliation
  //===------------------------------------------------------------===//

  void checkArena() {
    size_t Box = RT.Cfg.BoxBytesPerNode;
    size_t Bytes = 0;
    for (const ReadNode *R : Reads) {
      Bytes += Arena::accountedSize(sizeof(ReadNode) + Box);
      if (const Closure *Clo = RT.Mem.ptr(R->Clo))
        Bytes += Arena::accountedSize(Clo->byteSize());
    }
    for (const WriteNode *W : Writes) {
      (void)W;
      Bytes += Arena::accountedSize(sizeof(WriteNode) + Box);
    }
    for (const AllocNode *A : Allocs) {
      Bytes += Arena::accountedSize(sizeof(AllocNode) + Box);
      if (const Closure *Init = RT.Mem.ptr(A->Init))
        Bytes += Arena::accountedSize(Init->byteSize());
      if (A->Size)
        Bytes += Arena::accountedSize(A->Size);
    }
    Rep.TraceBytes = Bytes;
    size_t Expected = Bytes + RT.MetaBytes;
    size_t Live = RT.Mem.liveBytes();
    if (Expected != Live) {
      if (Expected < Live)
        fail("arena: %zu live bytes but only %zu reachable from the trace "
             "or tracked meta blocks (leak of %zu bytes; untracked "
             "arena().allocate()?)",
             Live, Expected, Live - Expected);
      else
        fail("arena: %zu reachable bytes exceed %zu live bytes "
             "(double free of %zu bytes)",
             Expected, Live, Expected - Live);
    }
  }
};

//===--------------------------------------------------------------------===//
// Load-mode validation (validateLoaded)
//
// A freshly loaded snapshot passed every checksum, but checksums only prove
// the file arrived intact — a crafted file checksums perfectly. This
// validator is the gate between "bytes in the arenas" and "trace the
// propagation machinery may follow": one linear sweep that treats every
// pointer, handle, and length as untrusted, bounds- and alignment-checks
// it against the serialized frontier before the first dereference, and
// stops at the first violation. It deliberately avoids the hash maps and
// cross-walks of inspect() — its cost is what bounds an mmap warm start.
//
// A per-grain mark array over the trace arena stands in for inspect()'s
// node sets: stamped-node marks catch double stamping, and memo-seen
// marks catch chain cycles and duplicate indexing, all O(1) per node.
//===--------------------------------------------------------------------===//

struct TraceAudit::LoadImpl {
  const Runtime &RT;
  TraceAudit::Report &Rep;

  const char *MemBase, *OmBase;
  uint64_t MemUsed, OmUsed;

  // One byte per trace-arena grain.
  static constexpr uint8_t MarkStamped = 1;
  static constexpr uint8_t MarkReadMemo = 2;
  static constexpr uint8_t MarkAllocMemo = 4;
  std::vector<uint8_t> Mark;

  // Collected by the order walk / trace walk.
  size_t GroupCount = 0;
  bool CursorSeen = false, TraceEndSeen = false;
  size_t NReads = 0, NWrites = 0, NAllocs = 0;
  size_t TraceBytes = 0;

  LoadImpl(const Runtime &R, TraceAudit::Report &Out)
      : RT(R), Rep(Out),
        MemBase(static_cast<const char *>(RT.Mem.regionBase())),
        OmBase(static_cast<const char *>(RT.Om.Allocator.regionBase())),
        MemUsed(RT.Mem.bumpUsedBytes()),
        OmUsed(RT.Om.Allocator.bumpUsedBytes()),
        Mark(MemUsed / Arena::HandleGrain, 0) {}

  /// Records the (single) violation; always false so checks read as
  /// `return fail(...)`.
  bool fail(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list Args;
    va_start(Args, Fmt);
    Rep.Violations.push_back("load: " + formatv(Fmt, Args));
    va_end(Args);
    return false;
  }

  /// Wrap-safe region offset: anything below the base becomes huge and
  /// fails the bounds test instead of looking small.
  static uint64_t rawOff(const void *Base, const void *P) {
    return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(P) -
                                 reinterpret_cast<uintptr_t>(Base));
  }

  bool extentOk(uint64_t Off, uint64_t Need, uint64_t Used) const {
    return Off >= Arena::HandleGrain && Off % Arena::HandleGrain == 0 &&
           Need <= Used && Off <= Used - Need;
  }
  bool memOk(uint64_t Off, uint64_t Need) const {
    return extentOk(Off, Need, MemUsed);
  }
  bool omOk(uint64_t Off, uint64_t Need) const {
    return extentOk(Off, Need, OmUsed);
  }

  /// Trace-arena handle -> region offset (0 for null), without resolving.
  /// Handle -> region offset (0 for null), without resolving; the same
  /// encoding in both arenas.
  template <typename T> static uint64_t hoff(Handle<T> H) {
    return uint64_t(H.Bits) * Arena::HandleGrain;
  }

  template <typename T> const T *memAt(uint64_t Off) const {
    return reinterpret_cast<const T *>(MemBase + Off);
  }
  template <typename T> const T *omAt(uint64_t Off) const {
    return reinterpret_cast<const T *>(OmBase + Off);
  }

  bool run() {
    if (RT.CurPhase != Runtime::Phase::Meta)
      return fail("runtime not in the meta phase");
    if (!RT.Main.Heap.empty() || !RT.Main.PendingReads.empty() ||
        !RT.Main.DeferredFrees.empty() || !RT.PendingReadMemo.empty() ||
        !RT.PendingAllocMemo.empty())
      return fail("restored runtime carries pending work (corrupt scalar "
                  "state)");
    if (RT.Om.inAppendMode())
      return fail("restored order list is in append mode");
    return checkOrder() && walkTrace() && checkMemos() && checkAccounting();
  }

  //===------------------------------------------------------------===//
  // Order-maintenance chain: every group and node pointer is validated
  // before its first dereference, so the later passes may walk the node
  // chain freely.
  //===------------------------------------------------------------===//

  bool checkOrder() {
    const OrderList &Om = RT.Om;
    if (!omOk(hoff(Om.Base), sizeof(OmNode)))
      return fail("order-list base handle outside the serialized arena");
    if (!omOk(hoff(Om.FirstGroup), sizeof(OmGroup)))
      return fail("first-group handle outside the serialized arena");
    if (omAt<OmGroup>(hoff(Om.FirstGroup))->First != Om.Base)
      return fail("first group does not start at the base timestamp");
    if (omAt<OmNode>(hoff(Om.Base))->Prev)
      return fail("base timestamp has a predecessor");

    size_t SeenNodes = 0;
    Handle<OmNode> Expected = Om.Base;
    Handle<OmGroup> PrevGH{};
    const OmGroup *PrevG = nullptr;
    for (Handle<OmGroup> GH = Om.FirstGroup; GH;) {
      if (!omOk(hoff(GH), sizeof(OmGroup)))
        return fail("group handle outside the serialized arena");
      const OmGroup *G = omAt<OmGroup>(hoff(GH));
      if (++GroupCount > Om.Size + 1)
        return fail("group chain longer than the node count allows "
                    "(cycle)");
      if (G->Prev != PrevGH)
        return fail("group back-link broken");
      if (PrevG && G->Label <= PrevG->Label)
        return fail("group labels not strictly increasing");
      if (G->Count == 0)
        return fail("empty group in the chain");
      if (G->First != Expected)
        return fail("group First out of sync with the node chain");
      Handle<OmNode> NH = Expected;
      uint64_t PrevLabel = 0;
      for (uint32_t I = 0; I < G->Count; ++I) {
        if (!NH)
          return fail("group Count overruns the node chain");
        if (!omOk(hoff(NH), sizeof(OmNode)))
          return fail("timestamp handle outside the serialized arena");
        const OmNode *N = omAt<OmNode>(hoff(NH));
        if (++SeenNodes > Om.Size)
          return fail("node chain longer than the recorded size (cycle)");
        if (N->Group != GH)
          return fail("timestamp points at the wrong group");
        if (I > 0 && N->Label <= PrevLabel)
          return fail("timestamp labels not strictly increasing in group");
        if (N->Next) {
          if (!omOk(hoff(N->Next), sizeof(OmNode)))
            return fail("timestamp handle outside the serialized arena");
          if (omAt<OmNode>(hoff(N->Next))->Prev != NH)
            return fail("timestamp back-link broken");
        }
        if (NH == RT.Main.Cursor)
          CursorSeen = true;
        if (NH == RT.TraceEnd)
          TraceEndSeen = true;
        PrevLabel = N->Label;
        Expected = N->Next;
        NH = N->Next;
      }
      PrevGH = GH;
      PrevG = G;
      GH = G->Next;
    }
    if (Expected)
      return fail("trailing timestamps beyond the last group");
    if (SeenNodes != Om.Size)
      return fail("walked %zu timestamps but the list records %zu",
                  SeenNodes, Om.Size);
    // The restored cursor and trace end must be *members* — a crafted
    // offset naming a freed in-bounds node would otherwise slip through.
    if (!CursorSeen)
      return fail("restored cursor is not a member of the order list");
    if (!TraceEndSeen)
      return fail("restored trace end is not a member of the order list");
    Rep.Timestamps = Om.Size;
    return true;
  }

  //===------------------------------------------------------------===//
  // Trace walk: the timestamp chain is safe now; every trace-arena
  // reference hanging off it is not, yet.
  //===------------------------------------------------------------===//

  bool checkClosure(uint64_t Off, const char *What) {
    if (!memOk(Off, sizeof(Closure)))
      return fail("%s closure outside the serialized arena", What);
    const Closure *C = memAt<Closure>(Off);
    if (!memOk(Off, Closure::byteSize(C->numArgs())))
      return fail("%s closure frame overruns the serialized arena", What);
    if (!C->ownedByTrace())
      return fail("%s closure not marked trace-owned", What);
    return true;
  }

  /// Validates one use-list link field: null, or a Use-sized extent whose
  /// opposite link points straight back.
  bool checkUseLink(uint64_t TargetOff, uint64_t SelfOff, bool TargetPrev,
                    const char *What) {
    if (!TargetOff)
      return true;
    if (!memOk(TargetOff, sizeof(Use)))
      return fail("%s link outside the serialized arena", What);
    const Use *T = memAt<Use>(TargetOff);
    uint64_t Back = hoff(TargetPrev ? T->PrevUse : T->NextUse);
    if (Back != SelfOff)
      return fail("%s link not mirrored by its target", What);
    return true;
  }

  bool stamp(uint64_t Off) {
    uint8_t &M = Mark[Off / Arena::HandleGrain];
    if (M & MarkStamped)
      return fail("trace node at offset %llu stamped at two timestamps",
                  (unsigned long long)Off);
    M |= MarkStamped;
    return true;
  }

  bool walkTrace() {
    const size_t Box = RT.Cfg.BoxBytesPerNode;
    std::vector<uint64_t> OpenReads;
    Handle<OmNode> Last = RT.Om.base();
    for (Handle<OmNode> NH = RT.Om.next(Last); NH; NH = RT.Om.next(NH)) {
      Last = NH;
      OmItem Item = RT.Om.item(NH);
      if (!Item)
        return fail("non-base timestamp with no payload");
      uint64_t Off = uint64_t(Item & ~OmItemEndBit) * Arena::HandleGrain;
      if (isEndItem(Item)) {
        if (!memOk(Off, sizeof(ReadNode)))
          return fail("end-marker payload outside the serialized arena");
        const ReadNode *R = memAt<ReadNode>(Off);
        if (R->Kind != TraceKind::Read)
          return fail("end marker names a non-read node");
        if (R->End != NH)
          return fail("end marker not pointed back at by its read");
        if (OpenReads.empty() || OpenReads.back() != Off)
          return fail("read intervals not properly nested");
        OpenReads.pop_back();
        continue;
      }
      if (!memOk(Off, sizeof(TraceNode)))
        return fail("timestamp payload outside the serialized arena");
      const TraceNode *T = memAt<TraceNode>(Off);
      if (T->Start != NH)
        return fail("node's Start does not point back at its timestamp");
      switch (T->Kind) {
      case TraceKind::Read: {
        if (!memOk(Off, sizeof(ReadNode)))
          return fail("read node overruns the serialized arena");
        if (!stamp(Off))
          return false;
        const ReadNode *R = memAt<ReadNode>(Off);
        uint64_t RefOff = hoff(R->Ref);
        if (!RefOff || !memOk(RefOff, sizeof(Modref)))
          return fail("read's modifiable outside the serialized arena");
        uint64_t CloOff = hoff(R->Clo);
        if (!CloOff || !checkClosure(CloOff, "read"))
          return CloOff ? false : fail("read with a null closure");
        if (!R->End)
          return fail("read interval never closed");
        if (R->isDirty() || R->HeapIndex != -1)
          return fail("read restored dirty or queued (snapshots are "
                      "quiescent)");
        uint64_t GovOff = hoff(R->Gov);
        if (GovOff) {
          if (!memOk(GovOff, sizeof(WriteNode)))
            return fail("governing-write cache outside the serialized "
                        "arena");
          if (memAt<WriteNode>(GovOff)->Kind != TraceKind::Write)
            return fail("governing-write cache names a non-write node");
        }
        if (!checkUseLink(hoff(R->NextUse), Off, /*TargetPrev=*/true,
                          "read's next-use") ||
            !checkUseLink(hoff(R->PrevUse), Off, /*TargetPrev=*/false,
                          "read's prev-use"))
          return false;
        OpenReads.push_back(Off);
        ++NReads;
        TraceBytes += Arena::accountedSize(sizeof(ReadNode) + Box) +
                      Arena::accountedSize(
                          memAt<Closure>(CloOff)->byteSize());
        break;
      }
      case TraceKind::Write: {
        if (!memOk(Off, sizeof(WriteNode)))
          return fail("write node overruns the serialized arena");
        if (!stamp(Off))
          return false;
        const WriteNode *W = memAt<WriteNode>(Off);
        uint64_t RefOff = hoff(W->Ref);
        if (!RefOff || !memOk(RefOff, sizeof(Modref)))
          return fail("write's modifiable outside the serialized arena");
        if (!checkUseLink(hoff(W->NextUse), Off, /*TargetPrev=*/true,
                          "write's next-use") ||
            !checkUseLink(hoff(W->PrevUse), Off, /*TargetPrev=*/false,
                          "write's prev-use"))
          return false;
        ++NWrites;
        TraceBytes += Arena::accountedSize(sizeof(WriteNode) + Box);
        break;
      }
      case TraceKind::Alloc: {
        if (!memOk(Off, sizeof(AllocNode)))
          return fail("alloc node overruns the serialized arena");
        if (!stamp(Off))
          return false;
        const AllocNode *A = memAt<AllocNode>(Off);
        uint64_t InitOff = hoff(A->Init);
        if (!InitOff || !checkClosure(InitOff, "alloc"))
          return InitOff ? false : fail("alloc with a null initializer");
        uint64_t BlockOff = hoff(A->Block);
        if (A->Size == 0)
          return fail("alloc node with a zero-sized block");
        if (!BlockOff || !memOk(BlockOff, A->Size))
          return fail("alloc block outside the serialized arena");
        ++NAllocs;
        TraceBytes += Arena::accountedSize(sizeof(AllocNode) + Box) +
                      Arena::accountedSize(
                          memAt<Closure>(InitOff)->byteSize()) +
                      Arena::accountedSize(A->Size);
        break;
      }
      default:
        return fail("trace node with invalid kind %u at offset %llu",
                    unsigned(T->Kind), (unsigned long long)Off);
      }
    }
    if (!OpenReads.empty())
      return fail("%zu read interval(s) missing their end markers",
                  OpenReads.size());
    if (RT.TraceEnd != Last)
      return fail("restored trace end is not the maximum timestamp");
    Rep.Reads = NReads;
    Rep.Writes = NWrites;
    Rep.Allocs = NAllocs;
    Rep.TraceBytes = TraceBytes;
    return true;
  }

  //===------------------------------------------------------------===//
  // Memo indexes: every chained entry must be a node the trace walk just
  // stamped (so its fields are already validated), appear exactly once,
  // sit in the bucket its hash selects, and the tables must index the
  // trace bijectively.
  //===------------------------------------------------------------===//

  template <typename NodeT, typename KeyFn>
  bool checkMemoTable(const MemoTable<NodeT> &Table, const char *Name,
                      TraceKind WantKind, uint8_t SeenBit, size_t WantCount,
                      uint64_t Seed, KeyFn MakeKey) {
    size_t Buckets = Table.bucketCount();
    if (Buckets < 64 || (Buckets & (Buckets - 1)) != 0)
      return fail("%s memo bucket count %zu invalid", Name, Buckets);
    // Head sweep: the restored bucket array is dense packed
    // u32 handles, so one simd::boundsCheckU32 pass rejects any head
    // pointing past the serialized arena before the chain walk begins.
    {
      static_assert(sizeof(Handle<NodeT>) == sizeof(uint32_t),
                    "packed head sweep assumes compressed handles");
      const uint32_t *HeadBits =
          reinterpret_cast<const uint32_t *>(Table.bucketArray());
      const uint32_t Limit = uint32_t(MemUsed / Arena::HandleGrain);
      size_t B = simd::boundsCheckU32(HeadBits, Buckets, Limit);
      if (B != Buckets)
        return fail("%s memo: bucket %zu head handle 0x%x outside the "
                    "serialized arena",
                    Name, B, HeadBits[B]);
    }
    MemoHashBatch<NodeT> Hashes(Seed);
    std::vector<uint64_t> Key;
    size_t Seen = 0;
    for (size_t B = 0; B < Buckets; ++B) {
      uint64_t PrevOff = 0;
      // bucketHead resolves the handle to an address without
      // dereferencing it; fold it back to an offset for the bounds check.
      const NodeT *Head = Table.bucketHead(B);
      uint64_t Off = Head ? rawOff(MemBase, Head) : 0;
      while (Off) {
        if (!memOk(Off, sizeof(NodeT)))
          return fail("%s memo entry outside the serialized arena", Name);
        const NodeT *E = memAt<NodeT>(Off);
        if (E->Kind != WantKind)
          return fail("%s memo entry is not a %s node", Name, Name);
        uint8_t &M = Mark[Off / Arena::HandleGrain];
        if (!(M & MarkStamped))
          return fail("%s memo entry is not a stamped trace node", Name);
        if (M & SeenBit)
          return fail("%s memo entry chained twice (cycle or duplicate)",
                      Name);
        M |= SeenBit;
        if (Table.bucketFor(E->Memo.Hash) != B)
          return fail("%s memo entry chained in the wrong bucket", Name);
        if (hoff(E->Memo.Prev) != PrevOff)
          return fail("%s memo chain back-link broken", Name);
        MakeKey(E, Key);
        Hashes.add(E, Key.data(), Key.size());
        if (++Seen > Table.size())
          return fail("%s memo chains exceed the recorded count", Name);
        PrevOff = Off;
        Off = hoff(E->Memo.Next);
      }
    }
    // Hash verification is batched through the 32-lane sweep, so
    // mismatches surface here rather than mid-walk; the message (and
    // the load-abort it causes) is the same.
    Hashes.finish();
    if (!Hashes.bad().empty())
      return fail("%s memo entry's stored hash does not match its key",
                  Name);
    if (Seen != Table.size())
      return fail("%s memo records %zu entries but chains hold %zu", Name,
                  Table.size(), Seen);
    if (Seen != WantCount)
      return fail("%s memo indexes %zu entries but the trace has %zu",
                  Name, Seen, WantCount);
    return true;
  }

  bool checkMemos() {
    return checkMemoTable(RT.ReadMemo, "read", TraceKind::Read, MarkReadMemo,
                          NReads, ReadMemoSeed,
                          [&](const ReadNode *R, std::vector<uint64_t> &W) {
                            readMemoKey(RT.Mem.ptr(R->Ref),
                                        RT.Mem.ptr(R->Clo), W);
                          }) &&
           checkMemoTable(RT.AllocMemo, "alloc", TraceKind::Alloc,
                          MarkAllocMemo, NAllocs, AllocMemoSeed,
                          [&](const AllocNode *A, std::vector<uint64_t> &W) {
                            allocMemoKey(RT.Mem.ptr(A->Init), A->Size, W);
                          });
  }

  //===------------------------------------------------------------===//
  // Accounting: the restored counters must reconcile with what the walk
  // actually found, in both arenas.
  //===------------------------------------------------------------===//

  bool checkAccounting() {
    size_t Expected = TraceBytes + RT.MetaBytes;
    if (Expected != RT.Mem.liveBytes())
      return fail("trace arena records %zu live bytes but the trace "
                  "reaches %zu",
                  RT.Mem.liveBytes(), Expected);
    size_t OmExpected =
        RT.Om.Size * Arena::accountedSize(sizeof(OmNode)) +
        GroupCount * Arena::accountedSize(sizeof(OmGroup));
    if (OmExpected != RT.Om.Allocator.liveBytes())
      return fail("order arena records %zu live bytes but its structures "
                  "account for %zu",
                  RT.Om.Allocator.liveBytes(), OmExpected);
    return true;
  }
};

TraceAudit::Report TraceAudit::validateLoaded(const Runtime &RT) {
  Report Rep;
  LoadImpl(RT, Rep).run();
  return Rep;
}

TraceAudit::Report TraceAudit::inspect(const Runtime &RT) {
  Report Rep;
  Impl(RT, Rep).run();
  return Rep;
}

void TraceAudit::enforce(const Runtime &RT, const char *Where) {
  Report Rep = inspect(RT);
  if (Rep.ok())
    return;
  std::fprintf(stderr,
               "\n==== TraceAudit: %zu invariant violation(s) %s ====\n",
               Rep.Violations.size(), Where);
  for (const std::string &V : Rep.Violations)
    std::fprintf(stderr, "  %s\n", V.c_str());
  std::fprintf(stderr,
               "  (trace: %zu reads, %zu writes, %zu allocs, %zu "
               "timestamps)\n",
               Rep.Reads, Rep.Writes, Rep.Allocs, Rep.Timestamps);
  std::abort();
}
