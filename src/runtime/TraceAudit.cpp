//===- runtime/TraceAudit.cpp - Trace sanitizer ---------------------------===//
//
// The audit walks the runtime's state in five passes:
//
//   1. order structure   (groups, labels, links, two-level agreement,
//                         cursor and trace-end membership)
//   2. trace walk        (stamp kinds vs. their containers, interval
//                         nesting, node extents with the closure and
//                         block inside them and their disjointness,
//                         closure ownership, per-node byte accounting)
//   3. use-lists + heap  (per-modifiable ordering, equality-cut
//                         soundness, dirty/queue agreement)
//   4. arena             (trace-reachable + order-list + memo-bucket +
//                         tracked meta bytes == liveBytes)
//   5. memo indexes      (chain shape, hash placement, exact membership;
//                         keys are hashed only when passes 2 and 4 found
//                         every node's extent sound)
//
// Every check records a violation string instead of asserting, so one
// corrupted structure produces a full report rather than a lone abort;
// enforce() turns a non-empty report into a banner + abort. The same walk
// gates Snapshot::load(), so it treats every handle as untrusted: each is
// bounds-checked over the whole extent it names before the first read,
// and no later pass follows a node or closure an earlier one rejected. A
// node's extent depends on words inside it (a closure's arity, a block's
// size), so each is bounds-checked before it is used to size the next
// check, and no frame word is read while any node's extent is in doubt.
//
//===----------------------------------------------------------------------===//

#include "runtime/TraceAudit.h"

#include "runtime/Runtime.h"
#include "support/simd/Simd.h"

#include <algorithm>
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
/// cloned checksum loop). The audit re-derives every chained entry's
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

  // Populated by the trace walk, consumed by the later passes. Every node
  // in LiveNodes has its fixed part below the bump frontier, and its
  // closure and block too unless it is in Unsound.
  std::unordered_set<const TraceNode *> LiveNodes;
  /// Live nodes whose closure or block failed its bounds check: the memo
  /// pass must not hash their keys.
  std::unordered_set<const TraceNode *> Unsound;
  /// False once two nodes overlap or the arena does not reconcile: some
  /// node's extent is then wrong although in bounds, and its frame words
  /// may belong to another block, so the memo pass hashes no key.
  bool ExtentsSound = true;
  std::vector<const ReadNode *> Reads;
  std::vector<const WriteNode *> Writes;
  std::vector<const AllocNode *> Allocs;
  std::unordered_map<const Modref *, std::vector<const Use *>> UsesByRef;
  /// Order-list groups walked by pass 1 (for the arena reconciliation).
  size_t Groups = 0;
  /// One bit per arena grain below the frontier, set for each grain a
  /// node the trace walk charged covers (a node's block holds its closure
  /// and user block too): every node is its own arena block, so no grain
  /// may be covered twice.
  std::vector<uint64_t> Covered;

  Impl(const Runtime &R, TraceAudit::Report &Out) : RT(R), Rep(Out) {}

  /// True when the \p Need bytes at handle \p Bits lie below the arena's
  /// bump frontier; otherwise a report line naming \p What.
  bool within(uint32_t Bits, uint64_t Need, const char *What) {
    const uint64_t Off = uint64_t(Bits) * Arena::HandleGrain;
    const uint64_t Used = RT.Mem.bumpUsedBytes();
    if (Off < Used && Need <= Used - Off)
      return true;
    if (Off < Used)
      fail("%s: handle 0x%x: its %llu bytes overrun the trace arena's "
           "allocated region",
           What, Bits, (unsigned long long)Need);
    else
      fail("%s: handle 0x%x outside the trace arena's allocated region",
           What, Bits);
    return false;
  }

  /// Decodes a trace-arena handle, bounds-checking the \p Need bytes it
  /// names (the whole object by default) against the arena's bump
  /// frontier first: a corrupted handle must produce a report line, not
  /// an out-of-region dereference. Returns null for both the null handle
  /// and a failed check, so callers treat the result like the pointer it
  /// replaces.
  template <typename T>
  const T *decode(Handle<T> H, const char *What, uint64_t Need = sizeof(T)) {
    if (!H.Bits || !within(H.Bits, Need, What))
      return nullptr;
    return RT.Mem.ptr(H);
  }

  /// Charges the \p Bytes node at \p T to the trace's accounted bytes
  /// and marks the grains it covers (until the first overlap).
  void charge(const TraceNode *T, size_t Bytes) {
    Rep.TraceBytes += Arena::accountedSize(Bytes);
    if (!ExtentsSound)
      return;
    const auto *Base = static_cast<const char *>(RT.Mem.regionBase());
    const size_t Grain = Arena::HandleGrain;
    size_t G = size_t(reinterpret_cast<const char *>(T) - Base) / Grain;
    size_t End = std::min(G + Arena::accountedSize(Bytes) / Grain,
                          Covered.size() * 64);
    for (; G < End; ++G) {
      uint64_t Bit = uint64_t(1) << (G % 64);
      if (Covered[G / 64] & Bit) {
        // A timestamp link forged to name a spot inside another live
        // node, or an arity or size that carries a node into the next.
        fail("arena: two live trace blocks overlap at region offset 0x%llx",
             (unsigned long long)(G * Grain));
        ExtentsSound = false;
        return;
      }
      Covered[G / 64] |= Bit;
    }
  }

  /// Decodes the closure stored \p Fixed bytes into the node at handle
  /// \p Bits: its header, then the whole frame its arity implies, both
  /// bounds-checked before anything reads an argument. Null (with a
  /// report line) when either check fails.
  const Closure *nodeClosure(uint32_t Bits, size_t Fixed, const char *What) {
    if (!within(Bits, Fixed + sizeof(Closure), What))
      return nullptr;
    const auto *C = reinterpret_cast<const Closure *>(
        static_cast<const char *>(RT.Mem.regionBase()) +
        uint64_t(Bits) * Arena::HandleGrain + Fixed);
    if (!within(Bits, Fixed + C->byteSize(), What))
      return nullptr;
    if (!C->ownedByTrace())
      fail("%s: not marked trace-owned", What);
    return C;
  }

  /// OrderList::precedes over bounds-checked decodes: false (with a
  /// report line) when either node's group handle is forged.
  bool ordered(const OmNode *A, const OmNode *B) {
    if (A->Group == B->Group)
      return A->Label < B->Label;
    const OmGroup *GA = decode(A->Group, "om: node group");
    const OmGroup *GB = decode(B->Group, "om: node group");
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
    checkArena();
    checkMemos();
  }

  //===------------------------------------------------------------===//
  // Pass 1: order-maintenance structure
  //===------------------------------------------------------------===//

  void checkOrderStructure() {
    const OrderList &Om = RT.Om;
    const OmNode *Base = decode(Om.Base, "om: base");
    if (!Base) {
      fail("om: no base timestamp");
      return;
    }
    if (Base->Prev)
      fail("om: base timestamp has a predecessor");
    size_t SeenNodes = 0;
    // The cursor and the trace end are raw pointers; they must name
    // members, not merely in-bounds addresses (a freed node would pass a
    // bounds check).
    bool CursorSeen = false, TraceEndSeen = false;
    // Every link is decoded through decode() before it is followed, so a
    // forged handle becomes a report line instead of a wild read; the
    // group walk is capped at one group per node so a forged cycle
    // terminates.
    Handle<OmNode> Expected = Om.Base; // Next node the chain should yield.
    const OmNode *PrevN = nullptr;
    Handle<OmGroup> PrevGH{};
    const OmGroup *PrevG = nullptr;
    for (Handle<OmGroup> GH = Om.FirstGroup; GH;) {
      const OmGroup *G = decode(GH, "om: group link");
      if (!G)
        return;
      if (++Groups > Om.Size) {
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
      for (uint32_t I = 0; I < G->Count; ++I) {
        if (!NH) {
          fail("om: group Count overruns the node chain");
          break;
        }
        const OmNode *N = decode(NH, "om: node link");
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
        if (const OmNode *Succ = decode(N->Next, "om: node link"))
          if (Succ->Prev != NH)
            fail("om: node back-link broken");
        CursorSeen |= N == RT.Main.Cursor;
        TraceEndSeen |= N == RT.TraceEnd;
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
    if (!CursorSeen)
      fail("om: the cursor is not a member of the order list");
    if (!TraceEndSeen)
      fail("om: TraceEnd is not a member of the order list");
  }

  //===------------------------------------------------------------===//
  // Pass 2: trace walk
  //===------------------------------------------------------------===//

  /// The read whose End member is the timestamp \p N, or null (with a
  /// report line) when that address would fall outside the arena.
  const ReadNode *endOwner(const OmNode *N) {
    uint64_t Off = uint64_t(reinterpret_cast<const char *>(N) -
                            static_cast<const char *>(RT.Mem.regionBase()));
    if (Off < ReadEndOffset + Arena::HandleGrain) {
      fail("trace: end stamp at offset %llu has no room for its read",
           (unsigned long long)Off);
      return nullptr;
    }
    return ReadNode::ofEnd(N);
  }

  void walkTrace() {
    const size_t Pad = RT.nodePadBytes();
    Covered.assign((RT.Mem.bumpUsedBytes() / Arena::HandleGrain + 63) / 64, 0);
    std::vector<const ReadNode *> OpenReads;
    const OmNode *Last = decode(RT.Om.Base, "trace: base");
    if (!Last)
      return; // Pass 1 reported it.
    size_t Steps = 0;
    for (Handle<OmNode> NH = Last->Next; NH;) {
      const OmNode *N = decode(NH, "trace: timestamp link");
      if (!N)
        break;
      if (++Steps >= RT.Om.size()) { // Size counts the base as well.
        fail("trace: timestamp chain longer than the order list (cycle)");
        break;
      }
      const uint32_t Bits = NH.Bits;
      Last = N;
      NH = N->Next;
      // The innermost open read's end stamp is recognized by address, so
      // a corrupted kind there is reported instead of trusted.
      if (!OpenReads.empty() && N == &OpenReads.back()->End) {
        if (N->Kind != TraceKind::End)
          fail("trace: read's end stamp carries kind %u, not End",
               unsigned(N->Kind));
        OpenReads.pop_back();
        continue;
      }
      size_t NodeBytes = 0;
      switch (N->Kind) {
      case TraceKind::End: {
        const ReadNode *R = endOwner(N);
        if (R && R->Kind != TraceKind::Read)
          fail("trace: end stamp embedded in a non-read node (kind %u)",
               unsigned(R->Kind));
        else if (OpenReads.empty())
          fail("trace: interval end with no open read");
        else
          fail("trace: read intervals not properly nested");
        continue;
      }
      case TraceKind::Base:
        fail("trace: non-base timestamp carries the base kind");
        continue;
      case TraceKind::Read:
        NodeBytes = sizeof(ReadNode);
        break;
      case TraceKind::Write:
        NodeBytes = sizeof(WriteNode);
        break;
      case TraceKind::Alloc:
        NodeBytes = sizeof(AllocNode);
        break;
      default:
        fail("trace: timestamp with invalid kind %u", unsigned(N->Kind));
        continue;
      }
      // The stamp's kind names the node around it; the node's fixed part
      // must lie below the frontier before any field past the stamp is
      // read, and the closure and block it holds before they are sized.
      if (!within(Bits, NodeBytes, "trace: node"))
        continue;
      const auto *T = static_cast<const TraceNode *>(N);
      if (!LiveNodes.insert(T).second) {
        fail("trace: node stamped at two timestamps");
        continue;
      }
      switch (T->Kind) {
      case TraceKind::Read: {
        const auto *R = static_cast<const ReadNode *>(T);
        Reads.push_back(R);
        if (const Modref *M = decode(R->Ref, "read modifiable"))
          UsesByRef[M].push_back(R);
        else if (!R->Ref)
          fail("read: null modifiable");
        if (!ordered(R, &R->End))
          fail("read: End does not follow Start");
        OpenReads.push_back(R);
        if (const WriteNode *G = decode(R->Gov, "governing-write cache"))
          if (G->Kind != TraceKind::Write)
            fail("read: governing-write cache names a node of kind %u",
                 unsigned(G->Kind));
        if (const Closure *Clo =
                nodeClosure(Bits, sizeof(ReadNode), "read closure"))
          NodeBytes += Clo->byteSize();
        else
          Unsound.insert(R);
        break;
      }
      case TraceKind::Write: {
        const auto *W = static_cast<const WriteNode *>(T);
        Writes.push_back(W);
        if (const Modref *M = decode(W->Ref, "write modifiable"))
          UsesByRef[M].push_back(W);
        else if (!W->Ref)
          fail("write: null modifiable");
        break;
      }
      case TraceKind::Alloc: {
        const auto *A = static_cast<const AllocNode *>(T);
        Allocs.push_back(A);
        if (A->Size == 0)
          fail("alloc: zero-sized block");
        const Closure *Init =
            nodeClosure(Bits, sizeof(AllocNode), "alloc initializer");
        if (!Init) {
          Unsound.insert(A);
          break;
        }
        NodeBytes += Init->byteSize();
        // The block follows the initializer; a Size carrying it past the
        // frontier is reported here, one carrying it into the next live
        // node by the overlap check below.
        if (within(Bits, NodeBytes + A->Size, "alloc block"))
          NodeBytes += A->Size;
        else
          Unsound.insert(A);
        break;
      }
      default:
        break;
      }
      charge(T, NodeBytes + Pad);
    }
    if (!OpenReads.empty())
      fail("trace: %zu read interval(s) missing their end markers",
           OpenReads.size());
    if (RT.TraceEnd != Last)
      fail("trace: TraceEnd is not the maximum timestamp");
    // Work a core or a propagation parks for later is drained before the
    // meta phase resumes.
    if (!RT.Main.PendingReads.empty())
      fail("trace: pending-read stack not empty at meta time");
    if (!RT.PendingReadMemo.empty() || !RT.PendingAllocMemo.empty())
      fail("trace: deferred memo inserts not flushed at meta time");
    if (!RT.Main.DeferredFrees.empty())
      fail("trace: deferred frees not flushed at meta time");
    if (RT.Om.inAppendMode())
      fail("om: order list still in append mode at meta time");
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
        if (decode(U->PrevUse, "uselist prev") != Prev)
          fail("uselist: PrevUse back-link broken");
        if (Prev && !ordered(Prev, U))
          fail("uselist: uses not sorted by timestamp");
        Prev = U;
        // Only a live node's fields past the Use header are in bounds.
        if (!LiveNodes.count(U)) {
          fail("uselist: member is not a live trace node (dangling use)");
        } else if (U->Kind == TraceKind::Read) {
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

  bool liveRead(const ReadNode *R) const {
    return LiveNodes.count(R) && R->Kind == TraceKind::Read;
  }

  void checkHeap() {
    const auto &Heap = RT.Main.Heap;
    for (size_t I = 0; I < Heap.size(); ++I) {
      const ReadNode *R = Heap[I];
      if (!liveRead(R)) {
        fail("heap: entry %zu is not a live read node", I);
        continue;
      }
      if (R->HeapIndex != static_cast<int32_t>(I))
        fail("heap: entry %zu carries HeapIndex %d", I, R->HeapIndex);
      if (!R->isDirty())
        fail("heap: entry %zu is not dirty", I);
      const ReadNode *Parent = I > 0 ? Heap[(I - 1) / 2] : nullptr;
      if (Parent && liveRead(Parent) && ordered(R, Parent))
        fail("heap: min-heap property violated at entry %zu", I);
    }
    size_t DirtyReads = 0;
    for (const ReadNode *R : Reads) {
      if (R->HeapIndex < -1)
        fail("read: HeapIndex %d is neither -1 nor a queue slot",
             R->HeapIndex);
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
  // Pass 4: arena reconciliation
  //===------------------------------------------------------------===//

  void checkArena() {
    // The trace walk summed its nodes (closures and blocks included) into
    // TraceBytes; add the order list's own blocks (the groups pass 1
    // walked, plus the base) and the memo buckets.
    size_t OmBytes = Arena::accountedSize(sizeof(OmNode)) +
                     Groups * Arena::accountedSize(sizeof(OmGroup));
    size_t MemoBytes = RT.ReadMemo.bucketBytes() + RT.AllocMemo.bucketBytes();
    size_t Expected = Rep.TraceBytes + OmBytes + MemoBytes + RT.MetaBytes;
    size_t Live = RT.Mem.liveBytes();
    if (Expected != Live) {
      ExtentsSound = false;
      if (Expected < Live)
        fail("arena: %zu live bytes but only %zu reachable from the trace, "
             "the order list, the memo buckets, or tracked meta blocks "
             "(leak of %zu bytes; untracked arena().allocate()?)",
             Live, Expected, Live - Expected);
      else
        fail("arena: %zu reachable bytes exceed %zu live bytes "
             "(double free of %zu bytes)",
             Expected, Live, Expected - Live);
    }
  }

  //===------------------------------------------------------------===//
  // Pass 5: memo indexes
  //===------------------------------------------------------------===//

  template <typename NodeT, typename KeyFn>
  void checkMemoTable(const MemoTable<NodeT> &Table, const char *Name,
                      TraceKind Kind,
                      const std::vector<const NodeT *> &Expected,
                      uint64_t Seed, KeyFn MakeKey) {
    const size_t NBuckets = Table.bucketCount();
    if (NBuckets && (NBuckets < 64 || (NBuckets & (NBuckets - 1)))) {
      fail("%s memo: bucket count %zu is not a power of two of at least 64",
           Name, NBuckets);
      return;
    }
    const Handle<NodeT> *Heads = Table.bucketArray();
    const std::string HeadWhat = std::string(Name) + " memo bucket head";
    MemoHashBatch<NodeT> Hashes(Seed);
    std::vector<uint64_t> Key;
    std::unordered_set<const NodeT *> InTable;
    for (size_t B = 0; B < NBuckets; ++B) {
      const NodeT *Prev = nullptr;
      for (const NodeT *N = decode(Heads[B], HeadWhat.c_str()); N;
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
        // The key is hashed only from a live node of the table's kind
        // whose closure passed the trace walk's bounds checks, and only
        // when no node's extent is in doubt.
        if (!LiveNodes.count(N))
          fail("%s memo: entry is not a live trace node", Name);
        else if (N->Kind != Kind)
          fail("%s memo: entry is a node of kind %u", Name,
               unsigned(N->Kind));
        else if (ExtentsSound && !Unsound.count(N)) {
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
    checkMemoTable(RT.ReadMemo, "read", TraceKind::Read, Reads, ReadMemoSeed,
                   [&](const ReadNode *R, std::vector<uint64_t> &W) {
                     readMemoKey(RT.Mem.ptr(R->Ref), R->closure(), W);
                   });
    checkMemoTable(RT.AllocMemo, "alloc", TraceKind::Alloc, Allocs,
                   AllocMemoSeed,
                   [&](const AllocNode *A, std::vector<uint64_t> &W) {
                     allocMemoKey(A->init(), A->Size, W);
                   });
  }
};

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
