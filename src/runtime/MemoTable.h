//===- runtime/MemoTable.h - Intrusive chained memo tables -----*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small intrusive chained hash table used for the read and allocation
/// memo indexes. Nodes embed a MemoLinks record (chain handles plus the
/// stored hash); key equality is the caller's business (the table only
/// buckets by hash), so one template serves both ReadNode and AllocNode.
///
/// Chain links are 32-bit arena handles (Arena::Handle), which is why the
/// table carries a reference to the arena that owns its nodes: every
/// probe resolves handles against that one region base. The bucket array
/// is allocated from the same arena, so the trace region holds the whole
/// index: it counts in the arena's live bytes and high-water mark, and a
/// snapshot's arena image carries it (runtime/Snapshot maps it back in
/// place rather than rebuilding it).
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_MEMOTABLE_H
#define CEAL_RUNTIME_MEMOTABLE_H

#include "support/Arena.h"
#include "support/simd/Simd.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ceal {

/// Mixes a sequence of 64-bit words into a hash (xorshift-multiply).
inline uint64_t hashMixWord(uint64_t H, uint64_t W) {
  H ^= W + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  return H;
}

/// The intrusive memo-chain record every memoized trace node embeds as a
/// member named `Memo`. Hash stores the low 32 bits of the node's 64-bit
/// memo hash — the table buckets by those bits, and key comparisons
/// re-verify the full key anyway, so the upper half buys nothing at the
/// cost of four bytes per node. Members are deliberately uninitialized
/// (the RawInit trace-node constructors skip them; Hash is stamped by the
/// tracing op and the links by table insertion).
template <typename NodeT> struct MemoLinks {
  Handle<NodeT> Next;
  Handle<NodeT> Prev;
  uint32_t Hash;
};

/// Intrusive chained hash table over NodeT with a MemoLinks member `Memo`.
/// All nodes must come from the single Arena the table is bound to, and
/// so does the bucket array. A pristine table has no array (it allocates
/// on its first reserve() or insert()), so a fresh Runtime's arena holds
/// nothing but its order list.
template <typename NodeT> class MemoTable {
public:
  explicit MemoTable(Arena &A) : Mem(&A) {}

  /// Resolves a chain handle (auditors and chain walks).
  NodeT *resolve(Handle<NodeT> H) const { return Mem->ptr(H); }
  /// The node after \p N on its chain, or null.
  NodeT *next(const NodeT *N) const { return Mem->ptr(N->Memo.Next); }

  /// Inserts \p N; N->Memo.Hash must already be set.
  void insert(NodeT *N) {
    // Load factor 1: every chain probe is a dependent cache miss on the
    // propagation hot path, so buckets are kept at least as numerous as
    // entries (growing at 2 measurably lengthened memo lookups).
    if (Count >= NBuckets)
      grow();
    size_t Index = bucketIndex(N->Memo.Hash);
    Handle<NodeT> HN = Mem->handle(N);
    N->Memo.Prev = Handle<NodeT>{};
    N->Memo.Next = Buckets[Index];
    if (NodeT *Head = Mem->ptr(Buckets[Index]))
      Head->Memo.Prev = HN;
    Buckets[Index] = HN;
    ++Count;
  }

  /// Ensures at least \p Expected buckets (rounded up to a power of two)
  /// so that \p Expected insertions proceed without an intermediate grow
  /// or rehash. Never shrinks.
  void reserve(size_t Expected) {
    size_t Want = 64;
    while (Want < Expected)
      Want <<= 1;
    if (Want > NBuckets)
      rehashTo(Want);
  }

  /// Bulk-inserts \p N nodes (each with Memo.Hash already set) after a
  /// single up-front reserve. The initial run inserts every traced
  /// read/alloc into a memo index it will not probe until the first
  /// propagation, so construction defers the inserts and lands them here.
  /// The walk is blocked: each block prefetches its node lines, computes
  /// every bucket index in one gather-and-mask pass
  /// (simd::bucketIndex — the hash field is loaded by byte offset, which
  /// is why the offset is computed at runtime rather than via offsetof on
  /// a non-standard-layout node type), then runs the inserts with the
  /// bucket lines — the random-address cache misses that dominate
  /// pay-as-you-go insertion — prefetched from the precomputed indexes.
  void insertBulk(NodeT *const *Nodes, size_t N) {
    if (N == 0)
      return;
    reserve(Count + N);
    constexpr size_t Block = 256;
    constexpr size_t BucketAhead = 8;
    const uint32_t Mask = uint32_t(NBuckets - 1);
    uint32_t Idx[Block];
    for (size_t Base = 0; Base < N; Base += Block) {
      const size_t BN = N - Base < Block ? N - Base : Block;
      for (size_t I = 0; I < BN; ++I)
        __builtin_prefetch(Nodes[Base + I], 1);
      const size_t HashOff =
          size_t(reinterpret_cast<const char *>(&Nodes[Base]->Memo.Hash) -
                 reinterpret_cast<const char *>(Nodes[Base]));
      simd::bucketIndex(
          reinterpret_cast<const void *const *>(Nodes + Base), BN, HashOff,
          Mask, Idx);
      for (size_t I = 0; I < BucketAhead && I < BN; ++I)
        __builtin_prefetch(&Buckets[Idx[I]], 1);
      for (size_t I = 0; I < BN; ++I) {
        if (I + BucketAhead < BN)
          __builtin_prefetch(&Buckets[Idx[I + BucketAhead]], 1);
        NodeT *Node = Nodes[Base + I];
        size_t Index = Idx[I];
        Handle<NodeT> HN = Mem->handle(Node);
        Node->Memo.Prev = Handle<NodeT>{};
        Node->Memo.Next = Buckets[Index];
        if (NodeT *Head = Mem->ptr(Buckets[Index]))
          Head->Memo.Prev = HN;
        Buckets[Index] = HN;
      }
    }
    Count += N;
  }

  /// Removes \p N, which must currently be in the table.
  void remove(NodeT *N) {
    if (NodeT *Prev = Mem->ptr(N->Memo.Prev))
      Prev->Memo.Next = N->Memo.Next;
    else
      Buckets[bucketIndex(N->Memo.Hash)] = N->Memo.Next;
    if (NodeT *Next = Mem->ptr(N->Memo.Next))
      Next->Memo.Prev = N->Memo.Prev;
    N->Memo.Prev = N->Memo.Next = Handle<NodeT>{};
    --Count;
  }

  /// Head of the chain that would contain nodes with \p Hash.
  NodeT *chainHead(uint64_t Hash) const {
    return NBuckets ? Mem->ptr(Buckets[bucketIndex(Hash)]) : nullptr;
  }

  size_t size() const { return Count; }

  /// Bucket enumeration for auditors (TraceAudit walks every chain to
  /// check acyclicity, hash placement, and membership). Zero for a
  /// pristine table.
  size_t bucketCount() const { return NBuckets; }
  /// The packed head handles themselves (null for a pristine table), so
  /// an auditor can bounds-check each head before resolving it.
  const Handle<NodeT> *bucketArray() const { return Buckets; }
  /// Arena bytes the bucket array occupies (its share of liveBytes()).
  size_t bucketBytes() const {
    return Arena::accountedSize(NBuckets * sizeof(Handle<NodeT>));
  }
  /// The bucket \p Hash maps to under the current table size.
  size_t bucketFor(uint64_t Hash) const { return bucketIndex(Hash); }

private:
  /// The snapshot subsystem records the bucket array's region offset and
  /// the counts, and re-adopts the array in place on load (chain links
  /// live inside the nodes themselves).
  friend class Snapshot;

  size_t bucketIndex(uint64_t Hash) const {
    // Bucket counts stay well under 2^32, so bucketing by the stored
    // 32-bit hash and by the full 64-bit hash agree.
    return Hash & (NBuckets - 1);
  }

  void grow() { rehashTo(NBuckets ? NBuckets * 4 : 64); }

  /// Moves every chain into a fresh zeroed array of \p NewBucketCount
  /// heads and frees the old array back to the arena.
  void rehashTo(size_t NewBucketCount) {
    Handle<NodeT> *Old = Buckets;
    const size_t OldCount = NBuckets;
    const size_t Bytes = NewBucketCount * sizeof(Handle<NodeT>);
    Buckets = static_cast<Handle<NodeT> *>(Mem->allocate(Bytes));
    std::memset(static_cast<void *>(Buckets), 0, Bytes);
    NBuckets = NewBucketCount;
    for (size_t I = 0; I < OldCount; ++I) {
      NodeT *Chain = Mem->ptr(Old[I]);
      while (Chain) {
        NodeT *Next = Mem->ptr(Chain->Memo.Next);
        size_t Index = bucketIndex(Chain->Memo.Hash);
        Handle<NodeT> HC = Mem->handle(Chain);
        Chain->Memo.Prev = Handle<NodeT>{};
        Chain->Memo.Next = Buckets[Index];
        if (NodeT *Head = Mem->ptr(Buckets[Index]))
          Head->Memo.Prev = HC;
        Buckets[Index] = HC;
        Chain = Next;
      }
    }
    if (Old)
      Mem->deallocate(Old, OldCount * sizeof(Handle<NodeT>));
  }

  Arena *Mem;
  /// NBuckets chain heads in Mem (a power of two, at least 64), or null
  /// with NBuckets 0 until the first reserve() or insert().
  Handle<NodeT> *Buckets = nullptr;
  size_t NBuckets = 0;
  size_t Count = 0;
};

} // namespace ceal

#endif // CEAL_RUNTIME_MEMOTABLE_H
