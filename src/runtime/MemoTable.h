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
/// probe resolves handles against that one region base.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_MEMOTABLE_H
#define CEAL_RUNTIME_MEMOTABLE_H

#include "support/Arena.h"
#include "support/simd/Simd.h"

#include <cstddef>
#include <cstdint>
#include <vector>

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
/// All nodes must come from the single Arena the table is bound to.
template <typename NodeT> class MemoTable {
public:
  explicit MemoTable(Arena &A) : Mem(&A), Buckets(64, Handle<NodeT>{}) {}

  /// Resolves a chain handle (auditors and chain walks).
  NodeT *resolve(Handle<NodeT> H) const { return Mem->ptr(H); }
  /// The node after \p N on its chain, or null.
  NodeT *next(const NodeT *N) const { return Mem->ptr(N->Memo.Next); }

  /// Inserts \p N; N->Memo.Hash must already be set.
  void insert(NodeT *N) {
    // Load factor 1: every chain probe is a dependent cache miss on the
    // propagation hot path, so buckets are kept at least as numerous as
    // entries (growing at 2 measurably lengthened memo lookups).
    if (Count >= Buckets.size())
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
    if (Want > Buckets.size())
      rehashTo(Want);
  }

  /// Bulk-inserts \p N nodes (each with Memo.Hash already set) after a
  /// single up-front reserve. The initial run inserts every traced
  /// read/alloc into a memo index it will not probe until the first
  /// propagation, so construction defers the inserts and lands them here.
  /// The walk is blocked: each block prefetches its node lines, computes
  /// every bucket index in one vectorized gather-and-mask pass
  /// (simd::bucketIndex — the hash field is loaded by byte offset, which
  /// is why the offset is computed at runtime rather than via offsetof on
  /// a non-standard-layout node type), then runs the inserts with the
  /// bucket lines — the random-address cache misses that dominate
  /// pay-as-you-go insertion — prefetched from the precomputed indexes.
  void insertBulk(NodeT *const *Nodes, size_t N) {
    reserve(Count + N);
    constexpr size_t Block = 256;
    constexpr size_t BucketAhead = 8;
    const uint32_t Mask = uint32_t(Buckets.size() - 1);
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
    return Mem->ptr(Buckets[bucketIndex(Hash)]);
  }

  size_t size() const { return Count; }

  /// Bucket enumeration for auditors (TraceAudit walks every chain to
  /// check acyclicity, hash placement, and membership).
  size_t bucketCount() const { return Buckets.size(); }
  NodeT *bucketHead(size_t Index) const { return Mem->ptr(Buckets[Index]); }
  /// The packed bucket array itself, for auditors that sweep every head
  /// handle at once (TraceAudit's vectorized bounds pre-check) rather
  /// than resolving them one by one.
  const Handle<NodeT> *bucketArray() const { return Buckets.data(); }
  /// The bucket \p Hash maps to under the current table size.
  size_t bucketFor(uint64_t Hash) const { return bucketIndex(Hash); }

private:
  /// The snapshot subsystem serializes and restores the bucket array and
  /// count directly (chain links live inside the nodes themselves).
  friend class Snapshot;

  size_t bucketIndex(uint64_t Hash) const {
    // Bucket counts stay well under 2^32, so bucketing by the stored
    // 32-bit hash and by the full 64-bit hash agree.
    return Hash & (Buckets.size() - 1);
  }

  void grow() { rehashTo(Buckets.size() * 4); }

  void rehashTo(size_t NewBucketCount) {
    std::vector<Handle<NodeT>> Old = std::move(Buckets);
    Buckets.assign(NewBucketCount, Handle<NodeT>{});
    for (Handle<NodeT> ChainH : Old) {
      NodeT *Chain = Mem->ptr(ChainH);
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
  }

  Arena *Mem;
  std::vector<Handle<NodeT>> Buckets;
  size_t Count = 0;
};

} // namespace ceal

#endif // CEAL_RUNTIME_MEMOTABLE_H
