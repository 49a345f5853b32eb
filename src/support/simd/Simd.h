//===- support/simd/Simd.h - Linear-sweep kernels + counters ---*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime's linear sweeps behind one set of counted entry points:
/// the streaming checksum fold, batched memo hashing, the handle bounds
/// sweep, bucket index computation and the OM label rewrite.
///
/// Only the checksum fold (which batched memo hashing shares) is worth
/// vector code: it is one plain loop in Simd.cpp that the compiler clones
/// for x86-64-v4, x86-64-v3 and the baseline, and the loader picks the
/// clone once per process. Every clone computes the same function, so
/// snapshots, memo bucketing and trace digests never depend on the host.
/// The other sweeps are plain loops.
///
/// The entry points also maintain per-kernel call/byte counters that the
/// propagation profiler emits (see runtime/Profile.h), so bench output
/// can attribute time to them.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_SUPPORT_SIMD_SIMD_H
#define CEAL_SUPPORT_SIMD_SIMD_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>

namespace ceal::simd {

//===----------------------------------------------------------------------===//
// Kernel contracts
//===----------------------------------------------------------------------===//

/// Byte size of one handle unit in the omRelabel chain encoding: a
/// handle names the node at region offset handle * OmHandleGrain (the
/// arena allocation grain; om/OrderList.cpp asserts they agree).
inline constexpr size_t OmHandleGrain = 8;

/// Independent 64-bit mix streams per block. The serial dependence
/// inside one stream is a ~15-cycle multiply chain; 32 interleaved
/// streams keep the multiplier busy, whether as four 8-lane AVX-512
/// accumulators or as plain scalar ILP.
inline constexpr size_t HashLanes = 32;
/// Checksum64 consumes input in blocks of one 8-byte word per lane.
inline constexpr size_t ChecksumBlockBytes = HashLanes * 8;

/// The xorshift-multiply word mixer shared by the memo indexes
/// (runtime/MemoTable.h hashMixWord) and Checksum64.
inline uint64_t mixStep(uint64_t H, uint64_t W) {
  H ^= W + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  return H;
}

/// Folds \p NBlocks consecutive 256-byte blocks into the 32 lane
/// accumulators: for each block b and lane l,
///   Lanes[l] = mixStep(Lanes[l], load64(Data + b*256 + l*8))
/// with host-order 64-bit loads. \p Data may be unaligned. Defined in
/// Simd.cpp, where the compiler clones it per ISA level.
void mixSweep(uint64_t *Lanes, const unsigned char *Data, size_t NBlocks);

//===----------------------------------------------------------------------===//
// Variant reporting
//===----------------------------------------------------------------------===//

/// The ISA level of the mixSweep clone this process runs. The codes are
/// stable because benchmark reports record them as numbers (perfbench's
/// `simd.variant`); code 1 belonged to a deleted SSE4.2 table and stays
/// unused.
enum class Variant : uint8_t { Scalar = 0, Avx2 = 2, Avx512 = 3 };

const char *variantName(Variant V);

/// The clone the loader picks on this CPU: x86-64-v4 → Avx512,
/// x86-64-v3 → Avx2, anything else (and every non-x86 build) → Scalar.
Variant selected();

//===----------------------------------------------------------------------===//
// Per-kernel accounting
//===----------------------------------------------------------------------===//

enum class Kernel : uint8_t {
  ChecksumBlocks = 0,
  HashBatch = 1,
  BoundsCheckU32 = 2,
  BucketIndex = 3,
  OmRelabel = 4,
};
inline constexpr unsigned NumKernels = 5;

const char *kernelName(Kernel K);

/// Process-global counters, one row per kernel: calls through the
/// counted entry points below and input bytes processed. Relaxed
/// atomics — the hot paths that call these kernels are either
/// single-threaded phases or already per-batch, so one add per *batch*
/// is noise.
struct KernelCounters {
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint64_t> Bytes{0};
};
KernelCounters &counters(Kernel K);

/// Emits {"selected": ..., "kernels": [{"kernel", "calls", "bytes"},
/// ...]} for the profiler/bench JSON.
void writeCountersJson(std::ostream &OS);

inline void note(Kernel K, uint64_t Bytes) {
  KernelCounters &C = counters(K);
  C.Calls.fetch_add(1, std::memory_order_relaxed);
  C.Bytes.fetch_add(Bytes, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Counted entry points (what production code calls)
//===----------------------------------------------------------------------===//

inline void checksumBlocks(uint64_t *Lanes, const unsigned char *Data,
                           size_t NBlocks) {
  note(Kernel::ChecksumBlocks, uint64_t(NBlocks) * ChecksumBlockBytes);
  mixSweep(Lanes, Data, NBlocks);
}

/// 32 independent hash streams over a lane-major word matrix:
///   H[l] = mixStep(H[l], W[w*32 + l]) for w = 0 .. NWords-1.
/// Callers seed H and read the final states back out. Word w of every
/// lane is exactly one checksum block, so this is the same sweep.
inline void hashBatch(uint64_t *H, const uint64_t *W, size_t NWords) {
  note(Kernel::HashBatch, uint64_t(NWords) * HashLanes * 8);
  mixSweep(H, reinterpret_cast<const unsigned char *>(W), NWords);
}

/// First index I with A[I] >= Limit (unsigned), or \p N when none.
inline size_t boundsCheckU32(const uint32_t *A, size_t N, uint32_t Limit) {
  note(Kernel::BoundsCheckU32, uint64_t(N) * 4);
  for (size_t I = 0; I < N; ++I)
    if (A[I] >= Limit)
      return I;
  return N;
}

/// Out[i] = load32((const char *)Nodes[i] + HashOff) & Mask for
/// i = 0 .. N-1: the memo bucket index of each node under a power-of-two
/// bucket count. The field is read through memcpy because callers know
/// it by offset, not by type.
inline void bucketIndex(const void *const *Nodes, size_t N, size_t HashOff,
                        uint32_t Mask, uint32_t *Out) {
  note(Kernel::BucketIndex, uint64_t(N) * (sizeof(void *) + 4));
  for (size_t I = 0; I < N; ++I) {
    uint32_t H;
    std::memcpy(&H, static_cast<const char *>(Nodes[I]) + HashOff, 4);
    Out[I] = H & Mask;
  }
}

/// Handle-linked chain label rewrite (OM relabel). Nodes live in one
/// arena region: node 0 sits at Region + First * OmHandleGrain, and node
/// i+1 at Region + load_u32(node_i + NextOff) * OmHandleGrain. Stores
///   Base + Gap * (i + 1)  at  node_i + LabelOff
/// for i = 0 .. Count-1.
inline void omRelabel(void *Region, uint32_t First, uint64_t Count,
                      uint64_t Base, uint64_t Gap, size_t NextOff,
                      size_t LabelOff) {
  note(Kernel::OmRelabel, Count * (sizeof(uint32_t) + 8));
  uint32_t H = First;
  uint64_t Label = Base;
  for (uint64_t I = 0; I < Count; ++I) {
    char *Node = static_cast<char *>(Region) + uint64_t(H) * OmHandleGrain;
    Label += Gap;
    std::memcpy(Node + LabelOff, &Label, 8);
    std::memcpy(&H, Node + NextOff, sizeof(H));
  }
}

} // namespace ceal::simd

#endif // CEAL_SUPPORT_SIMD_SIMD_H
