//===- support/simd/Simd.h - SIMD kernels + CPU-feature dispatch -*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vector-kernel library behind the runtime's linear sweeps: batched
/// memo hashing, streaming checksum blocks, handle bounds sweeps, bucket
/// index computation, and OM label rewrites. Modeled on the per-space
/// kernel tables of vector-similarity libraries: one scalar reference
/// implementation defines the semantics, and AVX2/AVX-512 variants —
/// compiled only when cmake/cpu_features.cmake finds the toolchain
/// support — must produce bit-identical results (enforced by
/// tests/SimdKernelsTest and the bench differential check).
///
/// Dispatch happens once per process, on first use: a CPUID probe picks
/// the widest variant the executing CPU supports, clamped by the
/// CEAL_SIMD environment override (scalar|avx2|avx512|auto), which
/// is the kill switch — CEAL_SIMD=scalar forces the reference path
/// everywhere. Because every variant computes the same function, the
/// selection can never change results, only speed; snapshots, memo
/// bucketing, and trace digests are identical across variants.
///
/// The entry points below (checksumBlocks, hashBatch, ...) also maintain
/// per-kernel call/byte counters that the propagation profiler emits
/// (see runtime/Profile.h), so bench output can attribute wins.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_SUPPORT_SIMD_SIMD_H
#define CEAL_SUPPORT_SIMD_SIMD_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace ceal::simd {

//===----------------------------------------------------------------------===//
// Kernel contracts
//===----------------------------------------------------------------------===//

/// Byte size of one handle unit in the OmRelabel chain encoding: a
/// handle names the node at region offset handle * OmHandleGrain (the
/// arena allocation grain; om/OrderList.cpp asserts they agree).
inline constexpr size_t OmHandleGrain = 8;

/// Independent 64-bit mix streams per vector pass. Chosen so the AVX-512
/// path runs four 8-lane accumulators: the serial dependence inside one
/// stream is a ~15-cycle multiply chain, and 32 interleaved streams keep
/// the multiplier busy on every implementation down to plain scalar ILP.
inline constexpr size_t HashLanes = 32;
/// Checksum64 consumes input in blocks of one 8-byte word per lane.
inline constexpr size_t ChecksumBlockBytes = HashLanes * 8;

/// The xorshift-multiply word mixer shared by the memo indexes
/// (runtime/MemoTable.h hashMixWord) and Checksum64. Every kernel
/// variant must implement exactly this step.
inline uint64_t mixStep(uint64_t H, uint64_t W) {
  H ^= W + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  return H;
}

/// One kernel variant: a table of function pointers with identical
/// semantics. The scalar table is the reference; the others exist only
/// to be faster.
struct Ops {
  /// Folds \p NBlocks consecutive 256-byte blocks into the 32 lane
  /// accumulators: for each block b and lane l,
  ///   Lanes[l] = mixStep(Lanes[l], LE64(Data + b*256 + l*8)).
  /// \p Data may be unaligned.
  void (*ChecksumBlocks)(uint64_t *Lanes, const unsigned char *Data,
                         size_t NBlocks);

  /// 32 independent hash streams over a lane-major word matrix:
  ///   H[l] = mixStep(H[l], W[w*32 + l]) for w = 0 .. NWords-1.
  /// Callers seed H and read the final states back out.
  void (*HashBatch)(uint64_t *H, const uint64_t *W, size_t NWords);

  /// First index I with A[I] >= Limit (unsigned), or \p N when none.
  /// \p A may be unaligned (4-byte alignment only).
  size_t (*BoundsCheckU32)(const uint32_t *A, size_t N, uint32_t Limit);

  /// Out[i] = load32((const char *)Nodes[i] + HashOff) & Mask for
  /// i = 0 .. N-1: the memo bucket index of each node under a
  /// power-of-two bucket count. Every Nodes[i] must be readable at
  /// [HashOff, HashOff+4).
  void (*BucketIndex)(const void *const *Nodes, size_t N, size_t HashOff,
                      uint32_t Mask, uint32_t *Out);

  /// Handle-linked chain label rewrite (OM group relabel). Nodes live in
  /// one arena region: node 0 sits at Region + First * OmHandleGrain, and
  /// node i+1 at Region + load_u32(node_i + NextOff) * OmHandleGrain.
  /// Store
  ///   Base + Gap * (i + 1)  at  node_i + LabelOff
  /// for i = 0 .. Count-1. The Next field of every one of the Count
  /// nodes may be read (matching the plain handle walk it replaces).
  ///
  /// \p SafeBytes is an optional speculation window: every address in
  /// [Region + OmHandleGrain, Region + SafeBytes) is guaranteed readable
  /// even if it is not a node of this chain (the arena's bump extent).
  /// Vector variants use it to verify constant-stride runs with
  /// independent loads — candidate handles are derived, range-checked
  /// against the window, loaded in parallel, and only *verified* nodes
  /// are written. Pass 0 to forbid speculation; all variants then
  /// degrade to the serial chase.
  void (*OmRelabel)(void *Region, uint32_t First, uint64_t Count,
                    uint64_t Base, uint64_t Gap, size_t NextOff,
                    size_t LabelOff, uint64_t SafeBytes);
};

//===----------------------------------------------------------------------===//
// Variants and dispatch
//===----------------------------------------------------------------------===//

/// The codes are stable because benchmark reports record them as numbers
/// (perfbench's `simd.variant`); code 1 belonged to a deleted SSE4.2
/// table and stays unused.
enum class Variant : uint8_t { Scalar = 0, Avx2 = 2, Avx512 = 3 };
/// One past the largest code. Loops over codes see the unused one as a
/// variant that is never compiled.
inline constexpr unsigned NumVariants = 4;

const char *variantName(Variant V);

/// Whether this binary contains code for \p V (compile-time gate).
bool variantCompiled(Variant V);
/// Whether the executing CPU can run \p V (CPUID probe; Scalar: always).
bool cpuSupports(Variant V);
/// The widest variant that is both compiled and CPU-supported.
Variant maxSupported();

/// The dispatcher-selected variant: min(maxSupported, CEAL_SIMD
/// override). Resolved once, on first call, and stable thereafter.
Variant selected();
/// The op table of the selected variant.
const Ops &ops();

/// The op table for a specific variant, or null when it is not compiled
/// in or the CPU cannot run it. Lets tests and the bench differential
/// check run every variant in one process regardless of CEAL_SIMD.
const Ops *variantOps(Variant V);

//===----------------------------------------------------------------------===//
// Per-kernel dispatch accounting
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

/// Emits {"selected": ..., "max_supported": ..., "kernels": [{"kernel",
/// "variant", "calls", "bytes"}, ...]} for the profiler/bench JSON.
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
  ops().ChecksumBlocks(Lanes, Data, NBlocks);
}

inline void hashBatch(uint64_t *H, const uint64_t *W, size_t NWords) {
  note(Kernel::HashBatch, uint64_t(NWords) * HashLanes * 8);
  ops().HashBatch(H, W, NWords);
}

inline size_t boundsCheckU32(const uint32_t *A, size_t N, uint32_t Limit) {
  note(Kernel::BoundsCheckU32, uint64_t(N) * 4);
  return ops().BoundsCheckU32(A, N, Limit);
}

inline void bucketIndex(const void *const *Nodes, size_t N, size_t HashOff,
                        uint32_t Mask, uint32_t *Out) {
  note(Kernel::BucketIndex, uint64_t(N) * (sizeof(void *) + 4));
  ops().BucketIndex(Nodes, N, HashOff, Mask, Out);
}

inline void omRelabel(void *Region, uint32_t First, uint64_t Count,
                      uint64_t Base, uint64_t Gap, size_t NextOff,
                      size_t LabelOff, uint64_t SafeBytes) {
  note(Kernel::OmRelabel, Count * (sizeof(uint32_t) + 8));
  ops().OmRelabel(Region, First, Count, Base, Gap, NextOff, LabelOff,
                  SafeBytes);
}

//===----------------------------------------------------------------------===//
// Variant tables (internal linkage points for SimdDispatch.cpp)
//===----------------------------------------------------------------------===//

const Ops &scalarOps();
#ifdef CEAL_SIMD_HAVE_AVX2
const Ops &avx2Ops();
#endif
#ifdef CEAL_SIMD_HAVE_AVX512
const Ops &avx512Ops();
#endif

} // namespace ceal::simd

#endif // CEAL_SUPPORT_SIMD_SIMD_H
