//===- support/simd/KernelsShared.h - Scalar kernel bodies -----*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scalar kernel bodies: KernelsScalar.cpp wraps them into the
/// reference op table, and the ISA variant TUs call them for tails and
/// speculation-failure fallbacks so every partial path is the reference
/// path by construction.
///
/// Everything here lives in an anonymous namespace ON PURPOSE: the
/// variant TUs are compiled with different ISA flags, and an `inline`
/// function included into several of them would be merged by the linker
/// into ONE copy — compiled with whichever TU's flags the linker
/// happened to keep. A scalar-table call could then execute, say,
/// auto-vectorized SSE4.2 code on a CPU without it. Internal linkage
/// gives every TU its own copy built with its own flags, so the scalar
/// table's code is always baseline code.
///
/// Foreign-offset memory (trace nodes, OM nodes seen only as region +
/// handle * grain + field offset) is accessed through memcpy: the
/// kernels know layouts by offset, not by type, and memcpy keeps that
/// strict-aliasing-clean.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_SUPPORT_SIMD_KERNELSSHARED_H
#define CEAL_SUPPORT_SIMD_KERNELSSHARED_H

#include "support/simd/Simd.h"

#include <algorithm>
#include <cstring>

namespace ceal::simd {
namespace {

inline uint64_t loadLE64(const unsigned char *P) {
  // Little-endian by definition of the checksum block format. On LE
  // hosts (every x86 variant) this is a plain 8-byte load; the byte
  // assembly form keeps scalar-only big-endian builds self-consistent
  // with their own snapshots.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  uint64_t W;
  std::memcpy(&W, P, 8);
  return W;
#else
  uint64_t W = 0;
  for (unsigned I = 0; I < 8; ++I)
    W |= uint64_t(P[I]) << (8 * I);
  return W;
#endif
}

inline void checksumBlocksScalar(uint64_t *Lanes, const unsigned char *Data,
                                 size_t NBlocks) {
  for (size_t B = 0; B < NBlocks; ++B, Data += ChecksumBlockBytes)
    for (size_t L = 0; L < HashLanes; ++L)
      Lanes[L] = mixStep(Lanes[L], loadLE64(Data + L * 8));
}

inline void hashBatchScalar(uint64_t *H, const uint64_t *W, size_t NWords) {
  for (size_t I = 0; I < NWords; ++I, W += HashLanes)
    for (size_t L = 0; L < HashLanes; ++L)
      H[L] = mixStep(H[L], W[L]);
}

inline size_t boundsCheckU32Scalar(const uint32_t *A, size_t N,
                                   uint32_t Limit) {
  for (size_t I = 0; I < N; ++I)
    if (A[I] >= Limit)
      return I;
  return N;
}

inline void bucketIndexScalar(const void *const *Nodes, size_t N,
                              size_t HashOff, uint32_t Mask, uint32_t *Out) {
  for (size_t I = 0; I < N; ++I) {
    uint32_t H;
    std::memcpy(&H, static_cast<const char *>(Nodes[I]) + HashOff, 4);
    Out[I] = H & Mask;
  }
}

/// Address of the chain node named by handle \p H in \p Region.
inline char *omNodeAt(char *Region, uint64_t H) {
  return Region + H * OmHandleGrain;
}

inline uint32_t omLoadNext(const char *N, size_t NextOff) {
  uint32_t H;
  std::memcpy(&H, N + NextOff, sizeof(H));
  return H;
}

/// The serial handle chase: relabels \p Count nodes starting at handle
/// \p First with labels Base + Gap*(StartIndex+1 ...), returning the
/// handle after the last node written. StartIndex lets batched variants
/// resume mid-chain after a speculation failure.
inline uint32_t omRelabelChase(char *Region, uint32_t First,
                               uint64_t StartIndex, uint64_t Count,
                               uint64_t Base, uint64_t Gap, size_t NextOff,
                               size_t LabelOff) {
  uint32_t H = First;
  uint64_t Label = Base + Gap * StartIndex;
  for (uint64_t I = 0; I < Count; ++I) {
    char *N = omNodeAt(Region, H);
    Label += Gap;
    std::memcpy(N + LabelOff, &Label, 8);
    H = omLoadNext(N, NextOff);
  }
  return H;
}

inline void omRelabelScalar(void *Region, uint32_t First, uint64_t Count,
                            uint64_t Base, uint64_t Gap, size_t NextOff,
                            size_t LabelOff, uint64_t) {
  if (Count)
    omRelabelChase(static_cast<char *>(Region), First, 0, Count, Base, Gap,
                   NextOff, LabelOff);
}

/// The batched rewrite every ISA table uses: the serial chase is
/// latency-bound on the Next load (each iteration's address depends on
/// the previous load), so each batch of 8 speculates that the chain is
/// a constant-stride run of handles, derives the 8 candidate handles,
/// range-checks them against the window, issues the 8 Next loads
/// *independently*, and commits label stores only to verified nodes. A
/// verified batch whose last Next continues the stride carries it into
/// the next batch, eliminating the dependent load entirely while a run
/// lasts. The win is memory-level parallelism, which is why this one
/// body serves SSE4.2 through AVX-512 — hardware gathers measured no
/// better than eight independent scalar loads here.
inline void omRelabelSpec(void *RegionV, uint32_t First, uint64_t Count,
                          uint64_t Base, uint64_t Gap, size_t NextOff,
                          size_t LabelOff, uint64_t SafeBytes) {
  constexpr int64_t Batch = 8;
  if (Count == 0)
    return;
  char *Region = static_cast<char *>(RegionV);
  const uint64_t Span = (NextOff > LabelOff ? NextOff : LabelOff) + 8;
  if (SafeBytes < OmHandleGrain + Span || Count < uint64_t(Batch)) {
    omRelabelChase(Region, First, 0, Count, Base, Gap, NextOff, LabelOff);
    return;
  }
  // Handles whose whole node extent lies inside the window: [1, HiH].
  const int64_t HiH = int64_t((SafeBytes - Span) / OmHandleGrain);
  uint32_t N = First;
  uint64_t I = 0;
  uint64_t Lab = Base; // == Base + Gap*I throughout
  int64_t S = 0;       // stride carried from a verified batch; 0 = unknown
  while (I + Batch <= Count) {
    // Handles are < 2^32, so every candidate P0 + j*S (|S| < 2^32,
    // j < 8) is exact in 64-bit signed arithmetic.
    const int64_t P0 = N;
    const bool Carried = S != 0;
    if (!Carried)
      S = int64_t(omLoadNext(omNodeAt(Region, N), NextOff)) - P0;
    // The candidates are monotone in j, so checking the two ends covers
    // every one of them.
    const int64_t Last = P0 + S * (Batch - 1);
    if (S != 0 && std::min(P0, Last) >= 1 && std::max(P0, Last) <= HiH) {
      int64_t Nx[Batch];
      for (int64_t J = 0; J < Batch; ++J)
        Nx[J] = omLoadNext(omNodeAt(Region, uint64_t(P0 + S * J)), NextOff);
      bool Run = true;
      for (int64_t J = 0; J + 1 < Batch; ++J)
        Run &= Nx[J] == P0 + S * (J + 1);
      if (Run) {
        uint64_t L = Lab;
        for (int64_t J = 0; J < Batch; ++J) {
          L += Gap;
          std::memcpy(omNodeAt(Region, uint64_t(P0 + S * J)) + LabelOff, &L,
                      8);
        }
        N = static_cast<uint32_t>(Nx[Batch - 1]);
        I += Batch;
        Lab = L;
        if (Nx[Batch - 1] - P0 != S * Batch)
          S = 0; // run ended exactly at the batch boundary
        continue;
      }
    }
    if (Carried) {
      // The carried stride mispredicted; retry this batch from the
      // chain's actual Next before surrendering to the serial chase.
      S = 0;
      continue;
    }
    N = omRelabelChase(Region, N, I, Batch, Base, Gap, NextOff, LabelOff);
    I += Batch;
    Lab += Gap * Batch;
    S = 0;
  }
  if (I < Count)
    omRelabelChase(Region, N, I, Count - I, Base, Gap, NextOff, LabelOff);
}

} // namespace
} // namespace ceal::simd

#endif // CEAL_SUPPORT_SIMD_KERNELSSHARED_H
