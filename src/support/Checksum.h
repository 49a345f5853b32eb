//===- support/Checksum.h - Streaming 64-bit content checksum --*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A streaming 64-bit checksum for the snapshot format (runtime/Snapshot).
/// Not cryptographic — it guards against I/O truncation, bit rot, and
/// fuzzer-grade corruption, where what matters is that (a) every byte of
/// input perturbs the digest, (b) the digest is independent of how the
/// input was split across update() calls, and (c) the total length is
/// mixed in, so a truncated-then-zero-padded stream cannot collide with
/// the original.
///
/// The word mixer is the same xorshift-multiply used by the memo indexes
/// (runtime/MemoTable.h hashMixWord), but the stream structure is built
/// for bandwidth: input is consumed in 256-byte blocks of 32 interleaved
/// lanes, one 8-byte word per lane per block, each lane an independent
/// serial mix chain. A single chain is latency-bound on its multiply;
/// 32 chains keep any multiplier saturated — four AVX-512 accumulators,
/// eight AVX2 ones, or plain scalar ILP — which is what lets snapshot
/// save and verified load run at memory-like speeds. The block fold is
/// support/simd/Simd.h checksumBlocks, one loop the compiler clones per
/// ISA level; every clone computes the same function, so digests do not
/// depend on the host CPU.
///
/// Words are read in host byte order, like the rest of the snapshot
/// (whose header carries an endianness tag); the digest folds the 32
/// lane states, the sub-block residual, and the total length, in that
/// order.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_SUPPORT_CHECKSUM_H
#define CEAL_SUPPORT_CHECKSUM_H

#include "support/simd/Simd.h"

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ceal {

class Checksum64 {
public:
  Checksum64() {
    // Distinct lane seeds: with equal seeds, input that is 8-byte
    // periodic would keep all lanes equal, discarding 31/32 of the
    // state on structured data.
    for (size_t L = 0; L < Lanes; ++L)
      Lanes64[L] = mixInto(LaneSeed, L);
  }

  /// Feeds \p Len bytes; digests are invariant under re-chunking.
  void update(const void *Data, size_t Len) {
    const auto *P = static_cast<const unsigned char *>(Data);
    Total += Len;
    if (CarryLen != 0) {
      size_t Take = BlockBytes - CarryLen;
      if (Take > Len)
        Take = Len;
      std::memcpy(Carry + CarryLen, P, Take);
      CarryLen += Take;
      P += Take;
      Len -= Take;
      if (CarryLen == BlockBytes) {
        simd::checksumBlocks(Lanes64, Carry, 1);
        CarryLen = 0;
      }
    }
    if (size_t NBlocks = Len / BlockBytes) {
      simd::checksumBlocks(Lanes64, P, NBlocks);
      P += NBlocks * BlockBytes;
      Len -= NBlocks * BlockBytes;
    }
    if (Len != 0) {
      std::memcpy(Carry + CarryLen, P, Len);
      CarryLen += Len;
    }
  }

  /// The digest of everything fed so far (does not consume the state, so
  /// callers may checksum a prefix and keep streaming).
  uint64_t digest() const {
    uint64_t H = DigestSeed;
    for (size_t L = 0; L < Lanes; ++L)
      H = mixInto(H, Lanes64[L]);
    // Residual: whole words first, then the final partial word
    // (zero-padded; unambiguous because the total length follows).
    size_t I = 0;
    for (; I + 8 <= CarryLen; I += 8) {
      uint64_t W;
      std::memcpy(&W, Carry + I, 8);
      H = mixInto(H, W);
    }
    uint64_t Last = 0;
    std::memcpy(&Last, Carry + I, CarryLen - I);
    H = mixInto(H, Last);
    H = mixInto(H, Total);
    return H;
  }

  /// One-shot convenience.
  static uint64_t of(const void *Data, size_t Len) {
    Checksum64 C;
    C.update(Data, Len);
    return C.digest();
  }

private:
  static constexpr size_t Lanes = simd::HashLanes;
  static constexpr size_t BlockBytes = simd::ChecksumBlockBytes;
  static constexpr uint64_t LaneSeed = 0x4345414c53554d31ULL;
  static constexpr uint64_t DigestSeed = 0x4345414c53554d32ULL;

  static uint64_t mixInto(uint64_t H, uint64_t W) {
    return simd::mixStep(H, W);
  }

  uint64_t Lanes64[Lanes];
  uint64_t Total = 0;
  unsigned char Carry[BlockBytes];
  size_t CarryLen = 0;
};

} // namespace ceal

#endif // CEAL_SUPPORT_CHECKSUM_H
