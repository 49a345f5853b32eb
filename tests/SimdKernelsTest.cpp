//===- tests/SimdKernelsTest.cpp - Checksum format and kernel tests -------===//
//
// The checksum block fold is one loop the compiler clones per ISA level,
// so the format is pinned by known answers (digests recorded with the
// hand-written kernels this loop replaced) rather than by diffing
// implementations: every clone on every little-endian host must
// reproduce them. The sweep is
// also checked directly against the serial mixer, at unaligned bases
// and as the lane-major hash batch. The streaming checksum additionally
// must be invariant under re-chunking, since snapshot save feeds it
// section-by-section while verified load feeds it in I/O-sized spans.
//
//===----------------------------------------------------------------------===//

#include "support/Checksum.h"
#include "support/Random.h"
#include "support/simd/Simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

using namespace ceal;

namespace {

/// The lane accumulators after folding \p NBlocks blocks of \p Data into
/// \p Lanes one word at a time with the serial mixer: the definition
/// every clone of the sweep must match.
std::vector<uint64_t> serialFold(std::vector<uint64_t> Lanes,
                                 const unsigned char *Data, size_t NBlocks) {
  for (size_t B = 0; B < NBlocks; ++B)
    for (size_t L = 0; L < simd::HashLanes; ++L) {
      uint64_t W;
      std::memcpy(&W, Data + B * simd::ChecksumBlockBytes + L * 8, 8);
      Lanes[L] = simd::mixStep(Lanes[L], W);
    }
  return Lanes;
}

TEST(SimdDispatch, SelectedIsRunnable) {
  // selected() names the clone the loader binds; it must be the widest
  // level this CPU supports, so its code is runnable here.
  simd::Variant Want = simd::Variant::Scalar;
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
  if (__builtin_cpu_supports("x86-64-v4"))
    Want = simd::Variant::Avx512;
  else if (__builtin_cpu_supports("x86-64-v3"))
    Want = simd::Variant::Avx2;
#endif
#endif
  EXPECT_EQ(simd::selected(), Want)
      << "selected " << simd::variantName(simd::selected());
}

TEST(SimdDispatch, CountersAccumulate) {
  // Every counted entry point adds one call and its bytes formula.
  auto Check = [](simd::Kernel K, uint64_t Bytes, auto &&Call) {
    auto &C = simd::counters(K);
    uint64_t Calls0 = C.Calls.load(), Bytes0 = C.Bytes.load();
    Call();
    EXPECT_EQ(C.Calls.load(), Calls0 + 1) << simd::kernelName(K);
    EXPECT_EQ(C.Bytes.load(), Bytes0 + Bytes) << simd::kernelName(K);
  };
  uint64_t Lanes[simd::HashLanes] = {};
  unsigned char Data[3 * simd::ChecksumBlockBytes] = {};
  Check(simd::Kernel::ChecksumBlocks, 3 * simd::ChecksumBlockBytes,
        [&] { simd::checksumBlocks(Lanes, Data, 3); });
  uint64_t Words[2 * simd::HashLanes] = {};
  Check(simd::Kernel::HashBatch, 2 * simd::HashLanes * 8,
        [&] { simd::hashBatch(Lanes, Words, 2); });
  const uint32_t U32[5] = {1, 2, 3, 4, 5};
  size_t First = 0;
  Check(simd::Kernel::BoundsCheckU32, 5 * 4,
        [&] { First = simd::boundsCheckU32(U32, 5, 4); });
  EXPECT_EQ(First, 3u);
  const uint32_t Hashes[2] = {0x1234, 0xfff1};
  const void *const Nodes[2] = {&Hashes[0], &Hashes[1]};
  uint32_t Out[2];
  Check(simd::Kernel::BucketIndex, 2 * (sizeof(void *) + 4),
        [&] { simd::bucketIndex(Nodes, 2, 0, 0xff, Out); });
  EXPECT_EQ(Out[0], 0x34u);
  EXPECT_EQ(Out[1], 0xf1u);
  // The relabel kernel rewrites the order list's 64-bit group labels
  // (in-group labels are 24-bit fields; OrderListTest counts those). The
  // chain 2 -> 9 -> 5 of 24-byte group-shaped records {u32 Prev, u32 Next,
  // u32 First, u32 Count, u64 Label}; every other byte stays untouched.
  alignas(8) unsigned char Region[12 * simd::OmHandleGrain];
  std::memset(Region, 0xA5, sizeof(Region));
  auto NodeAt = [&](uint32_t H) { return Region + H * simd::OmHandleGrain; };
  const uint32_t Next2 = 9, Next9 = 5;
  std::memcpy(NodeAt(2) + 4, &Next2, 4);
  std::memcpy(NodeAt(9) + 4, &Next9, 4);
  unsigned char Before[sizeof(Region)];
  std::memcpy(Before, Region, sizeof(Region));
  Check(simd::Kernel::OmRelabel, 3 * (sizeof(uint32_t) + 8),
        [&] { simd::omRelabel(Region, 2, 3, 100, 10, 4, 16); });
  uint64_t Label[3];
  std::memcpy(&Label[0], NodeAt(2) + 16, 8);
  std::memcpy(&Label[1], NodeAt(9) + 16, 8);
  std::memcpy(&Label[2], NodeAt(5) + 16, 8);
  EXPECT_EQ(Label[0], 110u);
  EXPECT_EQ(Label[1], 120u);
  EXPECT_EQ(Label[2], 130u);
  for (uint32_t H : {2u, 9u, 5u})
    std::memcpy(NodeAt(H) + 16, Before + (NodeAt(H) + 16 - Region), 8);
  EXPECT_EQ(std::memcmp(Before, Region, sizeof(Region)), 0)
      << "the kernel wrote outside the three label words";
}

TEST(SimdKernels, BoundsCheckFindsFirstViolation) {
  // The block test must report the same first index as a word-by-word
  // scan: no violation, one at every position of the first blocks and
  // the tail, and several where only the first counts.
  auto Serial = [](const std::vector<uint32_t> &A, uint32_t Limit) {
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I] >= Limit)
        return I;
    return A.size();
  };
  Rng R(0xB0B);
  const uint32_t Limit = 1000;
  for (size_t N : {size_t(0), size_t(1), size_t(63), size_t(64), size_t(65),
                   size_t(200), size_t(257)}) {
    std::vector<uint32_t> A(N);
    for (uint32_t &W : A)
      W = static_cast<uint32_t>(R.below(Limit));
    EXPECT_EQ(simd::boundsCheckU32(A.data(), N, Limit), N) << "N=" << N;
    for (size_t Bad = 0; Bad < N; ++Bad) {
      std::vector<uint32_t> B = A;
      B[Bad] = Limit + static_cast<uint32_t>(R.below(2)) * 0x7fffffffu;
      if (Bad + 70 < N)
        B[Bad + 70] = Limit;
      ASSERT_EQ(simd::boundsCheckU32(B.data(), N, Limit), Serial(B, Limit))
          << "N=" << N << " Bad=" << Bad;
    }
  }
}

//===----------------------------------------------------------------------===//
// The sweep against the serial mixer
//===----------------------------------------------------------------------===//

TEST(SimdKernels, ChecksumBlocksMatchesScalar) {
  Rng R(0xC0FFEE);
  for (size_t NBlocks : {size_t(0), size_t(1), size_t(2), size_t(3),
                         size_t(7), size_t(32), size_t(101)}) {
    for (size_t Mis : {0u, 1u, 3u, 7u, 13u}) { // unaligned data bases
      std::vector<unsigned char> Buf(NBlocks * simd::ChecksumBlockBytes + 16);
      for (unsigned char &B : Buf)
        B = static_cast<unsigned char>(R.next());
      std::vector<uint64_t> Seed(simd::HashLanes);
      for (uint64_t &L : Seed)
        L = R.next();
      std::vector<uint64_t> Got = Seed;
      simd::checksumBlocks(Got.data(), Buf.data() + Mis, NBlocks);
      EXPECT_EQ(Got, serialFold(Seed, Buf.data() + Mis, NBlocks))
          << "blocks=" << NBlocks << " mis=" << Mis;
    }
  }
}

TEST(SimdKernels, HashBatchMatchesScalar) {
  // Lane l of a lane-major batch is the serial hash of key l's words.
  Rng R(0xBA7C4);
  for (size_t NWords = 1; NWords <= 17; ++NWords) {
    std::vector<uint64_t> W(NWords * simd::HashLanes);
    for (uint64_t &X : W)
      X = R.next();
    std::vector<uint64_t> Seed(simd::HashLanes);
    for (uint64_t &L : Seed)
      L = R.next();
    std::vector<uint64_t> Got = Seed;
    simd::hashBatch(Got.data(), W.data(), NWords);
    for (size_t L = 0; L < simd::HashLanes; ++L) {
      uint64_t H = Seed[L];
      for (size_t I = 0; I < NWords; ++I)
        H = simd::mixStep(H, W[I * simd::HashLanes + L]);
      EXPECT_EQ(Got[L], H) << "words=" << NWords << " lane=" << L;
    }
  }
}

//===----------------------------------------------------------------------===//
// Checksum64: the pinned format and its stream properties
//===----------------------------------------------------------------------===//

TEST(Checksum64, KnownAnswers) {
  // Format v2 digests of Rng-seeded bytes at an unaligned base, recorded
  // with the hand-written AVX-512, AVX2 and scalar kernels (all three
  // agreed). Lengths straddle the word, block and multi-block paths.
  static const struct {
    size_t Len;
    uint64_t Digest;
  } Known[] = {
      {0, 0x5a6e50162bbea236ULL},
      {1, 0xfa2c2062da5e933eULL},
      {63, 0x35b543d9f28efc03ULL},
      {255, 0x210582e5c8705cfbULL},
      {256, 0x214504f96c05fa02ULL},
      {257, 0x9fc609b8fa904e4cULL},
      {4096 * 256 + 13, 0x9085663d0ba32a9aULL},
  };
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
  GTEST_SKIP() << "the recorded digests are over little-endian words";
#endif
  const size_t Mis = 3;
  std::vector<unsigned char> Buf(Mis + 4096 * 256 + 13);
  Rng R(0x4b4e4f574eULL);
  for (unsigned char &B : Buf)
    B = static_cast<unsigned char>(R.next());
  for (const auto &K : Known)
    EXPECT_EQ(Checksum64::of(Buf.data() + Mis, K.Len), K.Digest)
        << "len=" << K.Len;
}

TEST(Checksum64, ChunkSplitInvariance) {
  Rng R(0x5EED);
  std::vector<unsigned char> Data(100000);
  for (unsigned char &B : Data)
    B = static_cast<unsigned char>(R.next());
  const uint64_t OneShot = Checksum64::of(Data.data(), Data.size());
  for (int Trial = 0; Trial < 20; ++Trial) {
    Checksum64 C;
    size_t Pos = 0;
    while (Pos < Data.size()) {
      size_t Take = std::min<size_t>(Data.size() - Pos, R.below(4096) + 1);
      C.update(Data.data() + Pos, Take);
      Pos += Take;
    }
    EXPECT_EQ(C.digest(), OneShot) << "trial " << Trial;
  }
  // Byte-at-a-time, the worst-case carry path.
  Checksum64 C;
  for (size_t I = 0; I < 1000; ++I)
    C.update(&Data[I], 1);
  EXPECT_EQ(C.digest(), Checksum64::of(Data.data(), 1000));
}

TEST(Checksum64, AllTailLengths) {
  // Every residual length 0..63 against a fresh one-shot (covers the
  // partial-word digest fold on both sides of a word boundary).
  Rng R(0x7A11);
  std::vector<unsigned char> Data(simd::ChecksumBlockBytes + 64);
  for (unsigned char &B : Data)
    B = static_cast<unsigned char>(R.next());
  for (size_t Tail = 0; Tail < 64; ++Tail) {
    size_t Len = simd::ChecksumBlockBytes + Tail;
    Checksum64 A;
    A.update(Data.data(), simd::ChecksumBlockBytes);
    A.update(Data.data() + simd::ChecksumBlockBytes, Tail);
    EXPECT_EQ(A.digest(), Checksum64::of(Data.data(), Len)) << Tail;
  }
}

TEST(Checksum64, LengthAndContentSensitivity) {
  unsigned char Z[128] = {};
  EXPECT_NE(Checksum64::of(Z, 0), Checksum64::of(Z, 1));
  EXPECT_NE(Checksum64::of(Z, 64), Checksum64::of(Z, 128));
  unsigned char A[64] = {}, B[64] = {};
  B[63] = 1;
  EXPECT_NE(Checksum64::of(A, 64), Checksum64::of(B, 64));
  // Streaming digest() is non-destructive: a prefix digest then more
  // data must equal the one-shot of the whole.
  Checksum64 C;
  C.update(A, 64);
  (void)C.digest();
  C.update(B, 64);
  unsigned char Both[128];
  std::memcpy(Both, A, 64);
  std::memcpy(Both + 64, B, 64);
  EXPECT_EQ(C.digest(), Checksum64::of(Both, 128));
}

} // namespace
