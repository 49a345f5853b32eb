//===- tests/SimdKernelsTest.cpp - SIMD kernel differential tests ---------===//
//
// Every ISA variant compiled into this binary is checked against the
// scalar reference, which defines each kernel's semantics. Inputs are
// seeded-random and sweep the hostile shapes: unaligned bases, tail
// lengths through 0..63, non-lane-multiple batch counts, shuffled,
// reversed, broken-stride and mispredicted-stride relabel chains, and
// speculation windows that do and do not admit the batched path. The
// streaming checksum additionally must be invariant under re-chunking,
// since snapshot save feeds it section-by-section while verified load
// feeds it in I/O-sized spans.
//
// The whole suite is also re-run by ctest once per variant with
// CEAL_SIMD forced (tests/CMakeLists.txt), which drives the *dispatched*
// production paths — Checksum64 and friends — through every table.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Checksum.h"
#include "support/Random.h"
#include "support/simd/Simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

using namespace ceal;

namespace {

/// All variants present in this binary AND runnable on this CPU —
/// exactly the tables the dispatcher could ever select here.
std::vector<simd::Variant> availableVariants() {
  std::vector<simd::Variant> Vs;
  for (unsigned I = 0; I < simd::NumVariants; ++I) {
    auto V = static_cast<simd::Variant>(I);
    if (simd::variantOps(V))
      Vs.push_back(V);
  }
  return Vs;
}

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(simd::variantCompiled(simd::Variant::Scalar));
  EXPECT_TRUE(simd::cpuSupports(simd::Variant::Scalar));
  EXPECT_NE(simd::variantOps(simd::Variant::Scalar), nullptr);
}

TEST(SimdDispatch, SelectedIsRunnable) {
  simd::Variant S = simd::selected();
  EXPECT_TRUE(simd::variantCompiled(S));
  EXPECT_TRUE(simd::cpuSupports(S));
  EXPECT_LE(static_cast<unsigned>(S),
            static_cast<unsigned>(simd::maxSupported()));
}

TEST(SimdDispatch, EnvOverrideIsACeiling) {
  // Dispatch resolves once at first use, so this checks the already-made
  // decision against the environment it was made under; the per-variant
  // forced ctest entries supply the different environments.
  const char *Env = std::getenv("CEAL_SIMD");
  if (!Env || std::string(Env) == "auto")
    GTEST_SKIP() << "no CEAL_SIMD override in this run";
  const std::string Want = Env;
  static const char *Names[] = {"scalar", "sse42", "avx2", "avx512"};
  for (unsigned I = 0; I < simd::NumVariants; ++I)
    if (Want == Names[I]) {
      EXPECT_LE(static_cast<unsigned>(simd::selected()), I)
          << "CEAL_SIMD=" << Want << " must cap the selected variant";
      return;
    }
  // Unknown value: dispatcher warns once and falls back to auto.
  SUCCEED();
}

TEST(SimdDispatch, CountersAccumulate) {
  auto &C = simd::counters(simd::Kernel::ChecksumBlocks);
  uint64_t Calls0 = C.Calls.load(), Bytes0 = C.Bytes.load();
  uint64_t Lanes[simd::HashLanes] = {};
  unsigned char Data[3 * simd::ChecksumBlockBytes] = {};
  simd::checksumBlocks(Lanes, Data, 3);
  EXPECT_EQ(C.Calls.load(), Calls0 + 1);
  EXPECT_EQ(C.Bytes.load(), Bytes0 + 3 * simd::ChecksumBlockBytes);
}

//===----------------------------------------------------------------------===//
// Differential checks: every available variant vs the scalar table
//===----------------------------------------------------------------------===//

TEST(SimdKernels, ChecksumBlocksMatchesScalar) {
  Rng R(0xC0FFEE);
  const simd::Ops &S = *simd::variantOps(simd::Variant::Scalar);
  for (size_t NBlocks : {size_t(0), size_t(1), size_t(2), size_t(3),
                         size_t(7), size_t(32), size_t(101)}) {
    for (size_t Mis : {0u, 1u, 3u, 7u, 13u}) { // unaligned data bases
      std::vector<unsigned char> Buf(NBlocks * simd::ChecksumBlockBytes + 16);
      for (unsigned char &B : Buf)
        B = static_cast<unsigned char>(R.next());
      std::vector<uint64_t> Seed(simd::HashLanes);
      for (uint64_t &L : Seed)
        L = R.next();
      std::vector<uint64_t> Ref = Seed;
      S.ChecksumBlocks(Ref.data(), Buf.data() + Mis, NBlocks);
      for (simd::Variant V : availableVariants()) {
        std::vector<uint64_t> Got = Seed;
        simd::variantOps(V)->ChecksumBlocks(Got.data(), Buf.data() + Mis,
                                            NBlocks);
        EXPECT_EQ(Got, Ref) << "variant " << simd::variantName(V)
                            << " blocks=" << NBlocks << " mis=" << Mis;
      }
    }
  }
}

TEST(SimdKernels, HashBatchMatchesScalar) {
  Rng R(0xBA7C4);
  const simd::Ops &S = *simd::variantOps(simd::Variant::Scalar);
  for (size_t NWords : {size_t(0), size_t(1), size_t(2), size_t(5),
                        size_t(16), size_t(63)}) {
    std::vector<uint64_t> W(NWords * simd::HashLanes);
    for (uint64_t &X : W)
      X = R.next();
    std::vector<uint64_t> Seed(simd::HashLanes);
    for (uint64_t &L : Seed)
      L = R.next();
    std::vector<uint64_t> Ref = Seed;
    S.HashBatch(Ref.data(), W.data(), NWords);
    for (simd::Variant V : availableVariants()) {
      std::vector<uint64_t> Got = Seed;
      simd::variantOps(V)->HashBatch(Got.data(), W.data(), NWords);
      EXPECT_EQ(Got, Ref) << "variant " << simd::variantName(V)
                          << " words=" << NWords;
    }
  }
}

TEST(SimdKernels, BoundsCheckMatchesScalarAllTails) {
  Rng R(0xB0);
  const simd::Ops &S = *simd::variantOps(simd::Variant::Scalar);
  // Every length 0..64+: exercises the full tail space of the widest
  // variant (16-lane AVX-512 masks) with margin.
  for (size_t N = 0; N <= 70; ++N) {
    std::vector<uint32_t> A(N + 4); // slack for unaligned starts
    for (uint32_t &V : A)
      V = static_cast<uint32_t>(R.next());
    for (size_t Start : {size_t(0), size_t(1), size_t(3)}) {
      const uint32_t *P = A.data() + Start;
      for (uint32_t Limit :
           {0u, 1u, 0x7fffffffu, 0x80000000u, 0xffffffffu,
            N ? P[R.below(N)] : 0u}) {
        size_t Ref = S.BoundsCheckU32(P, N, Limit);
        for (simd::Variant V : availableVariants())
          EXPECT_EQ(simd::variantOps(V)->BoundsCheckU32(P, N, Limit), Ref)
              << "variant " << simd::variantName(V) << " n=" << N
              << " start=" << Start << " limit=" << Limit;
      }
    }
  }
  // Planted matches at every position of one vector's width.
  for (size_t Pos = 0; Pos < 20; ++Pos) {
    std::vector<uint32_t> A(20, 5);
    A[Pos] = 100;
    for (simd::Variant V : availableVariants())
      EXPECT_EQ(simd::variantOps(V)->BoundsCheckU32(A.data(), 20, 50), Pos)
          << "variant " << simd::variantName(V);
  }
}

TEST(SimdKernels, BucketIndexMatchesScalar) {
  Rng R(0xB1C2E7);
  struct Node {
    uint32_t Pad;
    uint32_t Hash;
    uint64_t Pad2;
  };
  for (size_t N : {size_t(0), size_t(1), size_t(3), size_t(4), size_t(7),
                   size_t(8), size_t(9), size_t(63), size_t(200)}) {
    std::vector<Node> Nodes(N ? N : 1);
    std::vector<const void *> Ptrs(N);
    for (size_t I = 0; I < N; ++I) {
      Nodes[I].Hash = static_cast<uint32_t>(R.next());
      Ptrs[I] = &Nodes[I];
    }
    // Shuffled pointer order: gathers must follow the pointers, not
    // assume contiguity.
    for (size_t I = N; I > 1; --I)
      std::swap(Ptrs[I - 1], Ptrs[R.below(I)]);
    for (uint32_t Mask : {0x3fu, 0xffffu, 0x7fffffffu}) {
      std::vector<uint32_t> Ref(N), Got(N);
      simd::variantOps(simd::Variant::Scalar)
          ->BucketIndex(Ptrs.data(), N, offsetof(Node, Hash), Mask,
                        Ref.data());
      for (simd::Variant V : availableVariants()) {
        std::fill(Got.begin(), Got.end(), 0xdeadbeefu);
        simd::variantOps(V)->BucketIndex(Ptrs.data(), N, offsetof(Node, Hash),
                                         Mask, Got.data());
        EXPECT_EQ(Got, Ref) << "variant " << simd::variantName(V)
                            << " n=" << N << " mask=" << Mask;
      }
    }
  }
}

TEST(SimdKernels, OmRelabelMatchesScalar) {
  Rng R(0x0E7ABE1);
  // Handle-linked chains inside an Arena, laid out like OmNode: the
  // kernels see the region base and 32-bit Next handles only.
  struct Node {
    Handle<Node> Prev;
    Handle<Node> Next;
    uint32_t Group;
    uint32_t Item;
    uint64_t Label;
  };
  static_assert(sizeof(Node) == 24, "mirrors the OmNode layout");
  const size_t NextOff = offsetof(Node, Next);
  const size_t LabelOff = offsetof(Node, Label);
  constexpr size_t RegionBytes = size_t(1) << 20;
  for (size_t N : {size_t(1), size_t(2), size_t(7), size_t(8), size_t(9),
                   size_t(16), size_t(33), size_t(100)}) {
    // contiguous / reversed / shuffled / broken stride (ascending runs
    // of 5 with jumps between, so batches straddle the breaks) /
    // mispredicted stride (ascending runs of 12: a verified batch
    // carries its stride into a batch that the run breaks inside).
    for (int Shape = 0; Shape < 5; ++Shape) {
      std::vector<size_t> Order(N);
      std::iota(Order.begin(), Order.end(), size_t(0));
      if (Shape == 1)
        std::reverse(Order.begin(), Order.end());
      if (Shape == 2)
        for (size_t I = N; I > 1; --I)
          std::swap(Order[I - 1], Order[R.below(I)]);
      if (Shape >= 3) {
        // Reverse the order of the runs, keeping each run ascending.
        const size_t Run = Shape == 3 ? 5 : 12;
        std::vector<size_t> Runs;
        for (size_t Start = 0; Start < N; Start += Run)
          Runs.push_back(Start);
        Order.clear();
        for (size_t K = Runs.size(); K-- > 0;)
          for (size_t I = Runs[K]; I < std::min(N, Runs[K] + Run); ++I)
            Order.push_back(I);
      }
      // Allocates the N nodes in one bump run (node i at Nodes[i]) and
      // links them in Order.
      auto Build = [&](Arena &A, std::vector<Node *> &Nodes) -> uint32_t {
        Nodes.resize(N);
        for (Node *&P : Nodes)
          P = A.create<Node>();
        for (size_t I = 0; I + 1 < N; ++I)
          Nodes[Order[I]]->Next = A.handle(Nodes[Order[I + 1]]);
        // Poisoned terminal Next: never followed for a correct Count,
        // and never a valid speculation candidate.
        Nodes[Order[N - 1]]->Next = Handle<Node>(0x0dead000u);
        return A.handle(Nodes[Order[0]]).Bits;
      };
      uint64_t Base = R.next(), Gap = R.next() | 1;
      Arena RefArena(RegionBytes);
      std::vector<Node *> RefNodes;
      uint32_t RefFirst = Build(RefArena, RefNodes);
      simd::variantOps(simd::Variant::Scalar)
          ->OmRelabel(RefArena.regionBase(), RefFirst, N, Base, Gap, NextOff,
                      LabelOff, /*SafeBytes=*/0);
      for (simd::Variant V : availableVariants()) {
        for (bool Window : {false, true}) {
          Arena GotArena(RegionBytes);
          std::vector<Node *> GotNodes;
          uint32_t GotFirst = Build(GotArena, GotNodes);
          simd::variantOps(V)->OmRelabel(
              GotArena.regionBase(), GotFirst, N, Base, Gap, NextOff,
              LabelOff, Window ? GotArena.bumpUsedBytes() : 0);
          for (size_t I = 0; I < N; ++I)
            ASSERT_EQ(GotNodes[I]->Label, RefNodes[I]->Label)
                << "variant " << simd::variantName(V) << " n=" << N
                << " shape=" << Shape << " window=" << Window
                << " node=" << I;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Checksum64 stream properties (production consumer of ChecksumBlocks)
//===----------------------------------------------------------------------===//

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
