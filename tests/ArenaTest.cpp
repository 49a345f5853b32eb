//===- tests/ArenaTest.cpp - Arena allocator tests ------------------------===//

#include "support/Arena.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace ceal;

TEST(Arena, AllocateAndReuse) {
  Arena A;
  void *P1 = A.allocate(32);
  ASSERT_NE(P1, nullptr);
  A.deallocate(P1, 32);
  void *P2 = A.allocate(32);
  EXPECT_EQ(P1, P2) << "freelist should recycle same-class blocks";
}

TEST(Arena, LiveByteAccounting) {
  Arena A;
  EXPECT_EQ(A.liveBytes(), 0u);
  void *P = A.allocate(100); // Rounds to 104 (8-byte classes).
  EXPECT_EQ(A.liveBytes(), 104u);
  void *Q = A.allocate(16);
  EXPECT_EQ(A.liveBytes(), 120u);
  A.deallocate(P, 100);
  EXPECT_EQ(A.liveBytes(), 16u);
  EXPECT_EQ(A.maxLiveBytes(), 120u);
  A.deallocate(Q, 16);
  EXPECT_EQ(A.liveBytes(), 0u);
  EXPECT_EQ(A.maxLiveBytes(), 120u);
}

TEST(Arena, LargeBlocksAccountAndRecycle) {
  Arena A;
  void *P = A.allocate(1 << 16);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0xab, 1 << 16);
  EXPECT_EQ(A.liveBytes(), size_t(1) << 16);
  A.deallocate(P, 1 << 16);
  EXPECT_EQ(A.liveBytes(), 0u);
  // Large blocks stay inside the region and recycle by exact size, so
  // user blocks holding interior trace structures keep stable addresses.
  void *Q = A.allocate(1 << 16);
  EXPECT_EQ(Q, P);
  A.deallocate(Q, 1 << 16);
}

TEST(Arena, DistinctBlocksDoNotOverlap) {
  Arena A;
  std::vector<char *> Blocks;
  for (int I = 0; I < 1000; ++I) {
    auto *P = static_cast<char *>(A.allocate(48));
    std::memset(P, I & 0xff, 48);
    Blocks.push_back(P);
  }
  for (int I = 0; I < 1000; ++I)
    for (int J = 0; J < 48; ++J)
      ASSERT_EQ(Blocks[I][J], static_cast<char>(I & 0xff));
}

TEST(Arena, ReservePreallocatesOneContiguousChunk) {
  // reserve() is an input-size hint: a burst that fits the reservation
  // must be served by pure pointer bumps from one chunk (consecutive
  // same-class blocks are adjacent), with no accounting side effects.
  Arena A;
  constexpr size_t Bytes = 1 << 18;
  A.reserve(Bytes);
  EXPECT_EQ(A.liveBytes(), 0u) << "reserve must not count as allocation";
  EXPECT_EQ(A.allocationCount(), 0u);
  char *Prev = static_cast<char *>(A.allocate(64));
  for (size_t Used = 64; Used + 64 <= Bytes; Used += 64) {
    auto *P = static_cast<char *>(A.allocate(64));
    ASSERT_EQ(P, Prev + 64) << "chunk refill inside a reserved burst";
    Prev = P;
  }
  EXPECT_EQ(A.liveBytes(), Bytes);
}

TEST(Arena, ReserveIsIdempotentWhenSpaceRemains) {
  // A second reserve within the first one's headroom must not abandon
  // the current chunk: the next allocation still comes from it.
  Arena A;
  A.reserve(1 << 16);
  auto *P = static_cast<char *>(A.allocate(64));
  A.reserve(1 << 10); // Far below the remaining headroom.
  auto *Q = static_cast<char *>(A.allocate(64));
  EXPECT_EQ(Q, P + 64);
}

TEST(Arena, HandleRoundTrip) {
  // Every block — small, class-boundary, large — must mint a non-null
  // handle that resolves back to the same address; null round-trips too.
  Arena A;
  EXPECT_EQ(A.ptr(Handle<int>()), nullptr);
  EXPECT_FALSE(A.handle<int>(nullptr));
  std::vector<std::pair<int *, Handle<int>>> Minted;
  for (size_t Size : {8u, 24u, 512u, 4096u}) {
    auto *P = static_cast<int *>(A.allocate(Size));
    Handle<int> H = A.handle(P);
    ASSERT_TRUE(static_cast<bool>(H));
    EXPECT_EQ(A.ptr(H), P);
    Minted.push_back({P, H});
  }
  // Handles are stable identities: distinct blocks, distinct handles.
  for (size_t I = 0; I < Minted.size(); ++I)
    for (size_t J = I + 1; J < Minted.size(); ++J)
      EXPECT_NE(Minted[I].second, Minted[J].second);
}

TEST(Arena, HandleBoundsTrackBumpFrontier) {
  Arena A;
  auto *P = static_cast<char *>(A.allocate(64));
  Handle<char> H = A.handle(P);
  EXPECT_TRUE(A.handleInBounds(H.Bits));
  // An offset past everything ever bump-allocated must be rejected —
  // this is the auditor's decode-time check against corrupt handles.
  EXPECT_FALSE(A.handleInBounds(
      static_cast<uint32_t>(A.bumpUsedBytes() / Arena::HandleGrain + 8)));
  A.deallocate(P, 64);
}

TEST(ArenaDeathTest, RegionOverflowIsACheckedFailure) {
  // Minting past the configured handle space must die with the fatal
  // check, not wrap the bump pointer into reused offsets.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Arena A(size_t(1) << 16); // 64 KB region: ~16 blocks of 4 KB.
        for (int I = 0; I < 32; ++I)
          A.allocate(4096);
      },
      "region exhausted");
}

TEST(ArenaDeathTest, ReserveBeyondRegionFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Arena A(size_t(1) << 16);
        A.reserve(size_t(1) << 20);
      },
      "region exhausted");
}

TEST(Arena, RandomizedChurn) {
  Arena A;
  Rng R(7);
  std::vector<std::pair<void *, size_t>> Live;
  for (int Op = 0; Op < 20000; ++Op) {
    if (Live.empty() || R.below(100) < 60) {
      size_t Size = 1 + R.below(700);
      Live.push_back({A.allocate(Size), Size});
    } else {
      size_t Idx = R.below(Live.size());
      A.deallocate(Live[Idx].first, Live[Idx].second);
      Live[Idx] = Live.back();
      Live.pop_back();
    }
  }
  for (auto &Entry : Live)
    A.deallocate(Entry.first, Entry.second);
  EXPECT_EQ(A.liveBytes(), 0u);
  EXPECT_GT(A.allocationCount(), 0u);
}
