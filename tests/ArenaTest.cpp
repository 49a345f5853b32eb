//===- tests/ArenaTest.cpp - Arena allocator tests ------------------------===//

#include "runtime/Runtime.h"
#include "support/Arena.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
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
  // reserve() is an overflow check: a burst that fits the reservation
  // is served by pure pointer bumps through the one region (consecutive
  // same-class blocks are adjacent), with no accounting side effects.
  Arena A;
  constexpr size_t Bytes = 1 << 18;
  A.reserve(Bytes);
  EXPECT_EQ(A.liveBytes(), 0u) << "reserve must not count as allocation";
  EXPECT_EQ(A.allocationCount(), 0u);
  char *Prev = static_cast<char *>(A.allocate(64));
  for (size_t Used = 64; Used + 64 <= Bytes; Used += 64) {
    auto *P = static_cast<char *>(A.allocate(64));
    ASSERT_EQ(P, Prev + 64) << "gap inside a reserved burst";
    Prev = P;
  }
  EXPECT_EQ(A.liveBytes(), Bytes);
}

TEST(Arena, ReserveIsIdempotentWhenSpaceRemains) {
  // A second reserve within the first one's headroom must not move the
  // bump pointer: the next allocation is adjacent to the last.
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

//===----------------------------------------------------------------------===//
// Transparent-huge-page advice: the region is madvise(MADV_HUGEPAGE)d from
// the first 2 MiB boundary at or after Base + 2 MiB to its end. The tests
// read the advice back from /proc/self/smaps; the library itself never
// looks under /proc or /sys.
//===----------------------------------------------------------------------===//

namespace {

constexpr uintptr_t HugeBytes = uintptr_t(2) << 20;

/// One mapping from /proc/self/smaps, clipped to the region asked about.
struct Vma {
  uintptr_t Lo = 0, Hi = 0;
  bool Advised = false;  // "hg" in VmFlags.
  size_t AnonHugeKb = 0; // AnonHugePages.
};

/// Why this host cannot show the advice, or "" when it can.
std::string thpUnavailable() {
  std::ifstream Enabled("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string Mode;
  if (!std::getline(Enabled, Mode))
    return "the kernel has no transparent huge pages";
  if (Mode.find("[never]") != std::string::npos)
    return "transparent huge pages are set to [never]";
  if (!std::ifstream("/proc/self/smaps"))
    return "/proc/self/smaps is missing";
  return "";
}

/// The mappings overlapping [Base, Base + Bytes), clipped to that range,
/// in address order.
std::vector<Vma> regionVmas(const void *Base, size_t Bytes) {
  uintptr_t Lo = reinterpret_cast<uintptr_t>(Base), Hi = Lo + Bytes;
  std::vector<Vma> Out;
  bool InRegion = false;
  std::ifstream In("/proc/self/smaps");
  std::string Line;
  while (std::getline(In, Line)) {
    unsigned long long VLo, VHi;
    char Perms[8];
    if (std::sscanf(Line.c_str(), "%llx-%llx %7s", &VLo, &VHi, Perms) == 3) {
      InRegion = VLo < Hi && VHi > Lo;
      if (InRegion)
        Out.push_back({std::max<uintptr_t>(VLo, Lo),
                       std::min<uintptr_t>(VHi, Hi), false, 0});
      continue;
    }
    if (!InRegion)
      continue;
    std::istringstream Fields(Line);
    std::string Key, Word;
    Fields >> Key;
    if (Key == "AnonHugePages:")
      Fields >> Out.back().AnonHugeKb;
    else if (Key == "VmFlags:")
      while (Fields >> Word)
        Out.back().Advised |= Word == "hg";
  }
  return Out;
}

/// Expects the region to be mapped without holes, on base pages below
/// the first 2 MiB boundary at or after Base + 2 MiB and advised from
/// there to its end.
void expectAdvisedPastPrefix(const void *Base, size_t Bytes) {
  uintptr_t Lo = reinterpret_cast<uintptr_t>(Base);
  uintptr_t Cut = (Lo + 2 * HugeBytes - 1) & ~(HugeBytes - 1);
  std::vector<Vma> Vmas = regionVmas(Base, Bytes);
  ASSERT_FALSE(Vmas.empty()) << "region not found in /proc/self/smaps";
  uintptr_t Covered = Lo;
  for (const Vma &V : Vmas) {
    EXPECT_EQ(V.Lo, Covered) << "hole in the region";
    Covered = V.Hi;
    if (V.Hi <= Cut)
      EXPECT_FALSE(V.Advised) << "the 2 MiB prefix must stay on base pages";
    else if (V.Lo >= Cut)
      EXPECT_TRUE(V.Advised) << "the region past the prefix must be advised";
    else
      ADD_FAILURE() << "one mapping straddles the end of the prefix";
  }
  EXPECT_EQ(Covered, Lo + Bytes);
}

} // namespace

TEST(Arena, HugePageAdviceStartsPastTheFirst2MiB) {
  if (std::string Why = thpUnavailable(); !Why.empty())
    GTEST_SKIP() << Why;
  Arena A;
  expectAdvisedPastPrefix(A.regionBase(), A.regionBytes());
}

TEST(Arena, HugePageAdviceSurvivesRemapClaim) {
  // Re-claiming the arena's own base is what a snapshot's
  // resetToPristine does; the fresh mapping must be advised again.
  if (std::string Why = thpUnavailable(); !Why.empty())
    GTEST_SKIP() << Why;
  Arena A;
  char *Base = static_cast<char *>(A.regionBase());
  ASSERT_TRUE(A.remapTo(Base, A.regionBytes()));
  ASSERT_EQ(A.regionBase(), Base);
  expectAdvisedPastPrefix(A.regionBase(), A.regionBytes());
}

TEST(Arena, HugePageAdviceSurvivesRemapFallback) {
  // A target that another arena occupies cannot be claimed; the region
  // the arena falls back to must be advised like a fresh one.
  if (std::string Why = thpUnavailable(); !Why.empty())
    GTEST_SKIP() << Why;
  Arena A, B;
  EXPECT_FALSE(
      A.remapTo(static_cast<char *>(B.regionBase()), B.regionBytes()));
  expectAdvisedPastPrefix(A.regionBase(), A.regionBytes());
  expectAdvisedPastPrefix(B.regionBase(), B.regionBytes());
}

TEST(Arena, PristineRuntimeHoldsNoHugePages) {
  // A Runtime that has run nothing stays inside the base-page prefix, so
  // constructing one never zeroes a 2 MiB page.
  if (std::string Why = thpUnavailable(); !Why.empty())
    GTEST_SKIP() << Why;
  Runtime RT;
  const Arena &Mem = RT.arena();
  EXPECT_LT(Mem.bumpUsedBytes(), size_t(HugeBytes));
  expectAdvisedPastPrefix(Mem.regionBase(), Mem.regionBytes());
  size_t HugeKb = 0;
  for (const Vma &V : regionVmas(Mem.regionBase(), Mem.regionBytes()))
    HugeKb += V.AnonHugeKb;
  EXPECT_EQ(HugeKb, 0u);
}
