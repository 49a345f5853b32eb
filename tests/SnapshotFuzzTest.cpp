//===- tests/SnapshotFuzzTest.cpp - Corruption-injection fuzz suite -------===//
//
// The full corruption fuzz run over the snapshot loader: 1024 seeded
// mutations of each of two valid checkpoint images (a small and a
// mid-size computation) on the untrusted-file load(), then 1024 more of
// each aimed at the trusted-file mmap warm start, which checks only the
// header, META, ROOTS and the memo bucket heads. Every mutant must come
// back as a diagnostic error — never Ok, never a crash, never a
// sanitizer trip (CI runs this suite under ASan/UBSan).
//
// The mutation strategies live in tests/support/SnapshotCorruption.h and
// are guaranteed-detectable by the path they target, so Status::Ok is
// always a loader bug, not fuzz noise.
//
//===----------------------------------------------------------------------===//

#include "apps/ListApps.h"
#include "runtime/Runtime.h"
#include "runtime/Snapshot.h"
#include "tests/support/SnapshotCorruption.h"

#include <gtest/gtest.h>

using namespace ceal;
using namespace ceal::harness;

namespace {

Word mapPaper(Word X, Word) { return X / 3 + X / 7 + X / 9; }
Word combineSum(Word A, Word B, Word) { return A + B; }

/// Builds a valid checkpoint of an \p N-element map+reduce computation
/// and returns its bytes; the source runtime dies before return so
/// loaders can claim the recorded bases.
std::vector<uint8_t> checkpointBytes(const std::string &Path, size_t N) {
  Runtime RT{Runtime::Config{}};
  std::vector<Word> In;
  for (size_t I = 0; I < N; ++I)
    In.push_back((I * 2654435761u) % 100000);
  apps::ListHandle L = apps::buildList(RT, In);
  Modref *DstMap = RT.modref();
  Modref *DstSum = RT.modref();
  RT.runCore<&apps::mapCore>(L.Head, DstMap, &mapPaper, Word(0));
  RT.runCore<&apps::reduceCore>(L.Head, DstSum, &combineSum, Word(0),
                                Word(0));
  Snapshot::SaveOptions Opt;
  Opt.Roots = {L.Head, DstMap, DstSum};
  Snapshot::SaveResult SR = Snapshot::save(RT, Path, Opt);
  EXPECT_TRUE(SR.ok()) << Snapshot::statusName(SR.St) << ": "
                       << SR.Diagnostic;
  return slurpFile(Path);
}

/// Loads every mutant with load() (\p FastPath false) or with the
/// trusted-file mmap warm start (\p FastPath true), expecting a
/// diagnostic error each time.
void fuzzImage(const std::vector<uint8_t> &Valid, uint64_t SeedBase,
               int Cases, bool FastPath = false) {
  TempFile Mutated;
  for (int I = 0; I < Cases; ++I) {
    uint64_t Seed = SeedBase + static_cast<uint64_t>(I);
    std::string Desc;
    std::vector<uint8_t> Mutant = FastPath
                                      ? mutateForFastPath(Valid, Seed, &Desc)
                                      : mutateSnapshot(Valid, Seed, &Desc);
    ASSERT_TRUE(spitFile(Mutated.Path, Mutant));
    Runtime RT{Runtime::Config{}};
    Snapshot::LoadResult LR = FastPath
                                  ? Snapshot::mmapWarmStart(RT, Mutated.Path)
                                  : Snapshot::load(RT, Mutated.Path);
    EXPECT_NE(LR.St, Snapshot::Status::Ok)
        << "seed " << Seed << " (" << Desc << ", "
        << (FastPath ? "mmap" : "copy") << ") loaded successfully";
    if (LR.St != Snapshot::Status::Ok) {
      EXPECT_FALSE(LR.Diagnostic.empty())
          << "seed " << Seed << ": error without a diagnostic";
    }
  }
}

} // namespace

TEST(SnapshotFuzz, SmallImage1024) {
  TempFile Valid;
  std::vector<uint8_t> Bytes = checkpointBytes(Valid.Path, 16);
  ASSERT_FALSE(Bytes.empty());
  fuzzImage(Bytes, /*SeedBase=*/1000, /*Cases=*/1024);
}

TEST(SnapshotFuzz, MidImage1024) {
  TempFile Valid;
  std::vector<uint8_t> Bytes = checkpointBytes(Valid.Path, 300);
  ASSERT_FALSE(Bytes.empty());
  fuzzImage(Bytes, /*SeedBase=*/500000, /*Cases=*/1024);
}

TEST(SnapshotFuzz, FastWarmStartSmallImage1024) {
  TempFile Valid;
  std::vector<uint8_t> Bytes = checkpointBytes(Valid.Path, 16);
  ASSERT_FALSE(Bytes.empty());
  fuzzImage(Bytes, /*SeedBase=*/2000, /*Cases=*/1024, /*FastPath=*/true);
}

TEST(SnapshotFuzz, FastWarmStartMidImage1024) {
  TempFile Valid;
  std::vector<uint8_t> Bytes = checkpointBytes(Valid.Path, 300);
  ASSERT_FALSE(Bytes.empty());
  fuzzImage(Bytes, /*SeedBase=*/600000, /*Cases=*/1024, /*FastPath=*/true);
}
