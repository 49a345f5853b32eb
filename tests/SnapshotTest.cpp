//===- tests/SnapshotTest.cpp - Snapshot format and loader hardening ------===//
//
// The snapshot subsystem's unit suite: round trips over both load paths
// (copying load and mmap warm start), the trace-shape digest, root
// persistence, and — the bulk — the corruption-hardened load path: every
// documented failure mode is provoked with a targeted patch of a valid
// checkpoint image and must come back as its own Status code with the
// runtime left usable. A 64-case seeded corruption smoke (the tier-1
// slice of the full fuzz suite) closes the file.
//
//===----------------------------------------------------------------------===//

#include "apps/ListApps.h"
#include "runtime/Runtime.h"
#include "runtime/Snapshot.h"
#include "runtime/TraceAudit.h"
#include "tests/support/OracleModels.h"
#include "tests/support/SnapshotCorruption.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <sys/resource.h>

using namespace ceal;
using namespace ceal::harness;

namespace {

using St = Snapshot::Status;

Word mapPaper(Word X, Word) { return X / 3 + X / 7 + X / 9; }

/// A checkpoint of a small map-over-list computation, its source runtime
/// already destroyed (so a loader can claim the recorded bases), plus
/// everything a test needs to patch and replay it.
struct Checkpoint {
  TempFile Tmp;
  std::vector<uint8_t> Bytes;
  std::vector<const void *> SavedRoots;
  uint64_t SavedDigest = 0;
  std::vector<Word> Input;
};

void makeCheckpoint(Checkpoint &C, size_t N = 24) {
  for (size_t I = 0; I < N; ++I)
    C.Input.push_back((I * 2654435761u) % 1000);
  Runtime RT(auditedConfig());
  ASSERT_EQ(claimQuietBase(RT), "");
  apps::ListHandle L = apps::buildList(RT, C.Input);
  Modref *Dst = RT.modref();
  RT.runCore<&apps::mapCore>(L.Head, Dst, &mapPaper, Word(0));
  Snapshot::SaveOptions Opt;
  Opt.Roots = {L.Head, Dst};
  Snapshot::SaveResult SR = Snapshot::save(RT, C.Tmp.Path, Opt);
  EXPECT_TRUE(SR.ok()) << Snapshot::statusName(SR.St) << ": "
                       << SR.Diagnostic;
  C.Bytes = slurpFile(C.Tmp.Path);
  EXPECT_EQ(C.Bytes.size(), SR.FileBytes);
  C.SavedRoots = Opt.Roots;
  C.SavedDigest = Snapshot::traceShapeDigest(RT);
}

/// Writes \p B over the checkpoint's temp file and loads it with load()
/// into a fresh runtime; returns the status (and optionally the
/// diagnostic). The negative-path guarantees belong to load(), the
/// untrusted-file path: the mmap warm start trusts the arena payload.
St tryLoad(Checkpoint &C, const std::vector<uint8_t> &B,
           std::string *Diag = nullptr) {
  EXPECT_TRUE(spitFile(C.Tmp.Path, B));
  Runtime RT(auditedConfig());
  Snapshot::LoadResult LR = Snapshot::load(RT, C.Tmp.Path);
  if (Diag)
    *Diag = LR.Diagnostic;
  return LR.St;
}

/// Loads \p B on the trusted-file mmap warm start.
St tryFastMmap(Checkpoint &C, const std::vector<uint8_t> &B,
               std::string *Diag = nullptr) {
  EXPECT_TRUE(spitFile(C.Tmp.Path, B));
  Runtime RT(auditedConfig());
  Snapshot::LoadResult LR = Snapshot::mmapWarmStart(RT, C.Tmp.Path);
  if (Diag)
    *Diag = LR.Diagnostic;
  return LR.St;
}

/// Patches a u64 field at absolute file offset \p Off.
void pokeU64(std::vector<uint8_t> &B, size_t Off, uint64_t V) {
  ASSERT_LE(Off + 8, B.size());
  std::memcpy(B.data() + Off, &V, 8);
}

uint64_t peekU64(const std::vector<uint8_t> &B, size_t Off) {
  uint64_t V = 0;
  std::memcpy(&V, B.data() + Off, 8);
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

namespace {

/// Reloads \p C (its source runtime already destroyed) on the given path,
/// and checks digest, roots, output, and continued propagation.
void checkReload(const Checkpoint &C, bool UseMmap) {
  SCOPED_TRACE(UseMmap ? "mmapWarmStart" : "load");
  Runtime RT(auditedConfig());
  Snapshot::LoadResult LR = UseMmap ? Snapshot::mmapWarmStart(RT, C.Tmp.Path)
                                    : Snapshot::load(RT, C.Tmp.Path);
  ASSERT_TRUE(LR.ok()) << Snapshot::statusName(LR.St) << ": "
                       << LR.Diagnostic;

  // Same addresses, same shape, same output.
  ASSERT_EQ(LR.Roots.size(), C.SavedRoots.size());
  for (size_t I = 0; I < LR.Roots.size(); ++I)
    EXPECT_EQ(LR.Roots[I], C.SavedRoots[I]);
  EXPECT_EQ(Snapshot::traceShapeDigest(RT), C.SavedDigest);
  EXPECT_TRUE(TraceAudit::inspect(RT).ok());

  Modref *Head = static_cast<Modref *>(LR.Roots[0]);
  Modref *Dst = static_cast<Modref *>(LR.Roots[1]);
  std::vector<Word> Want;
  for (Word W : C.Input)
    Want.push_back(mapPaper(W, 0));
  EXPECT_EQ(apps::readList(RT, Dst), Want);

  // The restored trace must still propagate. The simplest structural
  // edit that exercises it without the harness: detach the head cell by
  // writing its tail into Head.
  apps::Cell *HeadCell = reinterpret_cast<apps::Cell *>(RT.deref(Head));
  ASSERT_NE(HeadCell, nullptr);
  RT.modify(Head, RT.deref(HeadCell->Tail));
  RT.propagate();
  EXPECT_TRUE(TraceAudit::inspect(RT).ok());
  Want.erase(Want.begin());
  EXPECT_EQ(apps::readList(RT, Dst), Want);
}

/// Saves, destroys the source runtime, and checks the reload.
void roundTrip(bool UseMmap) {
  Checkpoint C;
  makeCheckpoint(C);
  checkReload(C, UseMmap);
}

} // namespace

TEST(Snapshot, RoundTripCopyLoad) { roundTrip(false); }
TEST(Snapshot, RoundTripMmapWarmStart) { roundTrip(true); }

TEST(Snapshot, MultiChunkArenaRoundTripsOnBothPaths) {
  // Save writes the arena image in 2 MiB chunks while a helper thread
  // checksums it. A 24-element map fits in one chunk; this arena spans
  // several and ends mid-chunk, and load() re-verifies every section
  // checksum over it.
  constexpr uint64_t SaveChunkBytes = uint64_t(2) << 20;
  Checkpoint C;
  makeCheckpoint(C, 50000);
  const Snapshot::SectionEntry &Mem = headerOf(C.Bytes)->Sections[MemSection];
  ASSERT_GT(Mem.Length, 3 * SaveChunkBytes);
  ASSERT_NE(Mem.Length % SaveChunkBytes, 0u);
  checkReload(C, /*UseMmap=*/false);
  checkReload(C, /*UseMmap=*/true);
}

TEST(Snapshot, EmptyRuntimeRoundTrip) {
  TempFile Tmp;
  {
    Runtime RT(auditedConfig());
    ASSERT_EQ(claimQuietBase(RT), "");
    Snapshot::SaveResult SR = Snapshot::save(RT, Tmp.Path);
    ASSERT_TRUE(SR.ok()) << SR.Diagnostic;
  }
  Runtime RT(auditedConfig());
  Snapshot::LoadResult LR = Snapshot::load(RT, Tmp.Path);
  ASSERT_TRUE(LR.ok()) << Snapshot::statusName(LR.St) << ": "
                       << LR.Diagnostic;
  // The restored pristine runtime must still run a computation.
  apps::ListHandle L = apps::buildList(RT, {1, 2, 3});
  Modref *Dst = RT.modref();
  RT.runCore<&apps::mapCore>(L.Head, Dst, &mapPaper, Word(0));
  EXPECT_EQ(apps::readList(RT, Dst).size(), 3u);
}

TEST(Snapshot, DigestIsDeterministicAndShapeSensitive) {
  auto DigestOf = [](size_t N) {
    Runtime RT(auditedConfig());
    std::vector<Word> In;
    for (size_t I = 0; I < N; ++I)
      In.push_back(I * 7);
    apps::ListHandle L = apps::buildList(RT, In);
    Modref *Dst = RT.modref();
    RT.runCore<&apps::mapCore>(L.Head, Dst, &mapPaper, Word(0));
    return Snapshot::traceShapeDigest(RT);
  };
  EXPECT_EQ(DigestOf(16), DigestOf(16));
  EXPECT_NE(DigestOf(16), DigestOf(17));
}

TEST(Snapshot, ReadyToSaveReportsWhy) {
  Runtime RT(auditedConfig());
  std::string Why;
  EXPECT_TRUE(RT.readyForCheckpoint(&Why)) << Why;
  apps::ListHandle L = apps::buildList(RT, {1, 2, 3});
  Modref *Dst = RT.modref();
  RT.runCore<&apps::mapCore>(L.Head, Dst, &mapPaper, Word(0));
  EXPECT_TRUE(RT.readyForCheckpoint(&Why)) << Why;
  apps::detachCell(RT, L, 1); // Queues invalidations; no propagate yet.
  EXPECT_FALSE(RT.readyForCheckpoint(&Why));
  EXPECT_NE(Why.find("propagate"), std::string::npos) << Why;
  RT.propagate();
  EXPECT_TRUE(RT.readyForCheckpoint(&Why)) << Why;
}

//===----------------------------------------------------------------------===//
// Save-side failures
//===----------------------------------------------------------------------===//

TEST(Snapshot, SaveRejectsBadRoots) {
  Runtime RT(auditedConfig());
  apps::ListHandle L = apps::buildList(RT, {1, 2, 3});
  Modref *Dst = RT.modref();
  RT.runCore<&apps::mapCore>(L.Head, Dst, &mapPaper, Word(0));
  TempFile Tmp;

  Snapshot::SaveOptions Null;
  Null.Roots = {nullptr};
  EXPECT_EQ(Snapshot::save(RT, Tmp.Path, Null).St, St::BadState);

  int Stack = 0;
  Snapshot::SaveOptions Foreign;
  Foreign.Roots = {&Stack};
  EXPECT_EQ(Snapshot::save(RT, Tmp.Path, Foreign).St, St::BadState);
}

TEST(Snapshot, SaveReportsIoError) {
  Runtime RT(auditedConfig());
  Snapshot::SaveResult SR =
      Snapshot::save(RT, "/nonexistent-dir/ceal-snapshot");
  EXPECT_EQ(SR.St, St::IoError);
  EXPECT_FALSE(SR.Diagnostic.empty());
}

//===----------------------------------------------------------------------===//
// Saving over an existing checkpoint
//===----------------------------------------------------------------------===//

namespace {

/// A private directory, so a test sees every file a save leaves in the
/// target's directory; removed with its contents.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/ceal-snapdir-XXXXXX";
    if (::mkdtemp(Buf))
      Path = Buf;
  }
  ~TempDir() {
    std::error_code EC;
    if (!Path.empty())
      std::filesystem::remove_all(Path, EC);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  std::vector<std::string> names() const {
    std::vector<std::string> Names;
    for (const auto &E : std::filesystem::directory_iterator(Path))
      Names.push_back(E.path().filename().string());
    std::sort(Names.begin(), Names.end());
    return Names;
  }
};

/// Lowers this process's file-size limit while in scope, with SIGXFSZ
/// ignored, so a write past \p Bytes fails with EFBIG instead of killing
/// the process. Both are restored on scope exit.
struct FileSizeLimit {
  rlimit Saved = {};
  struct sigaction SavedAct = {};
  bool Armed = false; ///< Saved and SavedAct hold what to restore.
  bool Ok = false;

  explicit FileSizeLimit(rlim_t Bytes) {
    struct sigaction Ignore = {};
    Ignore.sa_handler = SIG_IGN;
    if (::getrlimit(RLIMIT_FSIZE, &Saved) != 0 ||
        ::sigaction(SIGXFSZ, &Ignore, &SavedAct) != 0)
      return;
    Armed = true;
    rlimit Lower = Saved;
    Lower.rlim_cur = Bytes;
    Ok = ::setrlimit(RLIMIT_FSIZE, &Lower) == 0;
  }
  ~FileSizeLimit() {
    if (!Armed)
      return;
    ::setrlimit(RLIMIT_FSIZE, &Saved);
    ::sigaction(SIGXFSZ, &SavedAct, nullptr);
  }
};

/// What a from-scratch map over \p In outputs.
std::vector<Word> mappedOutput(const std::vector<Word> &In) {
  std::vector<Word> Out;
  for (Word W : In)
    Out.push_back(mapPaper(W, 0));
  return Out;
}

/// Detaches the first cell of the list headed by \p Head, and propagates.
void dropHead(Runtime &RT, Modref *Head) {
  auto *Cell = reinterpret_cast<apps::Cell *>(RT.deref(Head));
  ASSERT_NE(Cell, nullptr);
  RT.modify(Head, RT.deref(Cell->Tail));
  RT.propagate();
}

} // namespace

TEST(Snapshot, ResaveOverWarmStartSourceKeepsBothAlive) {
  // Warm start from P, edit, save to P: the natural checkpoint cycle. The
  // warm-started arena is a MAP_PRIVATE mapping of P, so a save that
  // rewrote P in place would pull every page the runtime has not yet
  // copied out from under it, and lose the checkpoint with it.
  Checkpoint C;
  makeCheckpoint(C, 5000);
  std::vector<Word> Want = mappedOutput(C.Input);
  Want.erase(Want.begin());
  {
    Runtime Warm(auditedConfig());
    Snapshot::LoadResult LR = Snapshot::mmapWarmStart(Warm, C.Tmp.Path);
    ASSERT_TRUE(LR.ok()) << Snapshot::statusName(LR.St) << ": "
                         << LR.Diagnostic;
    Modref *Head = static_cast<Modref *>(LR.Roots[0]);
    Modref *Dst = static_cast<Modref *>(LR.Roots[1]);
    dropHead(Warm, Head);
    Snapshot::SaveOptions Opt;
    Opt.Roots = {Head, Dst};
    Snapshot::SaveResult SR = Snapshot::save(Warm, C.Tmp.Path, Opt);
    ASSERT_TRUE(SR.ok()) << Snapshot::statusName(SR.St) << ": "
                         << SR.Diagnostic;

    // The runtime still reads every page it maps, and still propagates.
    EXPECT_EQ(apps::readList(Warm, Dst), Want);
    dropHead(Warm, Head);
    EXPECT_EQ(apps::readList(Warm, Dst),
              std::vector<Word>(Want.begin() + 1, Want.end()));
    EXPECT_TRUE(TraceAudit::inspect(Warm).ok());
  }

  // The re-saved P holds the state after the first edit and passes the
  // untrusted-file load: its output is a from-scratch run's over the
  // edited input, and its trace is the one a runtime that never
  // checkpointed has after the same edit.
  uint64_t Continuous = 0;
  {
    Runtime Twin(auditedConfig());
    apps::ListHandle L = apps::buildList(Twin, C.Input);
    Modref *Dst = Twin.modref();
    Twin.runCore<&apps::mapCore>(L.Head, Dst, &mapPaper, Word(0));
    dropHead(Twin, L.Head);
    Continuous = Snapshot::traceShapeDigest(Twin);
  }
  Runtime RT(auditedConfig());
  Snapshot::LoadResult LR = Snapshot::load(RT, C.Tmp.Path);
  ASSERT_TRUE(LR.ok()) << Snapshot::statusName(LR.St) << ": "
                       << LR.Diagnostic;
  EXPECT_EQ(apps::readList(RT, static_cast<Modref *>(LR.Roots[1])),
            mappedOutput({C.Input.begin() + 1, C.Input.end()}));
  EXPECT_EQ(Snapshot::traceShapeDigest(RT), Continuous);
}

TEST(Snapshot, FailedSaveLeavesTargetWhole) {
  // A save that fails mid-write (the file-size limit makes the arena
  // write fail with EFBIG) leaves the previous checkpoint byte for byte
  // and no temporary next to it.
  TempDir Dir;
  ASSERT_FALSE(Dir.Path.empty());
  const std::string P = Dir.Path + "/map.snap";
  std::vector<Word> In;
  for (size_t I = 0; I < 5000; ++I)
    In.push_back((I * 2654435761u) % 1000);
  std::vector<uint8_t> Old;
  {
    Runtime RT(auditedConfig());
    ASSERT_EQ(claimQuietBase(RT), "");
    apps::ListHandle L = apps::buildList(RT, In);
    Modref *Dst = RT.modref();
    RT.runCore<&apps::mapCore>(L.Head, Dst, &mapPaper, Word(0));
    Snapshot::SaveOptions Opt;
    Opt.Roots = {L.Head, Dst};
    ASSERT_TRUE(Snapshot::save(RT, P, Opt).ok());
    Old = slurpFile(P);
    dropHead(RT, L.Head);

    Snapshot::SaveResult SR;
    {
      FileSizeLimit Limit(Old.size() / 2);
      ASSERT_TRUE(Limit.Ok);
      ASSERT_GT(Old.size() / 2, headerOf(Old)->Sections[MemSection].Offset)
          << "the limit must fall inside the arena section";
      SR = Snapshot::save(RT, P, Opt);
    }
    EXPECT_EQ(SR.St, St::IoError);
    EXPECT_FALSE(SR.Diagnostic.empty());
  }
  EXPECT_EQ(Dir.names(), std::vector<std::string>{"map.snap"});
  EXPECT_EQ(slurpFile(P), Old);
  Runtime RT(auditedConfig());
  Snapshot::LoadResult LR = Snapshot::load(RT, P);
  ASSERT_TRUE(LR.ok()) << Snapshot::statusName(LR.St) << ": "
                       << LR.Diagnostic;
  EXPECT_EQ(apps::readList(RT, static_cast<Modref *>(LR.Roots[1])),
            mappedOutput(In));
}

TEST(Snapshot, LoadIntoNonPristineRuntimeIsBadState) {
  Checkpoint C;
  makeCheckpoint(C);
  Runtime RT(auditedConfig());
  apps::ListHandle L = apps::buildList(RT, {4, 5});
  Modref *Dst = RT.modref();
  RT.runCore<&apps::mapCore>(L.Head, Dst, &mapPaper, Word(0));
  EXPECT_EQ(Snapshot::load(RT, C.Tmp.Path).St, St::BadState);
}

//===----------------------------------------------------------------------===//
// Negative paths: every failure mode is its own Status
//===----------------------------------------------------------------------===//

TEST(Snapshot, LoadReportsIoError) {
  Runtime RT(auditedConfig());
  EXPECT_EQ(Snapshot::load(RT, "/nonexistent-dir/ceal-snapshot").St,
            St::IoError);
}

TEST(Snapshot, ZeroLengthFileIsTruncated) {
  Checkpoint C;
  makeCheckpoint(C);
  EXPECT_EQ(tryLoad(C, {}), St::Truncated);
}

TEST(Snapshot, ShortTailIsTruncated) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  B.resize(B.size() - 7);
  EXPECT_EQ(tryLoad(C, B), St::Truncated);
}

TEST(Snapshot, WrongMagicIsBadMagic) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  headerOf(B)->MagicWord = 0x00c0ffee00c0ffeeULL;
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::BadMagic);
}

TEST(Snapshot, ByteswappedMagicIsBadEndian) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  uint64_t M = headerOf(B)->MagicWord, Sw = 0;
  for (int I = 0; I < 8; ++I)
    Sw = (Sw << 8) | ((M >> (8 * I)) & 0xff);
  headerOf(B)->MagicWord = Sw;
  EXPECT_EQ(tryLoad(C, B), St::BadEndian);
}

TEST(Snapshot, EndianTagMismatchIsBadEndian) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  headerOf(B)->Endian = 0x04030201;
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::BadEndian);
}

TEST(Snapshot, FutureVersionIsBadVersion) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  headerOf(B)->Version = Snapshot::FormatVersion + 1;
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::BadVersion);
}

TEST(Snapshot, PreviousFormatIsBadVersion) {
  // Format 4 kept the memo bucket arrays in two sections of their own;
  // its section table and META cannot be read as format 5's, so the
  // header alone rejects it before any payload is mapped.
  static_assert(Snapshot::FormatVersion == 5, "bump this test with the format");
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  headerOf(B)->Version = 4;
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::BadVersion);
  EXPECT_EQ(tryFastMmap(C, B), St::BadVersion);
}

TEST(Snapshot, LayoutFingerprintMismatchIsBadLayout) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  headerOf(B)->LayoutFingerprint ^= 1;
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::BadLayout);
}

TEST(Snapshot, HeaderCorruptionIsBadHeader) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  B[sizeof(Snapshot::FileHeader) + 17] ^= 0x40; // header-block padding
  EXPECT_EQ(tryLoad(C, B), St::BadHeader);
}

TEST(Snapshot, TrailingGarbageIsBadSectionTable) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  B.insert(B.end(), 8, uint8_t(0xAB));
  EXPECT_EQ(tryLoad(C, B), St::BadSectionTable);
}

TEST(Snapshot, InflatedSectionLengthIsBadSectionTable) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  headerOf(B)->Sections[0].Length += 8;
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::BadSectionTable);
}

TEST(Snapshot, PayloadCorruptionIsBadChecksum) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  B[static_cast<size_t>(headerOf(B)->Sections[0].Offset) + 9] ^= 0x01;
  EXPECT_EQ(tryLoad(C, B), St::BadChecksum);
}

TEST(Snapshot, ForeignSectionPreambleIsBadSectionKind) {
  // A section whose payload carries another section's kind tag, with its
  // checksum resealed (a payload moved between sections), is caught by
  // the preamble, not by the checksum.
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  pokeU64(B, static_cast<size_t>(headerOf(B)->Sections[RootsSection].Offset),
          Snapshot::sectionPreamble(Snapshot::SecMeta));
  resealSection(B, RootsSection);
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::BadSectionKind);
  EXPECT_EQ(tryFastMmap(C, B), St::BadSectionKind);
}

TEST(Snapshot, BadMemoGeometryIsRejectedOnEveryPath) {
  // META records where each memo bucket array sits in the arena image.
  // Every load path checks that geometry before adopting the array: a
  // crafted offset or count comes back as a status, never as a table
  // over bytes outside the arena.
  Checkpoint C;
  makeCheckpoint(C);
  for (bool Alloc : {false, true}) {
    const Snapshot::MemoMeta MM = memoMetaOf(C.Bytes, Alloc);
    const Snapshot::MemoMeta Other = memoMetaOf(C.Bytes, !Alloc);
    ASSERT_GE(MM.Buckets, 64u);
    const uint64_t Used = headerOf(C.Bytes)->MemBumpUsed;
    struct Case {
      const char *What;
      Snapshot::MemoMeta Patched;
      St Want;
    };
    const Case Cases[] = {
        {"offset past the frontier", {Used + 1024, MM.Buckets, MM.Count},
         St::HandleOutOfBounds},
        {"array overrunning the frontier", {Used - 8, MM.Buckets, MM.Count},
         St::HandleOutOfBounds},
        {"misaligned offset", {MM.Off + 4, MM.Buckets, MM.Count},
         St::HandleOutOfBounds},
        {"non-power-of-two count", {MM.Off, MM.Buckets + 32, MM.Count},
         St::BadMeta},
        {"array over the other table's", {Other.Off, MM.Buckets, MM.Count},
         St::BadMeta},
    };
    for (const Case &K : Cases) {
      std::vector<uint8_t> B = C.Bytes;
      std::memcpy(B.data() + memoMetaOffset(B, Alloc), &K.Patched,
                  sizeof(K.Patched));
      resealSection(B, MetaSection);
      resealHeader(B);
      const char *Table = Alloc ? "alloc" : "read";
      EXPECT_EQ(tryLoad(C, B), K.Want) << Table << ": " << K.What;
      EXPECT_EQ(tryFastMmap(C, B), K.Want) << Table << ": " << K.What;
    }
  }
}

TEST(Snapshot, ZeroOmSizeIsBadMeta) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  pokeU64(B, metaFieldOffset(B, offsetof(Snapshot::MetaFixed, OmSize)), 0);
  resealSection(B, 0);
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::BadMeta);
}

TEST(Snapshot, OverflowingLargeCountsAreBadMeta) {
  // Huge counts whose table size (16 bytes a pair) wraps to a small or
  // zero byte count must not sneak past the large-freelist table bound
  // and drive the pair reader off the META section.
  Checkpoint C;
  makeCheckpoint(C);
  for (uint64_t Huge : {uint64_t(1) << 63, uint64_t(1) << 60}) {
    std::vector<uint8_t> B = C.Bytes;
    pokeU64(B,
            metaFieldOffset(B, offsetof(Snapshot::MetaFixed, MemA) +
                           offsetof(Snapshot::ArenaMeta, LargeCount)),
            Huge);
    resealSection(B, 0);
    resealHeader(B);
    EXPECT_EQ(tryLoad(C, B), St::BadMeta) << "count " << Huge;
  }
}

TEST(Snapshot, CursorPastArenaIsHandleOutOfBounds) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  uint64_t Past = headerOf(B)->MemBumpUsed + 1024;
  pokeU64(B, metaFieldOffset(B, offsetof(Snapshot::MetaFixed, CursorOff)),
          Past);
  resealSection(B, 0);
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::HandleOutOfBounds);
}

TEST(Snapshot, MovedAnchorIsCodeMoved) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  headerOf(B)->AnchorAddr += 0x10000;
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::CodeMoved);
}

TEST(Snapshot, BoxBytesMismatchIsConfigMismatch) {
  // The comparator pads every trace node, so a checkpoint taken without
  // it cannot be adopted by a runtime that has it.
  Checkpoint C;
  makeCheckpoint(C);
  Runtime::Config Cfg = auditedConfig();
  Cfg.SimulateSaSml = true;
  Runtime RT(Cfg);
  Snapshot::LoadResult LR = Snapshot::load(RT, C.Tmp.Path);
  EXPECT_EQ(LR.St, St::ConfigMismatch) << LR.Diagnostic;
}

TEST(Snapshot, BrokenAccountingIsAuditFailed) {
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  uint64_t Off = metaFieldOffset(B, offsetof(Snapshot::MetaFixed, MetaBytes));
  pokeU64(B, Off, peekU64(B, Off) + 8);
  resealSection(B, 0);
  resealHeader(B);
  std::string Diag;
  EXPECT_EQ(tryLoad(C, B, &Diag), St::AuditFailed);
  EXPECT_FALSE(Diag.empty());
}

TEST(Snapshot, UndefinedKindBitsAreAuditFailed) {
  // A timestamp's kind is a 3-bit field, so 5-7 are representable but
  // undefined. A checkpoint whose payload carries one (checksums resealed,
  // as a crafted file would) must come back as a status from load().
  // Find one stamp of every kind by loading the checkpoint once.
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint64_t> StampOffs; // Region offsets: read, write, alloc, end.
  {
    ASSERT_TRUE(spitFile(C.Tmp.Path, C.Bytes));
    Runtime RT(auditedConfig());
    ASSERT_TRUE(Snapshot::load(RT, C.Tmp.Path).ok());
    const OrderList &Om = RT.orderList();
    const char *Base = static_cast<const char *>(RT.arena().regionBase());
    for (TraceKind K : {TraceKind::Read, TraceKind::Write, TraceKind::Alloc,
                        TraceKind::End})
      for (const OmNode *N = Om.next(Om.base()); N; N = Om.next(N))
        if (N->Kind == K) {
          StampOffs.push_back(uint64_t(reinterpret_cast<const char *>(N) -
                                       Base));
          break;
        }
  }
  ASSERT_EQ(StampOffs.size(), 4u);
  for (uint64_t Off : StampOffs)
    for (unsigned K = 5; K < 8; ++K) {
      std::vector<uint8_t> B = C.Bytes;
      unsigned char *At =
          B.data() + headerOf(B)->Sections[MemSection].Offset + Off;
      OmNode Stamp;
      std::memcpy(&Stamp, At, sizeof(Stamp));
      const uint32_t Label = Stamp.Label;
      Stamp.Kind = static_cast<TraceKind>(K);
      ASSERT_EQ(Stamp.Label, Label) << "the kind store touched the label";
      std::memcpy(At, &Stamp, sizeof(Stamp));
      resealSection(B, MemSection);
      resealHeader(B);
      std::string Diag;
      EXPECT_EQ(tryLoad(C, B, &Diag), St::AuditFailed)
          << "kind " << K << " at offset " << Off;
      EXPECT_NE(Diag.find("kind"), std::string::npos) << Diag;
    }
}

TEST(Snapshot, ForgedExtentsAndStrayCursorAreAuditFailed) {
  // A crafted file can reseal every checksum around a field that is in
  // bounds on its own but names more than the arena holds, or an address
  // that is no timestamp. load()'s trace walk must reject each of these
  // with a diagnostic before propagation follows it. Find the fields by
  // loading the checkpoint once; each case then patches one of them.
  Checkpoint C;
  makeCheckpoint(C);
  uint64_t PrevUseOff = 0, CloOff = 0, CloArgs = 0, AllocSizeOff = 0;
  {
    ASSERT_TRUE(spitFile(C.Tmp.Path, C.Bytes));
    Runtime RT(auditedConfig());
    ASSERT_TRUE(Snapshot::load(RT, C.Tmp.Path).ok());
    const OrderList &Om = RT.orderList();
    const char *Base = static_cast<const char *>(RT.arena().regionBase());
    auto OffOf = [Base](const void *P) {
      return uint64_t(static_cast<const char *>(P) - Base);
    };
    for (const OmNode *N = Om.next(Om.base()); N; N = Om.next(N)) {
      if (N->Kind == TraceKind::Read && !PrevUseOff) {
        const auto *R = static_cast<const ReadNode *>(N);
        PrevUseOff = OffOf(&R->PrevUse);
        CloOff = OffOf(R->closure());
        CloArgs = R->closure()->numArgs();
      }
      if (N->Kind == TraceKind::Alloc && !AllocSizeOff)
        AllocSizeOff = OffOf(&static_cast<const AllocNode *>(N)->Size);
    }
  }
  ASSERT_NE(PrevUseOff, 0u);
  ASSERT_NE(AllocSizeOff, 0u);
  const uint64_t Used = headerOf(C.Bytes)->MemBumpUsed;
  const uint64_t MemAt = headerOf(C.Bytes)->Sections[MemSection].Offset;
  // The largest arity a closure header encodes overruns a small arena.
  constexpr uint64_t MaxArgs = 0xffff;
  ASSERT_GT(CloOff + Closure::byteSize(MaxArgs), Used);
  ASSERT_LT(CloArgs, MaxArgs);

  const std::vector<uint8_t> &B0 = C.Bytes;
  struct Case {
    const char *What;
    const char *Needle; ///< Expected in the diagnostic.
    size_t At;          ///< File offset of the patched field.
    uint64_t Value;
    size_t Bytes;   ///< Field width: 4 or 8.
    size_t Section; ///< The section to reseal.
  };
  const Case Cases[] = {
      {"use link naming the last grain below the frontier", "overrun",
       MemAt + PrevUseOff, Used / Arena::HandleGrain - 1, 4, MemSection},
      {"closure arity overrunning the frontier", "overrun", MemAt + CloOff,
       peekU64(B0, MemAt + CloOff) | MaxArgs << Closure::NumArgsShift, 8,
       MemSection},
      {"zero-size alloc block", "zero-sized", MemAt + AllocSizeOff, 0, 4,
       MemSection},
      // The read memo's bucket array: grain-aligned, below the frontier,
      // and not an order-list node.
      {"cursor in bounds but no timestamp", "cursor is not a member",
       metaFieldOffset(B0, offsetof(Snapshot::MetaFixed, CursorOff)),
       memoMetaOf(B0, /*Alloc=*/false).Off, 8, MetaSection},
  };
  for (const Case &K : Cases) {
    std::vector<uint8_t> B = C.Bytes;
    std::memcpy(B.data() + K.At, &K.Value, K.Bytes); // Low bytes (LE).
    resealSection(B, K.Section);
    resealHeader(B);
    std::string Diag;
    EXPECT_EQ(tryLoad(C, B, &Diag), St::AuditFailed) << K.What;
    EXPECT_NE(Diag.find(K.Needle), std::string::npos) << K.What << ": "
                                                      << Diag;
  }
}

TEST(Snapshot, NodeExtentsPastTheFrontierOrIntoTheNextNodeAreAuditFailed) {
  // A read's closure and an allocation's initializer and block live in
  // the node, so the node's extent comes from words inside it: the
  // frame's arity and the block's Size. A crafted file that grows either
  // past the bump frontier, or just far enough to reach into the next
  // live node (in bounds, so no bounds check alone can see it), must be
  // rejected with a located diagnostic, and before any frame word is
  // hashed (the trace walk sizes each node before the memo pass reads a
  // key; the ASan fuzz job covers the out-of-bounds side).
  Checkpoint C;
  makeCheckpoint(C);
  struct Node {
    uint64_t Off, Bytes, Arity, Size;
    TraceKind Kind;
  };
  std::vector<Node> Nodes;
  {
    ASSERT_TRUE(spitFile(C.Tmp.Path, C.Bytes));
    Runtime RT(auditedConfig());
    ASSERT_TRUE(Snapshot::load(RT, C.Tmp.Path).ok());
    const OrderList &Om = RT.orderList();
    const char *Base = static_cast<const char *>(RT.arena().regionBase());
    for (const OmNode *N = Om.next(Om.base()); N; N = Om.next(N)) {
      const uint64_t Off = uint64_t(reinterpret_cast<const char *>(N) - Base);
      if (N->Kind == TraceKind::Read) {
        const Closure *K = static_cast<const ReadNode *>(N)->closure();
        Nodes.push_back({Off, ReadNode::byteSize(K->numArgs()),
                         K->numArgs(), 0, TraceKind::Read});
      } else if (N->Kind == TraceKind::Write) {
        Nodes.push_back({Off, sizeof(WriteNode), 0, 0, TraceKind::Write});
      } else if (N->Kind == TraceKind::Alloc) {
        const auto *A = static_cast<const AllocNode *>(N);
        Nodes.push_back(
            {Off,
             Arena::accountedSize(
                 AllocNode::byteSize(A->init()->numArgs(), A->Size)),
             A->init()->numArgs(), A->Size, TraceKind::Alloc});
      }
    }
  }
  // A read and an allocation that each sit directly before another live
  // node in the arena (construction bump-allocates them back to back).
  auto FollowedByNode = [&](TraceKind K) -> const Node * {
    for (const Node &N : Nodes)
      if (N.Kind == K)
        for (const Node &M : Nodes)
          if (M.Off == N.Off + N.Bytes)
            return &N;
    return nullptr;
  };
  const Node *R = FollowedByNode(TraceKind::Read);
  const Node *A = FollowedByNode(TraceKind::Alloc);
  ASSERT_NE(R, nullptr);
  ASSERT_NE(A, nullptr);
  const uint64_t Used = headerOf(C.Bytes)->MemBumpUsed;
  const uint64_t MemAt = headerOf(C.Bytes)->Sections[MemSection].Offset;
  const uint64_t ReadHeaderAt = MemAt + R->Off + sizeof(ReadNode);
  const uint64_t SizeAt = MemAt + A->Off + sizeof(TraceNode);
  const uint64_t InitHeaderAt = MemAt + A->Off + sizeof(AllocNode);
  // The first frontier-crossing size: the block then ends one grain past
  // the arena's allocated region.
  const uint64_t PastFrontier =
      Used + Arena::HandleGrain - A->Off - AllocNode::byteSize(A->Arity, 0);
  ASSERT_LT(PastFrontier, uint64_t(UINT32_MAX));
  // Arities that carry each frame past the frontier still fit the
  // header's 16-bit field.
  ASSERT_LT((Used - A->Off) / sizeof(Word), uint64_t(0xffff));
  auto WithArity = [&](uint64_t HeaderAt, uint64_t Arity) {
    const uint64_t H = peekU64(C.Bytes, HeaderAt);
    return (H & ~(uint64_t(0xffff) << Closure::NumArgsShift)) |
           Arity << Closure::NumArgsShift;
  };

  struct Case {
    const char *What;
    const char *Needle; ///< Expected in the diagnostic.
    uint64_t At;        ///< File offset of the patched field.
    uint64_t Value;
    size_t Bytes; ///< Field width: 4 or 8.
  };
  const Case Cases[] = {
      {"read arity one word into the next live node", "overlap",
       ReadHeaderAt, WithArity(ReadHeaderAt, R->Arity + 1), 8},
      {"read arity past the frontier", "read closure: handle",
       ReadHeaderAt,
       WithArity(ReadHeaderAt, (Used - R->Off) / sizeof(Word)), 8},
      {"alloc size one grain into the next live node", "overlap", SizeAt,
       A->Size + Arena::HandleGrain, 4},
      {"alloc size past the frontier", "alloc block: handle", SizeAt,
       PastFrontier, 4},
      {"initializer arity past the frontier", "alloc initializer: handle",
       InitHeaderAt,
       WithArity(InitHeaderAt, (Used - A->Off) / sizeof(Word)), 8},
  };
  for (const Case &K : Cases) {
    std::vector<uint8_t> B = C.Bytes;
    std::memcpy(B.data() + K.At, &K.Value, K.Bytes); // Low bytes (LE).
    resealSection(B, MemSection);
    resealHeader(B);
    std::string Diag;
    EXPECT_EQ(tryLoad(C, B, &Diag), St::AuditFailed) << K.What;
    EXPECT_NE(Diag.find(K.Needle), std::string::npos) << K.What << ": "
                                                      << Diag;
    // Sized wrongly, no node's key was hashed: a hash mismatch line
    // would mean a frame word was read under a doubtful extent.
    EXPECT_EQ(Diag.find("stored hash"), std::string::npos) << K.What << ": "
                                                           << Diag;
  }
}

TEST(Snapshot, RevisionFourLayoutIsBadLayout) {
  // Revision 4 kept a read's closure, and an allocation's initializer
  // and block, in blocks of their own behind handles (ReadNode 80 B,
  // AllocNode 40 B). Its fingerprint, recomputed here from that layout,
  // must be refused by both load paths before any payload is read.
  static_assert(TraceLayoutRevision == 5, "bump this test with the layout");
  uint64_t H = 0x4345414c00000004ULL;
  for (uint64_t W : {uint64_t(sizeof(void *)), uint64_t(Arena::HandleGrain),
                     uint64_t(sizeof(Handle<int>)), uint64_t(16) /*OmNode*/,
                     uint64_t(24) /*OmGroup*/, uint64_t(8) /*Closure*/,
                     uint64_t(16) /*TraceNode*/, uint64_t(28) /*Use*/,
                     uint64_t(80) /*ReadNode*/, uint64_t(40) /*End*/,
                     uint64_t(40) /*WriteNode*/, uint64_t(40) /*AllocNode*/,
                     uint64_t(24) /*Modref*/, uint64_t(12) /*MemoLinks*/})
    H = hashMixWord(H, W);
  ASSERT_NE(H, traceLayoutFingerprint());
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  headerOf(B)->LayoutFingerprint = H;
  resealHeader(B);
  EXPECT_EQ(tryLoad(C, B), St::BadLayout);
  EXPECT_EQ(tryFastMmap(C, B), St::BadLayout);
}

TEST(Snapshot, FailedLoadLeavesRuntimeUsable) {
  Checkpoint C;
  makeCheckpoint(C);
  // A post-claim failure (AuditFailed) is the hard case: the loader has
  // already replaced the arena regions and must restore a pristine,
  // usable runtime.
  std::vector<uint8_t> B = C.Bytes;
  uint64_t Off = metaFieldOffset(B, offsetof(Snapshot::MetaFixed, MetaBytes));
  pokeU64(B, Off, peekU64(B, Off) + 8);
  resealSection(B, 0);
  resealHeader(B);
  TempFile Bad;
  ASSERT_TRUE(spitFile(Bad.Path, B));

  Runtime RT(auditedConfig());
  Snapshot::LoadResult LR = Snapshot::load(RT, Bad.Path);
  ASSERT_EQ(LR.St, St::AuditFailed) << LR.Diagnostic;
  EXPECT_TRUE(LR.Roots.empty());

  // Still pristine: a good checkpoint must now load into the same
  // runtime and produce the right output.
  ASSERT_TRUE(spitFile(C.Tmp.Path, C.Bytes));
  Snapshot::LoadResult Good = Snapshot::load(RT, C.Tmp.Path);
  ASSERT_TRUE(Good.ok()) << Snapshot::statusName(Good.St) << ": "
                         << Good.Diagnostic;
  Modref *Dst = static_cast<Modref *>(Good.Roots[1]);
  std::vector<Word> Want;
  for (Word W : C.Input)
    Want.push_back(mapPaper(W, 0));
  EXPECT_EQ(apps::readList(RT, Dst), Want);
}

//===----------------------------------------------------------------------===//
// Fast warm start: the trusted-file contract
//===----------------------------------------------------------------------===//

TEST(Snapshot, FastWarmStartStillChecksStructure) {
  // The fast path skips arena *content* verification only; the header,
  // META and root sections plus every offset the loader installs stay
  // fully checked, so structural corruption comes back with the same
  // codes as on load().
  Checkpoint C;
  makeCheckpoint(C);

  std::vector<uint8_t> B = C.Bytes;
  B.resize(B.size() - 7);
  EXPECT_EQ(tryFastMmap(C, B), St::Truncated);

  B = C.Bytes;
  headerOf(B)->MagicWord = 0x00c0ffee00c0ffeeULL;
  resealHeader(B);
  EXPECT_EQ(tryFastMmap(C, B), St::BadMagic);

  B = C.Bytes;
  B[sizeof(Snapshot::FileHeader) + 17] ^= 0x40; // header-block padding
  EXPECT_EQ(tryFastMmap(C, B), St::BadHeader);

  B = C.Bytes;
  B[static_cast<size_t>(headerOf(B)->Sections[0].Offset) + 9] ^= 0x01;
  EXPECT_EQ(tryFastMmap(C, B), St::BadChecksum);

  B = C.Bytes;
  uint64_t Past = headerOf(B)->MemBumpUsed + 1024;
  pokeU64(B, metaFieldOffset(B, offsetof(Snapshot::MetaFixed, CursorOff)),
          Past);
  resealSection(B, 0);
  resealHeader(B);
  EXPECT_EQ(tryFastMmap(C, B), St::HandleOutOfBounds);

  // A bucket head inside the mapped arena image is payload the fast path
  // does not checksum, but the head sweep still keeps every installed
  // head below the frontier.
  B = C.Bytes;
  const Snapshot::MemoMeta MM = memoMetaOf(B, /*Alloc=*/false);
  ASSERT_GE(MM.Buckets, 64u);
  const uint32_t PastHead =
      static_cast<uint32_t>(headerOf(B)->MemBumpUsed / 8 + 3);
  std::memcpy(B.data() + bucketHeadOffset(B, MM, MM.Buckets / 2), &PastHead,
              sizeof(PastHead));
  std::string Diag;
  EXPECT_EQ(tryFastMmap(C, B, &Diag), St::HandleOutOfBounds);
  EXPECT_NE(Diag.find("memo bucket"), std::string::npos) << Diag;
}

TEST(Snapshot, FastWarmStartTrustsArenaPayload) {
  // The flip side of the contract: a byte flip inside the mapped arena
  // payload is exactly what the fast path does NOT check (that skip is
  // the O(metadata) payoff) and exactly what load() catches. The
  // patched byte sits in the MEM section's trailing page padding —
  // covered by the section checksum, but past the bump cursor, so
  // nothing ever reads it and the fast-loaded runtime stays correct.
  Checkpoint C;
  makeCheckpoint(C);
  std::vector<uint8_t> B = C.Bytes;
  Snapshot::FileHeader *H = headerOf(B);
  ASSERT_LT(H->MemBumpUsed, H->Sections[MemSection].Length)
      << "checkpoint expected to carry MEM tail padding at this scale";
  B[static_cast<size_t>(H->Sections[MemSection].Offset + H->MemBumpUsed)] ^=
      0x01;

  // The untrusted-file path rejects it as content corruption...
  EXPECT_EQ(tryLoad(C, B), St::BadChecksum);

  // ...and the trusted fast path accepts it and still runs.
  ASSERT_TRUE(spitFile(C.Tmp.Path, B));
  Runtime RT(auditedConfig());
  Snapshot::LoadResult LR = Snapshot::mmapWarmStart(RT, C.Tmp.Path);
  ASSERT_TRUE(LR.ok()) << Snapshot::statusName(LR.St) << ": "
                       << LR.Diagnostic;
  EXPECT_EQ(Snapshot::traceShapeDigest(RT), C.SavedDigest);
  Modref *Dst = static_cast<Modref *>(LR.Roots[1]);
  std::vector<Word> Want;
  for (Word W : C.Input)
    Want.push_back(mapPaper(W, 0));
  EXPECT_EQ(apps::readList(RT, Dst), Want);
}

//===----------------------------------------------------------------------===//
// Corruption smoke (tier-1 slice of the fuzz suite)
//===----------------------------------------------------------------------===//

TEST(Snapshot, CorruptionSmoke64) {
  Checkpoint C;
  makeCheckpoint(C);
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    std::string Desc;
    std::vector<uint8_t> Mutant = mutateSnapshot(C.Bytes, Seed, &Desc);
    std::string Diag;
    St S = tryLoad(C, Mutant, &Diag);
    EXPECT_NE(S, St::Ok) << "seed " << Seed << " (" << Desc
                         << ") loaded successfully";
    if (S != St::Ok) {
      EXPECT_FALSE(Diag.empty()) << "seed " << Seed << " (" << Desc
                                 << "): error without a diagnostic";
    }
  }
}

//===----------------------------------------------------------------------===//
// In-process harness smoke (the full matrix is SnapshotOracle.* in
// OracleHarnessTest)
//===----------------------------------------------------------------------===//

TEST(Snapshot, ListHarnessSmoke) {
  HarnessOptions Opt;
  Opt.Sequences = 3;
  Opt.Changes = 4;
  for (ReloadPath Path : {ReloadPath::Load, ReloadPath::Mmap}) {
    Opt.Reload = Path;
    EXPECT_EQ(runOracleHarness(
                  [] { return std::make_unique<ListModel>(8, 24); }, Opt),
              "");
  }
}
