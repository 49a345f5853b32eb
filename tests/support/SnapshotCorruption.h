//===- tests/support/SnapshotCorruption.h - Snapshot fuzz engine -*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The corruption engine behind the snapshot fuzz suites: seeded
/// mutations of a valid checkpoint file that are *guaranteed detectable*
/// by the load path they target — every strategy either breaks a checksum
/// it does not repair, or repairs the checksums and breaks an invariant
/// that path provably checks. The property under test: the loader returns
/// a diagnostic error on every mutant, and never crashes or trips a
/// sanitizer.
///
/// Strategies of mutateSnapshot (selected by seed), for the untrusted-file
/// load(), which checksums every byte and walks the restored trace once
/// with TraceAudit::inspect:
///   0. bit flip anywhere in the file (full-byte checksum coverage
///      catches it wherever it lands);
///   1. truncation to any shorter length;
///   2. section length-field inflation with the header resealed (breaks
///      section-table contiguity);
///   3. orphaning a non-empty memo bucket inside the arena image, found
///      through META, with the arena section and the header resealed
///      (the trace walk's memo membership check catches it);
///   4. growing a memoized node's extent from inside it — a read's or an
///      initializer's closure arity, or an allocation's block Size — by
///      a few words or past the bump frontier, with the arena section
///      and the header resealed (the trace walk's bounds, overlap and
///      arena reconciliation checks catch the extent; the arity and Size
///      are memo-key words, so the hash check catches even a change that
///      rounding hides).
///
/// mutateForFastPath hits only what the trusted-file mmapWarmStart
/// promises to check: bit flips in the header block, META or ROOTS (all
/// always checksummed), META's bucket-array geometry with META resealed,
/// and a memo bucket head pushed past the arena frontier (the head
/// sweep). Everything else in the mapped arena is trusted on that path,
/// so arena payload mutants belong to mutateSnapshot and load().
///
/// Tests can also use the reseal helpers directly to build targeted
/// negative-path inputs (patch a field, reseal, expect a specific
/// Status). claimQuietBase uses them to move a fresh runtime to a region
/// base that stays free after the runtime is gone, so a checkpoint of it
/// reloads in the same process.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_TESTS_SUPPORT_SNAPSHOTCORRUPTION_H
#define CEAL_TESTS_SUPPORT_SNAPSHOTCORRUPTION_H

#include "runtime/Runtime.h"
#include "runtime/Snapshot.h"
#include "support/Checksum.h"
#include "support/Random.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

namespace ceal {
namespace harness {

inline std::vector<uint8_t> slurpFile(const std::string &Path) {
  std::vector<uint8_t> B;
  if (std::FILE *F = std::fopen(Path.c_str(), "rb")) {
    std::fseek(F, 0, SEEK_END);
    long N = std::ftell(F);
    std::fseek(F, 0, SEEK_SET);
    B.resize(N > 0 ? static_cast<size_t>(N) : 0);
    if (!B.empty() && std::fread(B.data(), 1, B.size(), F) != B.size())
      B.clear();
    std::fclose(F);
  }
  return B;
}

inline bool spitFile(const std::string &Path, const std::vector<uint8_t> &B) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = B.empty() || std::fwrite(B.data(), 1, B.size(), F) == B.size();
  return (std::fclose(F) == 0) && Ok;
}

/// A mkstemp-backed file deleted on scope exit.
struct TempFile {
  std::string Path;
  TempFile() {
    char Buf[] = "/tmp/ceal-snapshot-XXXXXX";
    int Fd = ::mkstemp(Buf);
    if (Fd >= 0)
      ::close(Fd);
    Path = Buf;
  }
  ~TempFile() { ::unlink(Path.c_str()); }
  TempFile(const TempFile &) = delete;
  TempFile &operator=(const TempFile &) = delete;
};

/// Section indexes in the fixed file order.
constexpr size_t MetaSection = 0, RootsSection = 1, MemSection = 2;

/// A mutable view of the header inside a file image.
inline Snapshot::FileHeader *headerOf(std::vector<uint8_t> &B) {
  return B.size() >= sizeof(Snapshot::FileHeader)
             ? reinterpret_cast<Snapshot::FileHeader *>(B.data())
             : nullptr;
}

/// Recomputes the header-block checksum (whole 4096-byte block, checksum
/// field zeroed) after a header patch.
inline void resealHeader(std::vector<uint8_t> &B) {
  Snapshot::FileHeader *H = headerOf(B);
  if (!H || B.size() < Snapshot::HeaderBytes)
    return;
  H->HeaderChecksum = 0;
  H->HeaderChecksum = Checksum64::of(B.data(), Snapshot::HeaderBytes);
}

/// Recomputes section \p Index's table checksum after a payload patch.
/// Does not reseal the header; call resealHeader() after.
inline void resealSection(std::vector<uint8_t> &B, size_t Index) {
  Snapshot::FileHeader *H = headerOf(B);
  if (!H || Index >= Snapshot::NumSections)
    return;
  Snapshot::SectionEntry &E = H->Sections[Index];
  if (E.Offset + E.Length <= B.size())
    E.Checksum = Checksum64::of(B.data() + E.Offset, E.Length);
}

/// A region base far below the kernel's top-down mmap area, and outside
/// AddressSanitizer's shadow and allocator ranges on x86-64, so that a
/// checkpoint's recorded base is still free when it is loaded after its
/// source runtime is gone. (Near the top-down area the next mmap fills
/// the freed hole: an ASan allocator chunk or a cached thread stack did,
/// and the load failed with AddressUnavailable.) ThreadSanitizer drops a
/// fixed claim outside its application ranges and aborts on wherever the
/// mapping lands, so a TSan build uses its low application range.
#ifdef __SANITIZE_THREAD__
constexpr uint64_t QuietBase = 0x004000000000ULL;
#else
constexpr uint64_t QuietBase = 0x400000000000ULL;
#endif

/// Moves the fresh runtime \p RT's region to QuietBase. An empty
/// runtime's arena image holds no raw address, so its checkpoint loads at
/// any base the header names. If the base cannot be claimed on this host,
/// the load leaves \p RT pristine at a base of the kernel's choosing.
/// Returns "" or what went wrong.
inline std::string claimQuietBase(Runtime &RT) {
  TempFile Empty;
  {
    Runtime Fresh(RT.config());
    if (!Snapshot::save(Fresh, Empty.Path).ok())
      return "cannot checkpoint an empty runtime";
  }
  std::vector<uint8_t> B = slurpFile(Empty.Path);
  if (!headerOf(B))
    return "cannot read back the empty checkpoint";
  headerOf(B)->MemBase = QuietBase;
  resealHeader(B);
  if (!spitFile(Empty.Path, B))
    return "cannot rewrite the empty checkpoint";
  Snapshot::LoadResult LR = Snapshot::load(RT, Empty.Path);
  if (LR.ok() || LR.St == Snapshot::Status::AddressUnavailable)
    return "";
  return std::string("claiming the quiet base: ") +
         Snapshot::statusName(LR.St) + ": " + LR.Diagnostic;
}

/// Absolute file offset of the MetaFixed field at \p FieldOff (the META
/// payload starts with the 8-byte kind preamble).
inline size_t metaFieldOffset(const std::vector<uint8_t> &B,
                              size_t FieldOff) {
  const auto *H = reinterpret_cast<const Snapshot::FileHeader *>(B.data());
  return static_cast<size_t>(H->Sections[MetaSection].Offset) + 8 + FieldOff;
}

/// Absolute file offset of the MemoMeta record of the read (\p Alloc
/// false) or alloc (\p Alloc true) memo table.
inline size_t memoMetaOffset(const std::vector<uint8_t> &B, bool Alloc) {
  return metaFieldOffset(B, Alloc ? offsetof(Snapshot::MetaFixed, AllocMemo)
                                  : offsetof(Snapshot::MetaFixed, ReadMemo));
}

/// The bucket-array geometry META records for one memo table.
inline Snapshot::MemoMeta memoMetaOf(const std::vector<uint8_t> &B,
                                     bool Alloc) {
  Snapshot::MemoMeta MM{};
  std::memcpy(&MM, B.data() + memoMetaOffset(B, Alloc), sizeof(MM));
  return MM;
}

/// Absolute file offset of bucket \p I's head in a table's array (the
/// arena section is the region image from offset 0).
inline size_t bucketHeadOffset(const std::vector<uint8_t> &B,
                               const Snapshot::MemoMeta &MM, uint64_t I) {
  const auto *H = reinterpret_cast<const Snapshot::FileHeader *>(B.data());
  return static_cast<size_t>(H->Sections[MemSection].Offset + MM.Off + 4 * I);
}

/// One seeded, guaranteed-detectable mutation of a valid snapshot image.
/// Returns the mutant and a one-line description for failure messages.
inline std::vector<uint8_t> mutateSnapshot(std::vector<uint8_t> B,
                                           uint64_t Seed,
                                           std::string *Desc = nullptr) {
  uint64_t State = Seed ^ 0xc0bb1e5ULL;
  Rng R(splitMix64(State));
  Snapshot::FileHeader *H = headerOf(B);
  auto Describe = [&](const std::string &S) {
    if (Desc)
      *Desc = S;
  };
  unsigned Strategy = H ? unsigned(R.below(5)) : 0;
  switch (Strategy) {
  case 1: { // Truncation (any cut strictly shorter than the file).
    size_t Cut = R.below(B.size());
    Describe("truncate to " + std::to_string(Cut) + " bytes");
    B.resize(Cut);
    return B;
  }
  case 2: { // Length-field inflation, header resealed.
    size_t Index = R.below(Snapshot::NumSections);
    uint64_t Delta = 8 * (1 + R.below(64));
    Describe("inflate section " + std::to_string(Index) + " length by " +
             std::to_string(Delta));
    H->Sections[Index].Length += Delta;
    resealHeader(B);
    return B;
  }
  case 3: { // Orphan a non-empty memo bucket, MEM and header resealed.
    Snapshot::MemoMeta MM = memoMetaOf(B, /*Alloc=*/R.below(2) != 0);
    std::vector<size_t> NonEmpty;
    for (uint64_t I = 0; I < MM.Buckets; ++I) {
      size_t At = bucketHeadOffset(B, MM, I);
      uint32_t Head;
      std::memcpy(&Head, B.data() + At, 4);
      if (Head != 0)
        NonEmpty.push_back(At);
    }
    if (!NonEmpty.empty()) {
      size_t At = NonEmpty[R.below(NonEmpty.size())];
      Describe("orphan memo bucket at file offset " + std::to_string(At) +
               ", reseal the arena section + header");
      uint32_t Zero = 0;
      std::memcpy(B.data() + At, &Zero, 4);
      resealSection(B, MemSection);
      resealHeader(B);
      return B;
    }
    break; // No non-empty bucket: fall through to a bit flip.
  }
  case 4: { // Grow a memoized node's extent, MEM and header resealed.
    const bool Alloc = R.below(2) != 0;
    Snapshot::MemoMeta MM = memoMetaOf(B, Alloc);
    std::vector<uint32_t> Nodes;
    for (uint64_t I = 0; I < MM.Buckets; ++I) {
      uint32_t Head;
      std::memcpy(&Head, B.data() + bucketHeadOffset(B, MM, I), 4);
      if (Head != 0)
        Nodes.push_back(Head);
    }
    if (Nodes.empty())
      break;
    const size_t NodeAt =
        static_cast<size_t>(H->Sections[MemSection].Offset) +
        size_t(Nodes[R.below(Nodes.size())]) * Arena::HandleGrain;
    const size_t Fixed = Alloc ? sizeof(AllocNode) : sizeof(ReadNode);
    if (NodeAt + Fixed + sizeof(Closure) > B.size())
      break;
    const bool Far = R.below(2) != 0;
    if (Alloc && R.below(2)) {
      // The block's Size directly follows the allocation's start stamp.
      const size_t At = NodeAt + sizeof(TraceNode);
      uint32_t Size;
      std::memcpy(&Size, B.data() + At, 4);
      const uint32_t Grown =
          Far ? UINT32_MAX - 1
              : Size + static_cast<uint32_t>(1 + R.below(64));
      std::memcpy(B.data() + At, &Grown, 4);
      Describe("alloc Size at file offset " + std::to_string(At) + ": " +
               std::to_string(Size) + " -> " + std::to_string(Grown) +
               ", reseal the arena section + header");
    } else {
      const size_t At = NodeAt + Fixed;
      uint64_t Header;
      std::memcpy(&Header, B.data() + At, 8);
      const uint64_t Arity = (Header >> Closure::NumArgsShift) & 0xffff;
      const uint64_t Grown =
          Far ? 0xffff : std::min<uint64_t>(Arity + 1 + R.below(8), 0xffff);
      if (Grown == Arity)
        break;
      Header = (Header & ~(uint64_t(0xffff) << Closure::NumArgsShift)) |
               Grown << Closure::NumArgsShift;
      std::memcpy(B.data() + At, &Header, 8);
      Describe(std::string(Alloc ? "initializer" : "read closure") +
               " arity at file offset " + std::to_string(At) + ": " +
               std::to_string(Arity) + " -> " + std::to_string(Grown) +
               ", reseal the arena section + header");
    }
    resealSection(B, MemSection);
    resealHeader(B);
    return B;
  }
  default:
    break;
  }
  // Strategy 0 and every fallback: flip one bit anywhere. Every file byte
  // is covered by the header-block checksum or a section checksum, and
  // none is resealed here.
  size_t Byte = R.below(B.size());
  unsigned Bit = unsigned(R.below(8));
  Describe("flip bit " + std::to_string(Bit) + " of byte " +
           std::to_string(Byte));
  B[Byte] ^= uint8_t(1u << Bit);
  return B;
}

/// One seeded mutation of a valid snapshot image that the trusted-file
/// mmapWarmStart must reject: it changes only bytes that path checksums
/// or bounds-checks.
inline std::vector<uint8_t> mutateForFastPath(std::vector<uint8_t> B,
                                              uint64_t Seed,
                                              std::string *Desc = nullptr) {
  uint64_t State = Seed ^ 0xfa57fa57ULL;
  Rng R(splitMix64(State));
  Snapshot::FileHeader *H = headerOf(B);
  auto Describe = [&](const std::string &S) {
    if (Desc)
      *Desc = S;
  };
  const Snapshot::SectionEntry &Meta = H->Sections[MetaSection];
  const Snapshot::SectionEntry &Roots = H->Sections[RootsSection];
  switch (R.below(4)) {
  case 0: { // Bit flip in the header block, META or ROOTS.
    const uint64_t Span = Snapshot::HeaderBytes + Meta.Length + Roots.Length;
    size_t Byte = static_cast<size_t>(R.below(Span));
    unsigned Bit = unsigned(R.below(8));
    Describe("flip bit " + std::to_string(Bit) + " of byte " +
             std::to_string(Byte));
    B[Byte] ^= uint8_t(1u << Bit);
    return B;
  }
  case 1: { // Bit flip in a bucket-array geometry word, META resealed.
    // Any flip of the power-of-two bucket count leaves zero or two bits
    // set. An offset flip is detectable when it misaligns the offset
    // (bits 0-2) or lands past the frontier (a bit above MemBumpUsed's
    // top bit, which an in-bounds offset has clear); a flip in between
    // could name another in-bounds array, which the fast path trusts.
    const bool Alloc = R.below(2) != 0;
    const bool CountWord = R.below(2) != 0;
    size_t At = memoMetaOffset(B, Alloc) + (CountWord ? 8 : 0);
    unsigned Bit = unsigned(R.below(64));
    if (!CountWord) {
      unsigned Top = 64 - unsigned(__builtin_clzll(H->MemBumpUsed));
      Bit = R.below(2) ? unsigned(R.below(3))
                       : Top + unsigned(R.below(64 - Top));
    }
    uint64_t V;
    std::memcpy(&V, B.data() + At, 8);
    V ^= uint64_t(1) << Bit;
    std::memcpy(B.data() + At, &V, 8);
    Describe(std::string(Alloc ? "alloc" : "read") +
             " memo geometry: flip bit " + std::to_string(Bit) +
             " of the word at file offset " + std::to_string(At) +
             ", reseal META + header");
    resealSection(B, MetaSection);
    resealHeader(B);
    return B;
  }
  default: { // A bucket head pushed past the frontier, MEM not resealed.
    const bool Alloc = R.below(2) != 0;
    Snapshot::MemoMeta MM = memoMetaOf(B, Alloc);
    if (MM.Buckets == 0)
      break;
    const uint64_t Limit = H->MemBumpUsed / 8;
    const uint64_t Head =
        Limit + R.below(uint64_t(0xffffffffu) - Limit + 1);
    size_t At = bucketHeadOffset(B, MM, R.below(MM.Buckets));
    uint32_t V = static_cast<uint32_t>(Head);
    std::memcpy(B.data() + At, &V, 4);
    Describe(std::string(Alloc ? "alloc" : "read") + " memo head at file "
             "offset " + std::to_string(At) + " set to handle " +
             std::to_string(V) + " past the frontier");
    return B;
  }
  }
  // No bucket array: flip a header bit instead.
  size_t Byte = static_cast<size_t>(R.below(Snapshot::HeaderBytes));
  Describe("flip bit 0 of header byte " + std::to_string(Byte));
  B[Byte] ^= 1;
  return B;
}

} // namespace harness
} // namespace ceal

#endif // CEAL_TESTS_SUPPORT_SNAPSHOTCORRUPTION_H
