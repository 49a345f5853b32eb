//===- runtime/Snapshot.cpp - Versioned trace checkpoints -----------------===//
//
// Save lays the file out as a 4096-byte header block plus three contiguous
// sections (META, the root table, then the page-aligned arena image, which
// also holds the memo tables' bucket arrays) and checksums every byte: the
// header block as a whole, each section over its full padded length. It
// reads the arena once: a helper thread checksums the image while the
// calling thread writes it in 2 MiB chunks. The file goes to a fresh
// sibling temporary, header block last, which is renamed over the target
// only when complete; a failure unlinks it. So the old checkpoint stays
// whole until the rename, and a runtime that maps it keeps the old inode.
//
// Load runs two stages: parseAndValidate() proves the file internally
// consistent without touching the runtime (so early failures leave it
// untouched), then install() claims the recorded region base, adopts the
// arena image (copy or mmap), restores the scalar state, and adopts the
// bucket arrays in place after one bounds sweep over their heads. Any
// failure after the claim rewinds the runtime to a pristine empty state.
// The copying path (Mmap false) alone adds the O(file)+O(trace) content
// passes: the arena section checksum, the freelist chain walks, and one
// TraceAudit::inspect walk over the installed trace. Everything else runs
// on both paths.
//
// The threat model for the loader is "arbitrary bytes on disk": nothing
// read from the file is dereferenced, indexed, or size-cast before a
// bounds and alignment check, and every rejection names the section and
// offset it happened at. On the mmap path that guarantee covers the
// loader itself, not the propagation that follows: the mapped payload is
// trusted. See Snapshot.h for the format contract.
//
//===----------------------------------------------------------------------===//

#include "runtime/Snapshot.h"

#include "runtime/Runtime.h"
#include "runtime/TraceAudit.h"
#include "support/Checksum.h"
#include "support/FileIo.h"
#include "support/simd/Simd.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace ceal;

//===----------------------------------------------------------------------===//
// Small local helpers (no privileged access needed)
//===----------------------------------------------------------------------===//

namespace {

/// The code-address anchor. One static function stands in for "every code
/// address in this image": closures store raw function pointers (and so do
/// closure *arguments* — e.g. the map/filter/compare callbacks the list
/// cores take), which cannot be individually found and rebased, so a
/// checkpoint is only loadable when the whole image sits where the saver
/// had it. Comparing one symbol's address detects any relocation.
void snapshotAnchorSymbol() {}

uint64_t systemPageBytes() {
  long P = ::sysconf(_SC_PAGESIZE);
  return P > 0 ? static_cast<uint64_t>(P) : 4096;
}

constexpr uint64_t padTo(uint64_t V, uint64_t Align) {
  return (V + Align - 1) & ~(Align - 1);
}

bool isPow2(uint64_t V) { return V != 0 && (V & (V - 1)) == 0; }

std::string strf(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));
std::string strf(const char *Fmt, ...) {
  va_list Args, Copy;
  va_start(Args, Fmt);
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string S(Len > 0 ? static_cast<size_t>(Len) : 0, '\0');
  if (Len > 0)
    std::vsnprintf(S.data(), S.size() + 1, Fmt, Args);
  va_end(Args);
  return S;
}

/// Append-only byte buffer for the small (non-arena) sections.
struct ByteBuf {
  std::vector<uint8_t> B;

  void u64(uint64_t V) { raw(&V, sizeof(V)); }
  void raw(const void *P, size_t N) {
    const auto *Q = static_cast<const uint8_t *>(P);
    B.insert(B.end(), Q, Q + N);
  }
  size_t size() const { return B.size(); }
  void padToLength(size_t Len) { B.resize(Len, 0); }
};

uint64_t byteswap64(uint64_t V) { return __builtin_bswap64(V); }

/// The arena image goes to disk in writes of this size while the checksum
/// thread reads the same region. On map_edit, 256 KiB writes made the
/// best save slower and the warm start that maps the file 15-20% slower;
/// one write of the whole image made the median save twice as slow
/// (EXPERIMENTS.md "One-pass checkpoint").
constexpr uint64_t SaveChunkBytes = uint64_t(2) << 20;

/// Checksums the arena section (its kind preamble, then the region image)
/// on a helper thread while save writes the same bytes. The thread runs on
/// a stack this object maps and unmaps itself: glibc keeps the stack of a
/// finished thread it allocated mapped for reuse, and one left next to
/// the arena region takes the hole that a later in-process load at the
/// region's recorded base needs. If no thread can be started, the
/// constructor computes the checksum on the calling thread.
class ArenaChecksum {
public:
  ArenaChecksum(uint64_t Preamble, const char *Image, size_t Len)
      : Preamble(Preamble), Image(Image), Len(Len) {
    Stack = ::mmap(nullptr, StackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    pthread_attr_t Attr;
    if (Stack != MAP_FAILED && ::pthread_attr_init(&Attr) == 0) {
      Running = ::pthread_attr_setstack(&Attr, Stack, StackBytes) == 0 &&
                ::pthread_create(&Tid, &Attr, &run, this) == 0;
      ::pthread_attr_destroy(&Attr);
    }
    if (!Running)
      compute();
  }
  ArenaChecksum(const ArenaChecksum &) = delete;
  ArenaChecksum &operator=(const ArenaChecksum &) = delete;
  ~ArenaChecksum() { digest(); }

  /// Joins the helper thread and returns the digest.
  uint64_t digest() {
    if (Running) {
      ::pthread_join(Tid, nullptr);
      Running = false;
    }
    if (Stack != MAP_FAILED) {
      ::munmap(Stack, StackBytes);
      Stack = MAP_FAILED;
    }
    return Sum;
  }

private:
  static constexpr size_t StackBytes = size_t(1) << 20;

  static void *run(void *Self) {
    static_cast<ArenaChecksum *>(Self)->compute();
    return nullptr;
  }
  void compute() {
    Checksum64 C;
    C.update(&Preamble, sizeof(Preamble));
    C.update(Image, Len);
    Sum = C.digest();
  }

  const uint64_t Preamble;
  const char *const Image;
  const size_t Len;
  void *Stack = MAP_FAILED;
  pthread_t Tid = {};
  bool Running = false;
  uint64_t Sum = 0;
};

/// The file a save writes before renaming it over its target: a fresh
/// sibling in the target's directory (so the rename is atomic), created
/// exclusively, and unlinked on every path that does not commit it.
struct SiblingTemp {
  std::string Name;
  io::File F;
  bool Committed = false;

  SiblingTemp() = default;
  SiblingTemp(const SiblingTemp &) = delete;
  SiblingTemp &operator=(const SiblingTemp &) = delete;
  ~SiblingTemp() {
    if (!Name.empty() && !Committed)
      ::unlink(Name.c_str());
  }

  /// Creates the temporary; false (errno set) if none could be made.
  /// O_EXCL makes the name unique; the nonce only makes clashes rare.
  bool create(const std::string &Target) {
    const uint64_t Nonce =
        uint64_t(std::chrono::steady_clock::now().time_since_epoch().count()) ^
        (uint64_t(::getpid()) << 40);
    for (uint64_t Try = 0; Try < 64; ++Try) {
      std::string Candidate = strf("%s.tmp-%016llx", Target.c_str(),
                                   (unsigned long long)(Nonce + Try));
      F = io::File::createExclusive(Candidate);
      if (F) {
        Name = std::move(Candidate);
        return true;
      }
      if (errno != EEXIST)
        return false;
    }
    return false;
  }

  /// Closes the temporary and renames it over \p Target.
  bool commit(const std::string &Target) {
    if (!F.close() || ::rename(Name.c_str(), Target.c_str()) != 0)
      return false;
    Committed = true;
    return true;
  }
};

} // namespace

static_assert(sizeof(Snapshot::SectionEntry) == 32,
              "section table entry layout drifted");
static_assert(sizeof(Snapshot::FileHeader) == 184,
              "file header layout drifted");
static_assert(sizeof(Snapshot::FileHeader) <= Snapshot::HeaderBytes,
              "header must fit its block");
static_assert(sizeof(Snapshot::MetaFixed) % 8 == 0,
              "META fixed part must stay word-aligned");
static_assert(sizeof(Runtime::Stats) == 11 * sizeof(uint64_t),
              "Stats counters changed; bump the snapshot format version");

const char *Snapshot::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "Ok";
  case Status::BadState:
    return "BadState";
  case Status::IoError:
    return "IoError";
  case Status::Truncated:
    return "Truncated";
  case Status::BadMagic:
    return "BadMagic";
  case Status::BadVersion:
    return "BadVersion";
  case Status::BadEndian:
    return "BadEndian";
  case Status::BadLayout:
    return "BadLayout";
  case Status::BadHeader:
    return "BadHeader";
  case Status::BadSectionTable:
    return "BadSectionTable";
  case Status::BadSectionKind:
    return "BadSectionKind";
  case Status::BadChecksum:
    return "BadChecksum";
  case Status::BadMeta:
    return "BadMeta";
  case Status::ConfigMismatch:
    return "ConfigMismatch";
  case Status::CodeMoved:
    return "CodeMoved";
  case Status::HandleOutOfBounds:
    return "HandleOutOfBounds";
  case Status::AddressUnavailable:
    return "AddressUnavailable";
  case Status::AuditFailed:
    return "AuditFailed";
  }
  return "Unknown";
}

uint64_t Snapshot::codeAnchor() {
  return reinterpret_cast<uint64_t>(&snapshotAnchorSymbol);
}

//===----------------------------------------------------------------------===//
// Runtime::readyForCheckpoint
//===----------------------------------------------------------------------===//

bool Runtime::readyForCheckpoint(std::string *Why) const {
  auto No = [Why](const char *Reason) {
    if (Why)
      *Why = Reason;
    return false;
  };
  if (CurPhase != Phase::Meta)
    return No("core execution or propagation in progress");
  if (!Main.Heap.empty())
    return No("pending invalidations queued (call propagate() first)");
  if (!Main.PendingReads.empty())
    return No("pending-read stack not empty");
  if (!PendingReadMemo.empty() || !PendingAllocMemo.empty())
    return No("construction memo inserts not flushed");
  if (!Main.DeferredFrees.empty())
    return No("deferred frees not flushed");
  if (Om.inAppendMode())
    return No("order list still in append mode");
  if (Oom)
    return No("runtime is out of memory");
  return true;
}

//===----------------------------------------------------------------------===//
// Snapshot::Impl — all privileged access lives here (nested, so it
// inherits the friend grants on Runtime, Arena, OrderList, MemoTable)
//===----------------------------------------------------------------------===//

struct Snapshot::Impl {
  // Section indexes in the fixed file order; the sections before IMem are
  // the small ones, read whole and always checksummed.
  enum : size_t { IMeta = 0, IRoots, IMem, NumSmall = IMem };

  //===------------------------------------------------------------===//
  // Offset <-> pointer/handle translation
  //===------------------------------------------------------------===//

  static uint64_t offOfPtr(const Arena &A, const void *P) {
    if (!P)
      return 0;
    return static_cast<uint64_t>(static_cast<const char *>(P) - A.Base);
  }

  template <typename T> static uint64_t offOfHandle(Handle<T> H) {
    return grainOff(H.Bits);
  }

  template <typename T> static Handle<T> handleAtOff(uint64_t Off) {
    return Handle<T>(static_cast<uint32_t>(Off / Arena::HandleGrain));
  }

  /// Region offset of a grain index (handle bits, freelist link).
  static uint64_t grainOff(uint32_t Grain) {
    return uint64_t(Grain) * Arena::HandleGrain;
  }

  //===------------------------------------------------------------===//
  // Save
  //===------------------------------------------------------------===//

  static void fillArenaMeta(ArenaMeta &AM, const Arena &A) {
    AM.BumpUsed = A.bumpUsedBytes();
    AM.LiveBytes = A.LiveBytes;
    AM.MaxLiveBytes = A.MaxLiveBytes;
    AM.TotalAllocated = A.TotalAllocated;
    AM.AllocCount = A.AllocCount;
    for (size_t I = 0; I < Arena::NumClasses; ++I)
      AM.FreeHeads[I] = grainOff(A.FreeLists[I]);
    AM.LargeCount = 0;
    for (const auto &[Size, Head] : A.LargeFree)
      if (Head)
        ++AM.LargeCount;
  }

  /// Appends the large-freelist (size, head-offset) pairs sorted by size
  /// so the section bytes are deterministic (unordered_map order is not).
  static void appendLargePairs(ByteBuf &Buf, const Arena &A) {
    std::vector<std::pair<uint64_t, uint64_t>> Pairs;
    for (const auto &[Size, Head] : A.LargeFree)
      if (Head)
        Pairs.emplace_back(Size, grainOff(Head));
    std::sort(Pairs.begin(), Pairs.end());
    for (const auto &[Size, Off] : Pairs) {
      Buf.u64(Size);
      Buf.u64(Off);
    }
  }

  template <typename NodeT>
  static MemoMeta memoMeta(const Arena &A, const MemoTable<NodeT> &Table) {
    return MemoMeta{offOfPtr(A, Table.Buckets), Table.NBuckets, Table.Count};
  }

  static SaveResult save(const Runtime &RT, const std::string &Path,
                         const SaveOptions &Opt) {
    SaveResult R;
    auto Fail = [&R](Status St, std::string Diag) -> SaveResult & {
      R.St = St;
      R.Diagnostic = std::move(Diag);
      return R;
    };

    std::string Why;
    if (!RT.readyForCheckpoint(&Why))
      return Fail(Status::BadState, "runtime not checkpointable: " + Why);

    const Arena &Mem = RT.Mem;
    const uint64_t MemUsed = Mem.bumpUsedBytes();
    const uint64_t Page = systemPageBytes();

    for (size_t I = 0; I < Opt.Roots.size(); ++I) {
      uint64_t Off = offOfPtr(Mem, Opt.Roots[I]);
      if (!Opt.Roots[I] || Off < Arena::HandleGrain || Off >= MemUsed ||
          Off % Arena::HandleGrain != 0)
        return Fail(Status::BadState,
                    strf("root #%zu does not point into the runtime arena's "
                         "allocated space",
                         I));
    }

    // META section.
    MetaFixed MF = {};
    MF.CursorOff = offOfPtr(Mem, RT.Main.Cursor);
    MF.TraceEndOff = offOfPtr(Mem, RT.TraceEnd);
    std::memcpy(MF.Stats, &RT.Main.S, sizeof(MF.Stats));
    MF.MetaBytes = RT.MetaBytes;
    MF.GcAllocMark = RT.GcAllocMark;
    MF.NodePadBytes = RT.nodePadBytes();
    MF.OmBaseOff = offOfHandle(RT.Om.Base);
    MF.OmFirstGroupOff = offOfHandle(RT.Om.FirstGroup);
    MF.OmSize = RT.Om.Size;
    MF.OmRelabels = RT.Om.Relabels;
    MF.OmRangeRelabels = RT.Om.RangeRelabels;
    MF.ReadMemo = memoMeta(Mem, RT.ReadMemo);
    MF.AllocMemo = memoMeta(Mem, RT.AllocMemo);
    MF.RootCount = Opt.Roots.size();
    fillArenaMeta(MF.MemA, Mem);

    ByteBuf Meta;
    Meta.u64(sectionPreamble(SecMeta));
    Meta.raw(&MF, sizeof(MF));
    appendLargePairs(Meta, Mem);

    ByteBuf Roots;
    Roots.u64(sectionPreamble(SecRoots));
    Roots.u64(Opt.Roots.size());
    for (const void *P : Opt.Roots)
      Roots.u64(offOfPtr(Mem, P));

    // Lay the sections out contiguously; ROOTS absorbs the padding that
    // page-aligns the arena image.
    FileHeader H = {};
    SectionEntry *SE = H.Sections;
    uint64_t Off = HeaderBytes;
    auto Place = [&](size_t Index, uint32_t Kind, uint64_t Length) {
      SE[Index].Kind = Kind;
      SE[Index].Offset = Off;
      SE[Index].Length = Length;
      Off += Length;
    };
    Place(IMeta, SecMeta, Meta.size());
    uint64_t RootsLen = padTo(Off + Roots.size(), Page) - Off;
    Roots.padToLength(RootsLen);
    Place(IRoots, SecRoots, RootsLen);
    Place(IMem, SecMem, padTo(MemUsed, Page));
    const uint64_t FileBytes = Off;

    SiblingTemp Tmp;
    if (!Tmp.create(Path))
      return Fail(Status::IoError,
                  strf("cannot create a temporary next to %s: %s",
                       Path.c_str(), std::strerror(errno)));
    const io::File &F = Tmp.F;
    auto WriteFailed = [&](int Err) -> SaveResult & {
      return Fail(Status::IoError, strf("write failed for %s: %s",
                                        Path.c_str(), std::strerror(Err)));
    };

    // Small sections: write from the buffers, checksum the same bytes.
    const ByteBuf *Small[NumSmall] = {&Meta, &Roots};
    for (size_t I = 0; I < NumSmall; ++I) {
      if (!F.pwriteAll(Small[I]->B.data(), Small[I]->B.size(), SE[I].Offset))
        return WriteFailed(errno);
      SE[I].Checksum = Checksum64::of(Small[I]->B.data(), Small[I]->B.size());
    }

    // Arena section: an 8-byte kind preamble overlays region bytes
    // [0, 8) — never used by the runtime (offset 0 is the null handle) —
    // then the region image verbatim, in one pass over memory: a helper
    // thread checksums the image while this thread writes it. Both only
    // read the region; the runtime is quiescent and const here. The
    // helper is joined on every path (digest() or the destructor).
    {
      const uint64_t Pre = sectionPreamble(SecMem);
      const uint64_t Len = SE[IMem].Length;
      const char *Region = Mem.Base;
      ArenaChecksum Sum(Pre, Region + Arena::HandleGrain,
                        Len - Arena::HandleGrain);
      bool Wrote = F.pwriteAll(&Pre, sizeof(Pre), SE[IMem].Offset);
      for (uint64_t Pos = Arena::HandleGrain; Wrote && Pos < Len;) {
        const uint64_t End = std::min(Len, padTo(Pos + 1, SaveChunkBytes));
        Wrote = F.pwriteAll(Region + Pos, End - Pos, SE[IMem].Offset + Pos);
        Pos = End;
      }
      const int WriteErr = errno;
      SE[IMem].Checksum = Sum.digest();
      if (!Wrote)
        return WriteFailed(WriteErr);
    }

    H.MagicWord = Magic;
    H.Version = FormatVersion;
    H.Endian = EndianTag;
    H.LayoutFingerprint = traceLayoutFingerprint();
    H.AnchorAddr = codeAnchor();
    H.FileBytes = FileBytes;
    H.PageBytes = Page;
    H.MemBase = reinterpret_cast<uint64_t>(Mem.Base);
    H.MemRegionBytes = Mem.RegionBytes;
    H.MemBumpUsed = MemUsed;
    H.SectionCount = NumSections;

    // The header checksum covers the whole 4096-byte block (padding
    // included) with the checksum field itself zeroed, so with the
    // contiguous full-length section checksums above, every byte of the
    // file is under exactly one checksum.
    std::vector<uint8_t> Block(HeaderBytes, 0);
    H.HeaderChecksum = 0;
    std::memcpy(Block.data(), &H, sizeof(H));
    uint64_t Sum = Checksum64::of(Block.data(), Block.size());
    std::memcpy(Block.data() + offsetof(FileHeader, HeaderChecksum), &Sum,
                sizeof(Sum));
    if (!F.pwriteAll(Block.data(), Block.size(), 0))
      return WriteFailed(errno);
    if (!Tmp.commit(Path))
      return Fail(Status::IoError,
                  strf("cannot replace %s: %s", Path.c_str(),
                       std::strerror(errno)));

    R.FileBytes = FileBytes;
    return R;
  }

  //===------------------------------------------------------------===//
  // Load stage 1: parse and validate without touching the runtime
  //===------------------------------------------------------------===//

  struct Parsed {
    io::File F;
    FileHeader H;
    MetaFixed MF;
    std::vector<std::pair<uint64_t, uint64_t>> MemLarge;
    std::vector<uint64_t> RootOffs;
  };

  static bool failL(LoadResult &Out, Status St, std::string Diag) {
    Out.St = St;
    Out.Diagnostic = std::move(Diag);
    return false;
  }

  /// Streams a section through Checksum64 without loading it whole.
  static bool checksumRange(const io::File &F, uint64_t Off, uint64_t Len,
                            uint64_t &Sum) {
    Checksum64 C;
    std::vector<uint8_t> Buf(1 << 20);
    while (Len > 0) {
      size_t N = Len < Buf.size() ? static_cast<size_t>(Len) : Buf.size();
      if (!F.preadAll(Buf.data(), N, Off))
        return false;
      C.update(Buf.data(), N);
      Off += N;
      Len -= N;
    }
    Sum = C.digest();
    return true;
  }

  static bool parseAndValidate(const Runtime &RT, const std::string &Path,
                               bool Mmap, Parsed &P, LoadResult &Out) {
    P.F = io::File::openRead(Path);
    if (!P.F)
      return failL(Out, Status::IoError, "cannot open " + Path);
    int64_t ActualSize = P.F.size();
    if (ActualSize < 0)
      return failL(Out, Status::IoError, "cannot stat " + Path);
    if (static_cast<uint64_t>(ActualSize) < HeaderBytes)
      return failL(Out, Status::Truncated,
                   strf("file is %lld bytes, smaller than the %llu-byte "
                        "header block",
                        (long long)ActualSize, (unsigned long long)HeaderBytes));

    std::vector<uint8_t> Block(HeaderBytes);
    if (!P.F.preadAll(Block.data(), Block.size(), 0))
      return failL(Out, Status::IoError, "header read failed");
    FileHeader &H = P.H;
    std::memcpy(&H, Block.data(), sizeof(H));

    if (H.MagicWord != Magic) {
      if (H.MagicWord == byteswap64(Magic))
        return failL(Out, Status::BadEndian,
                     "snapshot written on a machine with different byte "
                     "order");
      return failL(Out, Status::BadMagic,
                   strf("not a CEAL snapshot (magic 0x%016llx)",
                        (unsigned long long)H.MagicWord));
    }
    if (H.Endian != EndianTag)
      return failL(Out, Status::BadEndian,
                   strf("endianness tag 0x%08x does not match this host",
                        H.Endian));
    if (H.Version != FormatVersion)
      return failL(Out, Status::BadVersion,
                   strf("format version %u; this build reads version %u",
                        H.Version, FormatVersion));
    uint64_t WantFp = traceLayoutFingerprint();
    if (H.LayoutFingerprint != WantFp)
      return failL(Out, Status::BadLayout,
                   strf("trace layout fingerprint 0x%016llx does not match "
                        "this build's 0x%016llx (node layout mismatch)",
                        (unsigned long long)H.LayoutFingerprint,
                        (unsigned long long)WantFp));

    // Malformed header fields (a crafted file can recompute the header
    // checksum, so these are real checks, not redundancy).
    if (!isPow2(H.PageBytes) || H.PageBytes < 512 ||
        H.PageBytes > (uint64_t(1) << 24))
      return failL(Out, Status::BadHeader,
                   strf("implausible page size %llu",
                        (unsigned long long)H.PageBytes));

    // Header block checksum: over all 4096 bytes with the field zeroed.
    uint64_t Stored = H.HeaderChecksum;
    std::memset(Block.data() + offsetof(FileHeader, HeaderChecksum), 0,
                sizeof(uint64_t));
    if (Checksum64::of(Block.data(), Block.size()) != Stored)
      return failL(Out, Status::BadHeader, "header checksum mismatch");

    if (static_cast<uint64_t>(ActualSize) < H.FileBytes)
      return failL(Out, Status::Truncated,
                   strf("file is %lld bytes but the header records %llu",
                        (long long)ActualSize,
                        (unsigned long long)H.FileBytes));
    if (static_cast<uint64_t>(ActualSize) > H.FileBytes)
      return failL(Out, Status::BadSectionTable,
                   strf("%llu trailing bytes beyond the recorded file size",
                        (unsigned long long)(ActualSize - H.FileBytes)));

    // Region geometry.
    if (H.MemRegionBytes == 0 || H.MemRegionBytes > Arena::MaxRegionBytes)
      return failL(Out, Status::BadHeader, "region size out of range");
    if (H.MemBase == 0 || H.MemBase % H.PageBytes != 0)
      return failL(Out, Status::BadHeader, "region base not page-aligned");
    if (H.MemBase + H.MemRegionBytes < H.MemBase)
      return failL(Out, Status::BadHeader, "region wraps the address space");
    if (H.MemBumpUsed < Arena::HandleGrain ||
        H.MemBumpUsed % Arena::HandleGrain != 0 ||
        H.MemBumpUsed > H.MemRegionBytes)
      return failL(Out, Status::BadHeader,
                   "arena bump frontier outside its region");

    // Section table: exact kinds in order, contiguous from the header
    // block to FileBytes, the arena section page-aligned with the length
    // its bump frontier dictates.
    if (H.SectionCount != NumSections)
      return failL(Out, Status::BadSectionTable,
                   strf("section count %u, expected %u", H.SectionCount,
                        NumSections));
    static const uint32_t WantKinds[NumSections] = {SecMeta, SecRoots,
                                                    SecMem};
    uint64_t Cursor = HeaderBytes;
    for (size_t I = 0; I < NumSections; ++I) {
      const SectionEntry &E = H.Sections[I];
      if (E.Kind != WantKinds[I])
        return failL(Out, Status::BadSectionTable,
                     strf("section %zu has kind %u, expected %u", I, E.Kind,
                          WantKinds[I]));
      if (E.Offset != Cursor)
        return failL(Out, Status::BadSectionTable,
                     strf("section %zu not contiguous (offset %llu, expected "
                          "%llu)",
                          I, (unsigned long long)E.Offset,
                          (unsigned long long)Cursor));
      if (E.Length < 8 || E.Length % 8 != 0 ||
          E.Length > H.FileBytes - Cursor)
        return failL(Out, Status::BadSectionTable,
                     strf("section %zu length %llu is invalid", I,
                          (unsigned long long)E.Length));
      Cursor += E.Length;
    }
    if (Cursor != H.FileBytes)
      return failL(Out, Status::BadSectionTable,
                   "sections do not cover the file exactly");
    if (H.Sections[IMem].Offset % H.PageBytes != 0)
      return failL(Out, Status::BadSectionTable,
                   "arena section not page-aligned");
    if (H.Sections[IMem].Length != padTo(H.MemBumpUsed, H.PageBytes))
      return failL(Out, Status::BadSectionTable,
                   "arena section length disagrees with its bump frontier");

    // Section content checksums, then the embedded kind preambles (so a
    // checksum-preserving payload swap is still caught). Both load paths
    // checksum the header (already done) and the META and root sections.
    std::vector<uint8_t> Small[NumSmall];
    for (size_t I = 0; I < NumSmall; ++I) {
      const SectionEntry &E = H.Sections[I];
      Small[I].resize(E.Length);
      if (!P.F.preadAll(Small[I].data(), E.Length, E.Offset))
        return failL(Out, Status::IoError, "section read failed");
      if (Checksum64::of(Small[I].data(), E.Length) != E.Checksum)
        return failL(Out, Status::BadChecksum,
                     strf("section %zu checksum mismatch", I));
    }
    // The arena payload (trace and memo bucket arrays) is the O(file)
    // part; the warm start trusts it by contract — its geometry,
    // preamble, and every offset installed from it are still checked
    // below, and the bucket heads are bounds-swept in install().
    if (!Mmap) {
      uint64_t Sum = 0;
      if (!checksumRange(P.F, H.Sections[IMem].Offset,
                         H.Sections[IMem].Length, Sum))
        return failL(Out, Status::IoError, "section read failed");
      if (Sum != H.Sections[IMem].Checksum)
        return failL(Out, Status::BadChecksum,
                     strf("section %zu checksum mismatch", size_t(IMem)));
    }
    for (size_t I = 0; I < NumSections; ++I) {
      uint64_t Pre = 0;
      if (I < NumSmall)
        std::memcpy(&Pre, Small[I].data(), sizeof(Pre));
      else if (!P.F.preadAll(&Pre, sizeof(Pre), H.Sections[I].Offset))
        return failL(Out, Status::IoError, "section read failed");
      if (Pre != sectionPreamble(H.Sections[I].Kind))
        return failL(Out, Status::BadSectionKind,
                     strf("section %zu payload carries the wrong kind tag "
                          "(swapped payloads?)",
                          I));
    }

    return parseMeta(RT, Mmap, Small, P, Out);
  }

  /// META/roots parsing + semantic validation (file still the only thing
  /// touched; the runtime is read for config comparison only).
  static bool parseMeta(const Runtime &RT, bool Mmap,
                        const std::vector<uint8_t> Small[NumSmall],
                        Parsed &P, LoadResult &Out) {
    const FileHeader &H = P.H;
    MetaFixed &MF = P.MF;
    const std::vector<uint8_t> &Meta = Small[IMeta];
    if (Meta.size() < 8 + sizeof(MetaFixed))
      return failL(Out, Status::BadMeta, "META section too short");
    std::memcpy(&MF, Meta.data() + 8, sizeof(MF));

    // Cross-checks between the header and META copies of the frontier.
    if (MF.MemA.BumpUsed != H.MemBumpUsed)
      return failL(Out, Status::BadMeta,
                   "META arena frontier disagrees with the header");

    // Large-freelist pairs. Check the count against the tail capacity in
    // pairs — the count is an untrusted uint64, and its byte size
    // (count * 16) can wrap past the bound.
    uint64_t PairCap = (Meta.size() - 8 - sizeof(MetaFixed)) / 16;
    if (MF.MemA.LargeCount > PairCap)
      return failL(Out, Status::BadMeta,
                   "META large-freelist table exceeds its section");
    const uint8_t *Tail = Meta.data() + 8 + sizeof(MetaFixed);
    auto ReadPairs = [&Tail](std::vector<std::pair<uint64_t, uint64_t>> &Dst,
                             uint64_t N) {
      for (uint64_t I = 0; I < N; ++I) {
        uint64_t Size, Off;
        std::memcpy(&Size, Tail, 8);
        std::memcpy(&Off, Tail + 8, 8);
        Tail += 16;
        Dst.emplace_back(Size, Off);
      }
    };
    ReadPairs(P.MemLarge, MF.MemA.LargeCount);

    // Every offset the loader will turn into a pointer gets bounds- and
    // alignment-checked against the serialized frontier it indexes.
    auto OffOk = [](uint64_t Off, uint64_t Need, uint64_t Used) {
      return Off >= Arena::HandleGrain && Off % Arena::HandleGrain == 0 &&
             Need <= Used && Off <= Used - Need;
    };
    auto BadOff = [&Out](const char *What, uint64_t Off) {
      return failL(Out, Status::HandleOutOfBounds,
                   strf("%s offset %llu points outside the serialized arena",
                        What, (unsigned long long)Off));
    };
    if (!OffOk(MF.CursorOff, sizeof(OmNode), H.MemBumpUsed))
      return BadOff("cursor timestamp", MF.CursorOff);
    if (!OffOk(MF.TraceEndOff, sizeof(OmNode), H.MemBumpUsed))
      return BadOff("trace-end timestamp", MF.TraceEndOff);
    if (!OffOk(MF.OmBaseOff, sizeof(OmNode), H.MemBumpUsed))
      return BadOff("order-list base", MF.OmBaseOff);
    if (!OffOk(MF.OmFirstGroupOff, sizeof(OmGroup), H.MemBumpUsed))
      return BadOff("order-list first group", MF.OmFirstGroupOff);
    if (MF.OmSize == 0 || MF.OmSize > H.MemBumpUsed / sizeof(OmNode) + 1)
      return failL(Out, Status::BadMeta,
                   strf("order-list size %llu impossible for a %llu-byte "
                        "arena",
                        (unsigned long long)MF.OmSize,
                        (unsigned long long)H.MemBumpUsed));
    for (size_t I = 0; I < Arena::NumClasses; ++I)
      if (MF.MemA.FreeHeads[I] &&
          !OffOk(MF.MemA.FreeHeads[I], Arena::classSize(I), H.MemBumpUsed))
        return BadOff("trace-arena freelist head", MF.MemA.FreeHeads[I]);
    auto CheckLarge =
        [&](const std::vector<std::pair<uint64_t, uint64_t>> &Pairs,
            uint64_t Used, const char *What) {
          uint64_t PrevSize = 0;
          for (const auto &[Size, Off] : Pairs) {
            if (Size <= Arena::MaxSmallSize || Size % Arena::HandleGrain ||
                Size <= PrevSize)
              return failL(Out, Status::BadMeta,
                           strf("%s large-freelist table malformed", What));
            if (!Off || !OffOk(Off, Size, Used))
              return BadOff(What, Off);
            PrevSize = Size;
          }
          return true;
        };
    if (!CheckLarge(P.MemLarge, H.MemBumpUsed, "trace-arena"))
      return false;

    // Memo bucket arrays: geometry only. The arrays are arena payload;
    // install() adopts them in place and bounds-sweeps their heads. A
    // table that never allocated records offset, buckets and count 0.
    auto CheckMemo = [&](const MemoMeta &MM, uint64_t NodeBytes,
                         const char *Name) {
      if (MM.Buckets == 0 && MM.Off == 0 && MM.Count == 0)
        return true;
      if (!isPow2(MM.Buckets) || MM.Buckets < 64 ||
          MM.Buckets > (uint64_t(1) << 31))
        return failL(Out, Status::BadMeta,
                     strf("%s memo bucket count %llu invalid", Name,
                          (unsigned long long)MM.Buckets));
      if (MM.Count > H.MemBumpUsed / NodeBytes)
        return failL(Out, Status::BadMeta,
                     strf("%s memo count exceeds the arena's capacity", Name));
      if (!OffOk(MM.Off, MM.Buckets * sizeof(uint32_t), H.MemBumpUsed))
        return BadOff(strf("%s memo bucket array", Name).c_str(), MM.Off);
      return true;
    };
    if (!CheckMemo(MF.ReadMemo, sizeof(ReadNode), "read") ||
        !CheckMemo(MF.AllocMemo, sizeof(AllocNode), "alloc"))
      return false;
    if (MF.ReadMemo.Buckets && MF.AllocMemo.Buckets &&
        MF.ReadMemo.Off < MF.AllocMemo.Off + MF.AllocMemo.Buckets * 4 &&
        MF.AllocMemo.Off < MF.ReadMemo.Off + MF.ReadMemo.Buckets * 4)
      return failL(Out, Status::BadMeta,
                   "the read and alloc memo bucket arrays overlap");

    // Root table.
    const std::vector<uint8_t> &RootsSec = Small[IRoots];
    if (RootsSec.size() < 16 || (RootsSec.size() - 16) / 8 < MF.RootCount)
      return failL(Out, Status::BadMeta,
                   "root section too short for its count");
    uint64_t StoredRoots;
    std::memcpy(&StoredRoots, RootsSec.data() + 8, 8);
    if (StoredRoots != MF.RootCount)
      return failL(Out, Status::BadMeta,
                   "root count disagrees between META and the root section");
    P.RootOffs.resize(MF.RootCount);
    if (MF.RootCount) // memcpy's pointers must be non-null even for 0 bytes.
      std::memcpy(P.RootOffs.data(), RootsSec.data() + 16, MF.RootCount * 8);
    for (uint64_t Off : P.RootOffs)
      if (!OffOk(Off, Arena::HandleGrain, H.MemBumpUsed))
        return BadOff("root", Off);

    // Environment compatibility, last: everything about the *file* is
    // now known-consistent, so these name the actual incompatibility.
    if (H.AnchorAddr != codeAnchor())
      return failL(Out, Status::CodeMoved,
                   strf("code anchor moved (saved 0x%llx, this process "
                        "0x%llx); load from the same binary with ASLR "
                        "disabled",
                        (unsigned long long)H.AnchorAddr,
                        (unsigned long long)codeAnchor()));
    if (MF.NodePadBytes != RT.nodePadBytes())
      return failL(Out, Status::ConfigMismatch,
                   strf("checkpoint used %llu-byte node pads, runtime has "
                        "%zu (Config::SimulateSaSml differs)",
                        (unsigned long long)MF.NodePadBytes,
                        RT.nodePadBytes()));
    if (Mmap && H.PageBytes != systemPageBytes())
      return failL(Out, Status::BadMeta,
                   strf("saved with %llu-byte pages, this host has %llu "
                        "(use the copying load path)",
                        (unsigned long long)H.PageBytes,
                        (unsigned long long)systemPageBytes()));
    return true;
  }

  //===------------------------------------------------------------===//
  // Load stage 2: install into the runtime
  //===------------------------------------------------------------===//

  /// Rewinds a runtime whose install failed partway back to the pristine
  /// empty state a fresh Runtime has: the region is dropped and
  /// re-claimed anonymously at its current base (guaranteed free once
  /// our own mapping is gone), the order list is rebuilt in it, and every
  /// scalar is reset. A failed load is therefore always recoverable —
  /// the runtime can run cores again or retry a different checkpoint.
  static void resetToPristine(Runtime &RT) {
    RT.Mem.remapTo(RT.Mem.Base, RT.Mem.RegionBytes);
    RT.Om.rebuildEmpty();
    RT.Main.Cursor = RT.TraceEnd = RT.Om.base();
    resetExecution(RT);
    clearMemo(RT.ReadMemo);
    clearMemo(RT.AllocMemo);
    RT.Main.S = Runtime::Stats();
    RT.MetaBytes = 0;
    RT.GcAllocMark = 0;
  }

  /// The execution state a quiescent runtime has whatever its trace:
  /// meta phase, no interval being re-executed, nothing pending or
  /// queued, not out of memory.
  static void resetExecution(Runtime &RT) {
    RT.Main.IntervalEnd = nullptr;
    RT.Main.PendingSubst = 0;
    RT.Main.SplicedFlag = false;
    RT.CurPhase = Runtime::Phase::Meta;
    RT.Main.PendingReads.clear();
    RT.Main.Heap.clear();
    RT.PendingReadMemo.clear();
    RT.PendingAllocMemo.clear();
    RT.Main.DeferredFrees.clear();
    RT.Oom = false;
  }

  /// Walks one serialized freelist chain, rejecting any cell outside
  /// [grain, frontier) bounds or off the 8-byte grid, and any chain
  /// longer than the arena could hold (a cycle). The chain links are
  /// grain indexes inside the freshly adopted image, so this must run
  /// before the arena is allowed to pop them.
  static bool checkFreeChain(const Arena &A, uint64_t HeadOff,
                             uint64_t CellBytes, uint64_t Used,
                             const char *Name, LoadResult &Out) {
    uint64_t Off = HeadOff;
    uint64_t Steps = 0;
    const uint64_t Cap = Used / Arena::HandleGrain + 2;
    while (Off != 0) {
      if (Off < Arena::HandleGrain || Off % Arena::HandleGrain != 0 ||
          CellBytes > Used || Off > Used - CellBytes)
        return failL(Out, Status::HandleOutOfBounds,
                     strf("%s freelist cell at offset %llu outside the "
                          "serialized arena",
                          Name, (unsigned long long)Off));
      if (++Steps > Cap)
        return failL(Out, Status::AuditFailed,
                     strf("%s freelist chain does not terminate (cycle)",
                          Name));
      uint32_t Next;
      std::memcpy(&Next, A.Base + Off, sizeof(Next));
      Off = grainOff(Next);
    }
    return true;
  }

  static bool restoreArena(Arena &A, const ArenaMeta &AM, uint64_t Used,
                           const std::vector<std::pair<uint64_t, uint64_t>>
                               &Large,
                           bool WalkChains, const char *Name,
                           LoadResult &Out) {
    A.BumpPtr = A.Base + Used;
    A.LiveBytes = AM.LiveBytes;
    A.MaxLiveBytes = AM.MaxLiveBytes;
    A.TotalAllocated = AM.TotalAllocated;
    A.AllocCount = AM.AllocCount;
    // The chain *heads* were bounds-checked in parseMeta; the chains
    // themselves are arena payload, so on the warm-start path they
    // are adopted unwalked (the walk would fault in a page per scattered
    // free cell — the single largest cost of a warm start — to check
    // bytes the contract already trusts).
    for (size_t I = 0; I < Arena::NumClasses; ++I) {
      uint64_t HeadOff = AM.FreeHeads[I];
      if (WalkChains &&
          !checkFreeChain(A, HeadOff, Arena::classSize(I), Used, Name, Out))
        return false;
      A.FreeLists[I] = handleAtOff<Arena::FreeCell>(HeadOff).Bits;
    }
    A.LargeFree.clear();
    for (const auto &[Size, HeadOff] : Large) {
      if (WalkChains && !checkFreeChain(A, HeadOff, Size, Used, Name, Out))
        return false;
      A.LargeFree[Size] = handleAtOff<Arena::FreeCell>(HeadOff).Bits;
    }
    return true;
  }

  /// Returns \p Table to the pristine no-array state (its array, if any,
  /// went with the region).
  template <typename NodeT> static void clearMemo(MemoTable<NodeT> &Table) {
    Table.Buckets = nullptr;
    Table.NBuckets = 0;
    Table.Count = 0;
  }

  /// Adopts a table's bucket array where the adopted arena image holds
  /// it, after one sweep proving every head handle lies below the
  /// frontier (parseMeta checked the array's own geometry). The heads are
  /// arena payload, so the warm start does not checksum them; the sweep
  /// keeps every head it installs in bounds anyway.
  template <typename NodeT>
  static bool adoptMemo(MemoTable<NodeT> &Table, const Arena &A,
                        const MemoMeta &MM, uint64_t Used, const char *Name,
                        LoadResult &Out) {
    if (MM.Buckets == 0)
      return true;
    static_assert(sizeof(Handle<NodeT>) == sizeof(uint32_t),
                  "packed head sweep assumes compressed handles");
    const auto *Heads = reinterpret_cast<const uint32_t *>(A.Base + MM.Off);
    const uint32_t Limit = static_cast<uint32_t>(Used / Arena::HandleGrain);
    size_t Bad = simd::boundsCheckU32(Heads, MM.Buckets, Limit);
    if (Bad != MM.Buckets)
      return failL(Out, Status::HandleOutOfBounds,
                   strf("%s memo bucket %zu head offset %llu points outside "
                        "the serialized arena",
                        Name, Bad,
                        (unsigned long long)grainOff(Heads[Bad])));
    Table.Buckets = reinterpret_cast<Handle<NodeT> *>(A.Base + MM.Off);
    Table.NBuckets = static_cast<size_t>(MM.Buckets);
    Table.Count = static_cast<size_t>(MM.Count);
    return true;
  }

  static bool install(Runtime &RT, Parsed &P, bool Mmap, LoadResult &Out) {
    const FileHeader &H = P.H;
    // Pristine: no trace, and nothing in the arena but the empty order
    // list's own base and group.
    if (RT.CurPhase != Runtime::Phase::Meta || RT.Om.size() != 1 ||
        RT.Mem.liveBytes() != RT.Om.ownBytes())
      return failL(Out, Status::BadState,
                   "load requires a pristine runtime (fresh, no trace)");

    // Claim the recorded base. The claim is atomic (nothing foreign is
    // clobbered).
    char *MemWant = reinterpret_cast<char *>(H.MemBase);
    if (!RT.Mem.remapTo(MemWant, H.MemRegionBytes)) {
      resetToPristine(RT);
      return failL(Out, Status::AddressUnavailable,
                   strf("cannot claim the recorded region base %p "
                        "(address space occupied; load in a fresh process, "
                        "with ASLR disabled for cross-process use)",
                        (void *)MemWant));
    }

    // Adopt the arena image. The copy path reads past the 8-byte kind
    // preamble so region bytes [0, 8) stay zero; the mmap path maps the
    // whole page-aligned section copy-on-write (the preamble lands in the
    // never-used first grain).
    bool ContentOk;
    if (Mmap)
      ContentOk = RT.Mem.mapFilePrefix(P.F.fd(), H.Sections[IMem].Offset,
                                       H.Sections[IMem].Length);
    else
      ContentOk = H.MemBumpUsed == Arena::HandleGrain ||
                  P.F.preadAll(RT.Mem.Base + Arena::HandleGrain,
                               H.MemBumpUsed - Arena::HandleGrain,
                               H.Sections[IMem].Offset + Arena::HandleGrain);
    if (!ContentOk) {
      resetToPristine(RT);
      return failL(Out, Status::IoError,
                   "reading the arena image into the region failed");
    }

    if (!restoreArena(RT.Mem, P.MF.MemA, H.MemBumpUsed, P.MemLarge, !Mmap,
                      "trace-arena", Out)) {
      resetToPristine(RT);
      return false;
    }

    OrderList &Om = RT.Om;
    Om.Base = handleAtOff<OmNode>(P.MF.OmBaseOff);
    Om.FirstGroup = handleAtOff<OmGroup>(P.MF.OmFirstGroupOff);
    Om.Size = static_cast<size_t>(P.MF.OmSize);
    Om.Relabels = static_cast<size_t>(P.MF.OmRelabels);
    Om.RangeRelabels = static_cast<size_t>(P.MF.OmRangeRelabels);
    Om.FillLimit = OrderList::GroupLimit;
    Om.AppendActive = false;

    RT.Main.Cursor = RT.Mem.at(handleAtOff<OmNode>(P.MF.CursorOff));
    RT.TraceEnd = RT.Mem.at(handleAtOff<OmNode>(P.MF.TraceEndOff));
    resetExecution(RT);
    std::memcpy(&RT.Main.S, P.MF.Stats, sizeof(RT.Main.S));
    RT.MetaBytes = static_cast<size_t>(P.MF.MetaBytes);
    RT.GcAllocMark = static_cast<size_t>(P.MF.GcAllocMark);

    if (!adoptMemo(RT.ReadMemo, RT.Mem, P.MF.ReadMemo, H.MemBumpUsed, "read",
                   Out) ||
        !adoptMemo(RT.AllocMemo, RT.Mem, P.MF.AllocMemo, H.MemBumpUsed,
                   "alloc", Out)) {
      resetToPristine(RT);
      return false;
    }

    Out.Roots.reserve(P.RootOffs.size());
    for (uint64_t Off : P.RootOffs)
      Out.Roots.push_back(RT.Mem.Base + Off);

    // Untrusted-file validation: one TraceAudit walk over everything
    // installed above. The warm start skips this O(trace) walk by
    // contract — the scalar state installed above was bounds-checked
    // piece by piece, so the *loader* cannot have faulted, and what
    // remains unverified is the mapped trace payload itself.
    if (!Mmap) {
      TraceAudit::Report Rep = TraceAudit::inspect(RT);
      if (!Rep.ok()) {
        resetToPristine(RT);
        Out.Roots.clear();
        return failL(Out, Status::AuditFailed,
                     "loaded trace failed validation:\n" + Rep.summary());
      }
    }
    return true;
  }

  static LoadResult load(Runtime &RT, const std::string &Path, bool Mmap) {
    LoadResult Out;
    Parsed P;
    if (!parseAndValidate(RT, Path, Mmap, P, Out))
      return Out;
    install(RT, P, Mmap, Out);
    // The fd may close now even on the mmap path: MAP_PRIVATE mappings
    // keep their file reference after close (and after unlink).
    return Out;
  }

  //===------------------------------------------------------------===//
  // Trace shape digest
  //===------------------------------------------------------------===//

  static uint64_t digest(const Runtime &RT) {
    checkAlways(RT.CurPhase == Runtime::Phase::Meta,
                "traceShapeDigest outside the meta phase");
    const uint64_t RegionBase = reinterpret_cast<uint64_t>(RT.Mem.Base);
    const uint64_t Region = RT.Mem.RegionBytes;
    uint64_t H = 0x4345414c53484150ULL;
    auto MixRaw = [&H](uint64_t W) { H = hashMixWord(H, W); };
    // Word values routinely hold arena pointers (list cells, modrefs,
    // blocks). Raw addresses differ between runtimes at different region
    // bases, and raw *offsets* would tie the digest to one allocator's
    // placement decisions. Addresses are opaque identities to core code
    // (only equality is observable), so the digest is made
    // placement-abstract: each distinct in-region value is renamed to its
    // first-occurrence ordinal in trace order. Two digests agree iff the
    // traces match up to a bijection of block addresses — exactly
    // observational equivalence, and the property the oracle harness's
    // Reload axis (tests/support/OracleHarness.h, HarnessOptions::Reload)
    // asserts between a reloaded trace and a continuously-running one.
    std::unordered_map<uint64_t, uint64_t> Names;
    auto MixVal = [&](Word W) {
      if (W >= RegionBase && W - RegionBase < Region) {
        auto It = Names.try_emplace(W - RegionBase, Names.size()).first;
        MixRaw(1);
        MixRaw(It->second);
      } else {
        MixRaw(0);
        MixRaw(W);
      }
    };
    auto MixClosure = [&](const Closure *C) {
      MixRaw(C->identityBits());
      for (size_t I = 0, N = C->numArgs(); I < N; ++I)
        MixVal(C->args()[I]);
    };
    for (const OmNode *N = RT.Om.next(RT.Om.base()); N; N = RT.Om.next(N)) {
      if (N->Kind == TraceKind::End) {
        MixRaw(2);
        continue;
      }
      MixRaw(3);
      MixRaw(static_cast<uint64_t>(N->Kind));
      MixRaw(N->Flags);
      switch (N->Kind) {
      case TraceKind::Base:
      case TraceKind::End:
        break;
      case TraceKind::Read: {
        const auto *R = static_cast<const ReadNode *>(N);
        MixVal(toWord(RT.Mem.ptr(R->Ref)));
        MixVal(R->SeenValue);
        MixClosure(R->closure());
        break;
      }
      case TraceKind::Write: {
        const auto *W = static_cast<const WriteNode *>(N);
        MixVal(toWord(RT.Mem.ptr(W->Ref)));
        MixVal(W->Value);
        break;
      }
      case TraceKind::Alloc: {
        const auto *A = static_cast<const AllocNode *>(N);
        MixVal(toWord(A->block()));
        MixRaw(A->Size);
        MixClosure(A->init());
        break;
      }
      }
    }
    return H;
  }
};

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

Snapshot::SaveResult Snapshot::save(const Runtime &RT, const std::string &Path,
                                    const SaveOptions &Opt) {
  return Impl::save(RT, Path, Opt);
}

Snapshot::LoadResult Snapshot::load(Runtime &RT, const std::string &Path) {
  return Impl::load(RT, Path, /*Mmap=*/false);
}

Snapshot::LoadResult Snapshot::mmapWarmStart(Runtime &RT,
                                             const std::string &Path) {
  return Impl::load(RT, Path, /*Mmap=*/true);
}

uint64_t Snapshot::traceShapeDigest(const Runtime &RT) {
  return Impl::digest(RT);
}
