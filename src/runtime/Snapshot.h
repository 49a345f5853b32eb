//===- runtime/Snapshot.h - Versioned trace checkpoints --------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace persistence: a versioned, integrity-checked checkpoint of a
/// quiescent Runtime — the arena region (trace nodes with their embedded
/// timestamps, order-list groups, the memo tables' bucket arrays,
/// closures, user blocks), the runtime's scalar state, and caller-chosen
/// root pointers — plus two load paths with one contract each:
///
///  * load()           the untrusted-file path: every section is copied
///                     into a freshly claimed region, every byte
///                     checksummed, every freelist chain walked, and then
///                     the trace sanitizer (TraceAudit::inspect, the one
///                     trace walker) runs once over the restored runtime
///                     before anyone may propagate.
///  * mmapWarmStart()  the trusted-file path: maps the arena section
///                     copy-on-write straight from the file and resumes
///                     propagation in place in O(metadata) plus one bounds
///                     sweep over the memo bucket heads. The file is
///                     assumed to be save()'s own unmodified output, which
///                     is what makes a warm start cheaper than re-running
///                     the core from scratch: apart from those heads it
///                     trusts every word of the arena image, including
///                     the ones that size a trace node (a read's closure
///                     arity, an allocation's initializer arity and block
///                     Size), which propagation follows unchecked.
///
/// The format is position-dependent by design: every trace edge,
/// order-list link, and freelist link is a region offset (a 32-bit
/// handle), but user data words in the trace arena (modifiable values,
/// closure arguments, cell fields) are raw addresses. The loader
/// therefore claims the exact region base recorded in the header (an
/// atomic MAP_FIXED_NOREPLACE claim; AddressUnavailable if the space is
/// taken) and the entire region image is then valid verbatim. Code
/// addresses (closure functions and function-pointer arguments) must also
/// coincide, which the header's anchor-address field checks (CodeMoved
/// otherwise); cross-process use therefore requires the same binary
/// loaded at the same base — run both ends with ASLR disabled
/// (`setarch -R`) or from a non-PIE build. See DESIGN.md "Trace
/// persistence".
///
/// On-disk layout (all integers native-endian; an endianness tag rejects
/// foreign files):
///
///   [0, 4096)   FileHeader + section table, zero-padded; checksummed as
///               a whole with the checksum field zeroed.
///   sections    contiguous (each starts where the previous ended, the
///               last ends at FileBytes), in the fixed order META,
///               ROOTS, MEM; MEM is page-aligned so it can be mapped
///               directly. Every section starts with an 8-byte kind
///               preamble — for the arena section it overlays region
///               bytes [0, 8), which the runtime never uses (offset 0 is
///               the null handle) — so a checksum-preserving payload
///               swap still fails.
///
/// The memo tables' bucket arrays are arena blocks, so they travel inside
/// MEM as packed 32-bit handles; META records each array's region
/// offset, bucket count and entry count, and a load adopts the array in
/// place (Base + offset) instead of parsing and converting it.
///
/// The loader trusts nothing about the file's *structure* on either
/// path: header fields, the section table, the bucket arrays' geometry,
/// every memo bucket head, and every other offset, handle, and pointer
/// the loader itself follows are bounds-checked before any dereference,
/// and every rejection carries a located diagnostic. Content
/// verification (the arena checksum, the freelist walks and the trace
/// walk) belongs to load() alone: a mapping cannot stay verified, because
/// the MAP_PRIVATE pages the runtime has not yet written still show later
/// writes to the file. On load() the trace walk also sizes every node
/// from its own words before it reads past its fixed fields: a closure
/// arity or block Size that carries a node past the bump frontier, or
/// into the next live node, is an AuditFailed diagnostic, and no frame
/// word is read as a memo key while any node's extent is in doubt. A
/// failed load leaves the Runtime pristine and usable.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_SNAPSHOT_H
#define CEAL_RUNTIME_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <vector>

namespace ceal {

class Runtime;

class Snapshot {
public:
  /// Load/save outcome. Each failure mode has its own code so tests (and
  /// operators) can tell a foreign file from a corrupt one from an
  /// environment problem.
  enum class Status : uint8_t {
    Ok,
    /// Runtime not quiescent (save) or not pristine (load), or a bad root.
    BadState,
    /// open/read/write/stat failed (see the diagnostic for errno text).
    IoError,
    /// File shorter than its header claims (including a zero-length file).
    Truncated,
    /// Not a CEAL snapshot.
    BadMagic,
    /// Format version newer than this build understands.
    BadVersion,
    /// Written on a machine with different byte order.
    BadEndian,
    /// Trace layout fingerprint mismatch (node layouts or link encoding
    /// of another build).
    BadLayout,
    /// Header block checksum mismatch.
    BadHeader,
    /// Section table inconsistent (kinds, order, offsets, coverage).
    BadSectionTable,
    /// Section content carries the wrong kind preamble (payload swap).
    BadSectionKind,
    /// Section content checksum mismatch.
    BadChecksum,
    /// Metadata section semantically invalid (counts, sizes, geometry).
    BadMeta,
    /// Runtime configuration incompatible with the checkpoint (the
    /// per-node pad, Runtime::nodePadBytes(), must match).
    ConfigMismatch,
    /// The code anchor moved: the loading process's code is not at the
    /// address the checkpoint was saved against.
    CodeMoved,
    /// An offset/handle points outside the serialized arena extent.
    HandleOutOfBounds,
    /// The recorded region base address is already occupied in this
    /// process (retry in a fresh process, or with ASLR disabled).
    AddressUnavailable,
    /// Content passed all checksums but failed the load-time trace
    /// walk (TraceAudit::inspect) or a freelist chain walk.
    AuditFailed,
  };
  static const char *statusName(Status S);

  //===--------------------------------------------------------------===//
  // On-disk format (public contract; tests and tooling build on it)
  //===--------------------------------------------------------------===//

  static constexpr uint64_t Magic = 0x50414e534c414543ULL; // "CEALSNAP"
  // Version 2: Checksum64 moved to the 32-lane block format
  // (support/Checksum.h), so v1 digests no longer verify. Version 3: the
  // order list lives in the trace arena, so the OM section and the
  // header's second region are gone (the checksum is still the v2 one).
  // Version 4: trace nodes use the packed 16-byte timestamp (layout
  // fingerprint revision 4), so every node offset in the arena moved.
  // Version 5: the memo bucket arrays live in the arena, so the
  // MEMO_READ/MEMO_ALLOC sections are gone and META records where each
  // array sits.
  static constexpr uint32_t FormatVersion = 5;
  static constexpr uint32_t EndianTag = 0x01020304;
  static constexpr uint64_t HeaderBytes = 4096;

  /// Kinds 2 and 3 named the memo sections of versions 1-4 and stay
  /// unused.
  enum SectionKind : uint32_t {
    SecMeta = 1,
    SecRoots = 4,
    SecMem = 5,
  };
  static constexpr uint32_t NumSections = 3;

  /// The 8-byte tag at the start of every section payload.
  static constexpr uint64_t sectionPreamble(uint32_t Kind) {
    return Magic ^ ((uint64_t(Kind) << 32) | Kind);
  }

  struct SectionEntry {
    uint32_t Kind;
    uint32_t Reserved;
    uint64_t Offset;   ///< Absolute file offset.
    uint64_t Length;   ///< Padded length; the next section starts here.
    uint64_t Checksum; ///< Checksum64 over [Offset, Offset + Length).
  };

  struct FileHeader {
    uint64_t MagicWord;
    uint32_t Version;
    uint32_t Endian;
    uint64_t LayoutFingerprint; ///< traceLayoutFingerprint() of the saver.
    uint64_t AnchorAddr;        ///< codeAnchor() of the saving process.
    uint64_t FileBytes;         ///< Total file size.
    uint64_t PageBytes;         ///< Saver's page size (mmap path only).
    uint64_t MemBase, MemRegionBytes, MemBumpUsed;
    uint32_t SectionCount;
    uint32_t Reserved0;
    uint64_t HeaderChecksum; ///< Over the 4096-byte block, field zeroed.
    SectionEntry Sections[NumSections];
  };

  /// The arena's scalar state inside the META section.
  struct ArenaMeta {
    uint64_t BumpUsed;
    uint64_t LiveBytes, MaxLiveBytes, TotalAllocated, AllocCount;
    uint64_t FreeHeads[64]; ///< Region offsets of freelist heads; 0 null.
    uint64_t LargeCount;    ///< (size, head-offset) pairs in the tail.
  };

  /// Where one memo table's bucket array sits in the arena image: its
  /// region offset (grain-aligned), its bucket count (a power of two in
  /// [64, 2^31]) and the entries chained from it. All three are 0 for a
  /// table that never allocated its array.
  struct MemoMeta {
    uint64_t Off, Buckets, Count;
  };

  /// Fixed part of the META section body (follows the 8-byte preamble;
  /// the variable tail holds the arena's large-freelist pairs). All
  /// pointers are stored as region offsets.
  struct MetaFixed {
    uint64_t CursorOff, TraceEndOff; ///< Timestamp offsets.
    uint64_t Stats[11];              ///< Runtime::Stats, declared order.
    uint64_t MetaBytes, GcAllocMark;
    uint64_t NodePadBytes; ///< Runtime::nodePadBytes(); must match.
    uint64_t OmBaseOff, OmFirstGroupOff;
    uint64_t OmSize, OmRelabels, OmRangeRelabels;
    MemoMeta ReadMemo, AllocMemo;
    uint64_t RootCount;
    ArenaMeta MemA;
  };

  //===--------------------------------------------------------------===//
  // Entry points
  //===--------------------------------------------------------------===//

  struct SaveOptions {
    /// Mutator pointers into the runtime arena (modrefs, cells, blocks)
    /// to persist and hand back from load(); how a cross-process mutator
    /// reconstructs its handles on the structures it built.
    std::vector<const void *> Roots;
  };

  struct SaveResult {
    Status St = Status::Ok;
    std::string Diagnostic;
    uint64_t FileBytes = 0;
    bool ok() const { return St == Status::Ok; }
  };

  struct LoadResult {
    Status St = Status::Ok;
    std::string Diagnostic;
    /// The saver's SaveOptions::Roots, revalidated, in order.
    std::vector<void *> Roots;
    bool ok() const { return St == Status::Ok; }
  };

  /// Writes a checkpoint of the quiescent \p RT to \p Path. The file is
  /// written under a fresh temporary name next to \p Path (so save needs
  /// write permission on that directory), header block last, and then
  /// rename()d over \p Path. A symlink at \p Path is therefore replaced,
  /// not written through. Any failure unlinks the temporary and leaves
  /// \p Path as it was, and a runtime warm-started from the old file
  /// keeps its mapping of it: re-saving a warm-started runtime to its own
  /// source is safe. The save is atomic against a crash of this process
  /// or an I/O error, but nothing is fsync'd, so it is not durable across
  /// a power loss.
  static SaveResult save(const Runtime &RT, const std::string &Path,
                         const SaveOptions &Opt = {});

  /// Untrusted-file restore into the pristine \p RT (no trace yet):
  /// claims the recorded region base, copies every section in, verifies
  /// every checksum, walks the freelist chains, then runs
  /// TraceAudit::inspect once. Every byte is checksummed and every trace
  /// structure walked before the runtime may propagate, so a crafted file
  /// comes back as an error status, never as a trace propagation would
  /// trip over. Use it whenever the file crossed a machine, a network, or
  /// an untrusted writer.
  static LoadResult load(Runtime &RT, const std::string &Path);

  /// Trusted-file warm start: like load(), but the arena section is
  /// mapped copy-on-write from the file instead of copied, and its
  /// content is trusted. The header, META and root sections are still
  /// checksummed, and every offset the loader installs (cursor, roots,
  /// freelist heads, bucket-array geometry, every memo bucket head) is
  /// bounds-checked, so bad metadata never crashes the loader. What this
  /// path gives up is detecting corruption inside the trace-sized payload
  /// (the mapped arena, an in-bounds but wrong bucket head, the freelist
  /// chains) before propagation walks it. The page-in cost is deferred to
  /// first touch during propagation. Requires the saver's page size. A
  /// caller that wants the mapped trace checked calls
  /// TraceAudit::inspect after the load; that checks the runtime as it is
  /// at that moment. See DESIGN.md "Trace persistence".
  static LoadResult mmapWarmStart(Runtime &RT, const std::string &Path);

  /// Insensitive only where semantics are (memo chain order and block
  /// placement are excluded): a digest of the trace's observable shape —
  /// the timestamp sequence with each node's kind, flags, values, and
  /// closure identity, with in-region values renamed to first-occurrence
  /// ordinals so two traces equal up to a bijection of block addresses
  /// digest alike. Identical digests mean observationally identical
  /// traces; the round-trip oracle compares a reloaded trace against a
  /// continuously-running one with this.
  static uint64_t traceShapeDigest(const Runtime &RT);

  /// The code-address anchor the header records: one symbol in this
  /// image, standing in for "all code is where the saver had it".
  static uint64_t codeAnchor();

private:
  struct Impl; ///< Defined in Snapshot.cpp; inherits the friendships.
};

} // namespace ceal

#endif // CEAL_RUNTIME_SNAPSHOT_H
