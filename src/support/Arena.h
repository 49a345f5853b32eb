//===- support/Arena.h - Region arena with 32-bit handles ------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A region-based bump allocator with per-size-class freelists and 32-bit
/// block handles. The self-adjusting run-time system allocates all trace
/// structures (timestamps, trace nodes, closures, user blocks) from an
/// Arena so that (a) allocation is a pointer bump, (b) freed trace
/// structures are recycled without touching malloc, (c) the high-water
/// mark of live bytes gives the "max live" metric the paper reports in
/// Tables 1 and 2, and (d) every block is addressable by a 32-bit Handle
/// — half the width of a pointer — so trace nodes can link to each other
/// in 4 bytes per edge instead of 8.
///
/// Handles work because each Arena owns one contiguous virtual-memory
/// region, mapped once when the arena is built (mmap with MAP_NORESERVE:
/// address space is reserved up front, physical pages materialize only
/// when touched). There are no chunks and no refills: the bump pointer
/// walks the one region, and reserve() only checks that a burst still
/// fits. A Handle is the block's byte offset into the region divided by
/// the 8-byte allocation grain; handle 0 is reserved as null (the bump
/// pointer starts past offset 0). The default 8 GB region keeps every
/// handle below 2^30; a region may be as large as the full 32-bit handle
/// space (MaxRegionBytes, 32 GB). Exhausting the region — minting a
/// handle past the 32-bit-addressable space — is a checkAlways hard
/// failure, never a silent wrap.
///
/// Past its first 2 MiB the region asks for transparent huge pages
/// (madvise MADV_HUGEPAGE from the first 2 MiB boundary at or after
/// Base + 2 MiB to the end, after every anonymous mapping of the region).
/// A large trace then costs one page fault and one TLB entry per 2 MiB
/// instead of per 4 KiB, and unmapping it releases a few hundred pages
/// rather than a hundred thousand. The prefix stays on 4 KiB pages so a
/// small or pristine arena (a test, a fresh Runtime, a warm start's
/// throwaway region) never zeroes a 2 MiB page it will not fill. The
/// advice is best effort and unconditional: where the kernel has no THP
/// it is ignored, and the library reads nothing about the host to decide.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_SUPPORT_ARENA_H
#define CEAL_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <unordered_map>

namespace ceal {

/// A 32-bit reference to a block in an Arena region. Resolution goes
/// through the owning Arena: `A.ptr(H)` and `A.handle(P)`.
/// Default-constructed handles are null and test false.
/// Like a raw pointer, the default constructor leaves a Handle
/// uninitialized (so the trace's RawInit node constructors stay free of
/// dead stores); value-initialize — `Handle<T>{}` or `Handle<T>()` — for
/// the null handle.
template <typename T> struct Handle {
  uint32_t Bits;

  Handle() = default;
  explicit Handle(uint32_t B) : Bits(B) {}
  explicit operator bool() const { return Bits != 0; }
  bool operator==(const Handle &O) const { return Bits == O.Bits; }
  bool operator!=(const Handle &O) const { return Bits != O.Bits; }
};

static_assert(sizeof(Handle<int>) == 4, "Handle must be half a pointer");

/// Re-types a handle along a static_cast-compatible hierarchy edge (e.g.
/// Handle<Use> -> Handle<WriteNode> after inspecting the node's Kind).
/// Valid only for single-inheritance chains where the addresses coincide.
template <typename To, typename From>
inline Handle<To> handle_cast(Handle<From> H) {
  return Handle<To>(H.Bits);
}

/// A single-region bump allocator with size-class freelists, live-byte
/// accounting, and handle minting.
///
/// Blocks up to MaxSmallSize bytes are rounded to 8-byte classes and
/// recycled through per-class freelists; larger blocks are bump-allocated
/// from the same region and recycled through a per-size side table, so
/// *every* block — including large user allocations that contain interior
/// trace structures — lives inside the region and is handle-addressable.
/// The whole region is released when the arena is destroyed, so clients
/// may drop whole traces in O(1).
class Arena {
public:
  /// Allocation grain: every block size is a multiple of this, every
  /// block address is aligned to it, and handles count in units of it.
  static constexpr size_t HandleGrain = 8;
  /// Default virtual region per arena. Address space only (MAP_NORESERVE)
  /// — the committed footprint is just the pages ever touched.
  static constexpr size_t DefaultRegionBytes = size_t(8) << 30;
  /// Hard cap: offsets must stay handle-encodable (2^32 grains).
  static constexpr size_t MaxRegionBytes = (size_t(1) << 32) * HandleGrain;

  /// Maps a region of \p RegionBytes (rounded up to the page size). If
  /// the mmap fails, retries at geometrically smaller sizes down to a
  /// floor before giving up with a fatal error.
  explicit Arena(size_t RegionBytes = DefaultRegionBytes);
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena();

  /// Allocates \p Size bytes aligned to HandleGrain. Defined in the
  /// header so the size-class fast path (freelist pop or pointer bump)
  /// inlines into the trace hot paths; the large-block path stays out of
  /// line.
  void *allocate(size_t Size) {
    assert(Size > 0 && "zero-size allocation");
    ++AllocCount;
    if (Size > MaxSmallSize)
      return allocateLarge(Size);
    size_t Index = classIndex(Size);
    size_t Rounded = classSize(Index);
    LiveBytes += Rounded;
    TotalAllocated += Rounded;
    if (LiveBytes > MaxLiveBytes)
      MaxLiveBytes = LiveBytes;
    if (uint32_t Head = FreeLists[Index]) {
      FreeCell *Cell = at(Handle<FreeCell>(Head));
      FreeLists[Index] = Cell->Next;
      return Cell;
    }
    char *Result = BumpPtr;
    if (Result + Rounded > BumpEnd)
      regionExhausted();
    BumpPtr = Result + Rounded;
    return Result;
  }

  /// Returns a block previously obtained from allocate() with \p Size.
  void deallocate(void *Ptr, size_t Size) {
    assert(Ptr && "deallocating null");
    if (Size > MaxSmallSize)
      return deallocateLarge(Ptr, Size);
    size_t Index = classIndex(Size);
    size_t Rounded = classSize(Index);
    assert(LiveBytes >= Rounded && "freelist accounting underflow");
    LiveBytes -= Rounded;
    static_cast<FreeCell *>(Ptr)->Next = FreeLists[Index];
    FreeLists[Index] = grainOf(Ptr);
  }

  /// Typed helper: allocate and default-construct a T.
  template <typename T, typename... Args> T *create(Args &&...As) {
    void *Mem = allocate(sizeof(T));
    return new (Mem) T(static_cast<Args &&>(As)...);
  }

  /// Typed helper: destroy and free a T obtained from create().
  template <typename T> void destroy(T *Ptr) {
    Ptr->~T();
    deallocate(Ptr, sizeof(T));
  }

  /// Resolves a handle minted by this arena to a pointer (null for the
  /// null handle). O(1): one shift and one add off the region base.
  template <typename T> T *ptr(Handle<T> H) const {
    if (!H.Bits)
      return nullptr;
    return at(H);
  }

  /// Resolves a handle the caller knows is non-null: ptr() without the
  /// null test, for link walks whose structure rules out the null case.
  template <typename T> T *at(Handle<T> H) const {
    assert(H.Bits && "resolving the null handle");
    return reinterpret_cast<T *>(Base + uint64_t(H.Bits) * HandleGrain);
  }

  /// Mints the handle for a block obtained from this arena's allocate().
  /// O(1): a subtract and a shift. Null pointers mint the null handle.
  template <typename T> Handle<T> handle(const T *P) const {
    if (!P)
      return Handle<T>();
    return Handle<T>(grainOf(P));
  }

  /// True if \p Bits decodes to an address inside the bump-allocated part
  /// of the region (auditors bounds-check every handle through this; it
  /// accepts any in-bounds offset, not just live-block starts).
  bool handleInBounds(uint32_t Bits) const {
    return uint64_t(Bits) * HandleGrain <
           static_cast<uint64_t>(BumpPtr - Base);
  }

  /// The region's base address (auditors, and kernels that walk
  /// handle-linked chains as base + grain offsets).
  const void *regionBase() const { return Base; }
  void *regionBase() { return Base; }
  /// Total virtual bytes this arena's region spans.
  size_t regionBytes() const { return RegionBytes; }
  /// Bytes of the region consumed by the bump pointer so far (includes
  /// blocks currently parked on freelists).
  size_t bumpUsedBytes() const { return static_cast<size_t>(BumpPtr - Base); }

  /// Pre-reserves bump space for \p Bytes of upcoming allocations. With a
  /// single up-front region this is an overflow pre-check only — the
  /// address space is already contiguous — kept as an API so callers can
  /// fail fast before a burst rather than mid-trace.
  void reserve(size_t Bytes);

  //===--------------------------------------------------------------===//
  // Snapshot plumbing (runtime/Snapshot). Not for general use.
  //===--------------------------------------------------------------===//

  /// Releases this arena's region and claims a fresh *anonymous* region at
  /// exactly [\p WantBase, \p WantBase + \p WantBytes) — the same-base
  /// remap a snapshot load needs so that every raw pointer serialized
  /// inside the region stays valid verbatim. The claim is atomic
  /// (MAP_FIXED_NOREPLACE): if any part of the target range is already
  /// mapped, nothing is clobbered, the arena re-acquires an empty region
  /// at an arbitrary base, and this returns false. On success the arena is
  /// empty (bump at one grain, freelists clear, stats zeroed) at the fixed
  /// base.
  bool remapTo(char *WantBase, size_t WantBytes);

  /// Maps \p Bytes of \p Fd starting at the page-aligned \p FileOffset
  /// copy-on-write (MAP_PRIVATE) over the start of the region, replacing
  /// the anonymous pages there; the rest of the region stays anonymous.
  /// The mmap warm-start path uses this to adopt a snapshot's arena image
  /// without copying it. Returns false on mmap failure.
  bool mapFilePrefix(int Fd, uint64_t FileOffset, size_t Bytes);

  /// Bytes currently handed out to clients.
  size_t liveBytes() const { return LiveBytes; }

  /// How many liveBytes a block of \p Size accounts for: all sizes round
  /// up to the 8-byte grain, small ones to their size class (the same
  /// thing — classes are grain-spaced). Auditors use this to reconcile
  /// external bookkeeping with liveBytes().
  static size_t accountedSize(size_t Size) {
    return (Size + HandleGrain - 1) & ~(HandleGrain - 1);
  }

  /// High-water mark of liveBytes() since construction (or resetStats()).
  size_t maxLiveBytes() const { return MaxLiveBytes; }

  /// Total bytes ever handed out (monotone; used by the simulated GC).
  size_t totalAllocatedBytes() const { return TotalAllocated; }

  /// Number of allocate() calls served.
  size_t allocationCount() const { return AllocCount; }

  void resetStats() {
    MaxLiveBytes = LiveBytes;
    TotalAllocated = 0;
    AllocCount = 0;
  }

  static constexpr size_t MaxSmallSize = 512;

private:
  /// The snapshot subsystem serializes and restores the scalar state
  /// (bump frontier, freelist heads, statistics) directly.
  friend class Snapshot;

  static constexpr size_t NumClasses = MaxSmallSize / HandleGrain;

  /// A parked free block. The link is the next cell's grain index (0
  /// ends the list), not a pointer, so the region image holds no raw
  /// addresses of its own: every intra-arena reference in it is an
  /// offset (see runtime/Snapshot).
  struct FreeCell {
    uint32_t Next;
  };

  /// The grain index (handle bits) of a block inside this region.
  uint32_t grainOf(const void *P) const {
    uintptr_t Off = reinterpret_cast<uintptr_t>(P) -
                    reinterpret_cast<uintptr_t>(Base);
    assert(Off >= HandleGrain && Off < RegionBytes &&
           (Off % HandleGrain) == 0 && "pointer not from this arena");
    return static_cast<uint32_t>(Off / HandleGrain);
  }

  static size_t classIndex(size_t Size) {
    assert(Size > 0 && Size <= MaxSmallSize && "not a small size");
    return (Size + HandleGrain - 1) / HandleGrain - 1;
  }
  static size_t classSize(size_t Index) { return (Index + 1) * HandleGrain; }

  void *allocateLarge(size_t Size);
  void deallocateLarge(void *Ptr, size_t Size);
  [[noreturn]] void regionExhausted() const;

  char *Base = nullptr;
  char *BumpPtr = nullptr;
  char *BumpEnd = nullptr;
  size_t RegionBytes = 0;
  /// Per-class freelist heads as grain indexes (0 = empty).
  uint32_t FreeLists[NumClasses] = {};
  /// Freelists for recycled large blocks, keyed by grain-rounded size.
  std::unordered_map<size_t, uint32_t> LargeFree;

  size_t LiveBytes = 0;
  size_t MaxLiveBytes = 0;
  size_t TotalAllocated = 0;
  size_t AllocCount = 0;
};

} // namespace ceal

#endif // CEAL_SUPPORT_ARENA_H
