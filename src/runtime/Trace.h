//===- runtime/Trace.h - Trace nodes and modifiables ------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic dependence graph. Every traced action of a core execution
/// owns a node: reads (with their re-executable closure and time
/// interval), writes (imperative multi-write modifiables in the style of
/// Acar et al., POPL 2008), and memo-keyed allocations (Hammer and Acar,
/// ISMM 2008). Nodes are threaded through the order-maintenance list so a
/// time interval can be enumerated and revoked, and reads/writes of one
/// modifiable form a per-modifiable list in timestamp order so a write can
/// invalidate exactly the readers it governs.
///
/// Every inter-node edge is a 32-bit arena handle (Arena::Handle), not a
/// pointer: trace nodes, their timestamps, the order list's groups and
/// user blocks all live in the runtime's one Mem arena, and each edge
/// names its target by region offset. Timestamps are intrusive: a trace
/// node *is* its start timestamp (it begins with an OmNode, whose client
/// bits hold the node's kind and flags), and a read embeds its end
/// timestamp as a second OmNode. An order walk therefore reaches the
/// owning node by address, with no back-pointer.
///
/// Each traced operation is one arena block. A read keeps its
/// continuation closure (header word plus frame) directly after its
/// fixed fields; an allocation keeps its initializer closure there and
/// the user block after that. read() and allocate() copy a closure the
/// caller staged (on the C++ stack or the VM's word stack) into the new
/// node; the trace never holds a pointer to a closure outside one. Under
/// the SaSML comparator the per-node pad comes last. The layouts:
///
///   TraceNode 16 B   (start timestamp: prev/next/group handles, then one
///                      word of 24-bit label, 3-bit kind, 5-bit flags)
///   Use       28 B   (+ modifiable, prev/next use)
///   ReadNode  72 B   (+ governing write, seen value, end timestamp,
///                      queue index, memo links), then its closure
///   WriteNode 40 B   (+ value)
///   AllocNode 32 B   (+ size, memo links), then its initializer, then
///                      the user block
///   Modref    24 B   (initial value + head/tail/hint of the use list)
///   OmGroup   24 B   (prev/next/first handles, count, label)
///
/// A memo-matched allocation moves its node to the cursor (the block
/// keeps its address because the node does), and a revoked allocation's
/// whole node is freed only when propagation ends, since later
/// re-executions in the same propagation may still dereference its
/// block. See DESIGN.md "Trace memory layout".
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_TRACE_H
#define CEAL_RUNTIME_TRACE_H

#include "om/OrderList.h"
#include "runtime/Closure.h"
#include "runtime/MemoTable.h"
#include "runtime/Word.h"

#include <cstddef>
#include <cstdint>

namespace ceal {

struct Modref;
struct Use;
struct WriteNode;
struct ReadNode;

/// What a timestamp belongs to (declared opaque in om/OrderList.h). Base
/// is zero, the value the order list gives its own sentinel.
/// The kind is a 3-bit field of the timestamp, so values 5-7 are
/// undefined; the trace sanitizer and the snapshot loader report them.
enum class TraceKind : uint8_t {
  Base,
  Read,
  Write,
  Alloc,
  /// A read's end timestamp (ReadNode::End).
  End,
};

/// Base of all trace nodes: the node's start timestamp, whose client
/// bits carry the node's kind and flags.
struct TraceNode : OmNode {
  /// Tag for Runtime::newNode: skip zero-initializing the fields the
  /// tracing hot paths overwrite unconditionally before anything reads
  /// them (every trace node is stamped, linked, and memo-keyed in the
  /// same traced operation that creates it). Kind and Flags are still
  /// initialized — the dirty bit must start clear no matter who
  /// allocates (as must ReadNode's queue index and end kind, see its
  /// RawInit).
  struct RawInit {};

  TraceNode(TraceKind K, RawInit) {
    Kind = K;
    Flags = 0;
  }
};

/// Base of per-modifiable uses (reads and writes), linked in time order.
struct Use : TraceNode {
  Handle<Modref> Ref;
  Handle<Use> PrevUse;
  Handle<Use> NextUse;

  Use(TraceKind K, RawInit R) : TraceNode(K, R) {}
};

/// A traced read: the modifiable, the value it saw, and the time interval
/// its body occupied; its continuation closure follows the fixed fields
/// in the same block (closure()). The interval's end is the point where
/// the enclosing tail-call chain finished; during change propagation the
/// closure re-executes inside (Start, End).
struct ReadNode : Use {
  explicit ReadNode(RawInit R) : Use(TraceKind::Read, R), HeapIndex(-1) {
    End.Kind = TraceKind::End;
    End.Flags = 0;
  }

  static constexpr uint8_t FlagDirty = 1;

  /// Governing-write cache: the latest write strictly preceding this read
  /// in its modifiable's use list — the write whose value the read
  /// observes — or null when the prefix holds no write (the read is
  /// governed by Modref::Initial). Maintained by Runtime::insertUse /
  /// write / revokeWrite so valueGoverning is O(1) instead of
  /// O(reads since the last write); audited against a full backward walk
  /// by TraceAudit. Only reads carry the cache: a write's governing write
  /// is derived in O(1) from its predecessor (Runtime::writeGoverning).
  /// Directly after Use, which is only 4-byte aligned now that a
  /// timestamp is (offset static_asserted below).
  Handle<WriteNode> Gov;
  Word SeenValue;
  /// The interval's end timestamp, stamped when the read's tail-call
  /// chain finishes. Its kind is TraceKind::End.
  OmNode End;
  /// Position in the propagation queue, or -1.
  int32_t HeapIndex;

  /// Memo-table chaining (keyed by modifiable, function, argument words).
  MemoLinks<ReadNode> Memo;

  /// The continuation closure, stored after the fixed fields.
  Closure *closure() { return reinterpret_cast<Closure *>(this + 1); }
  const Closure *closure() const {
    return reinterpret_cast<const Closure *>(this + 1);
  }
  /// Bytes of a read whose closure has \p FrameArgs frame words, before
  /// any per-node pad.
  static size_t byteSize(size_t FrameArgs) {
    return sizeof(ReadNode) + Closure::byteSize(FrameArgs);
  }

  bool isDirty() const { return Flags & FlagDirty; }
  void setDirty(bool D) {
    Flags = D ? (Flags | FlagDirty) : (Flags & ~FlagDirty);
  }

  /// The read whose end timestamp is \p E (E->Kind == TraceKind::End).
  static const ReadNode *ofEnd(const OmNode *E);
};

/// A traced write of a word into a modifiable.
struct WriteNode : Use {
  explicit WriteNode(RawInit R) : Use(TraceKind::Write, R) {}

  Word Value;
};

/// A traced, memo-keyed allocation. Its initializer closure follows the
/// fixed fields (init()) and is retained because its function pointer
/// and argument words are the memo key; the user block of Size bytes
/// follows the initializer (block()). A re-execution that allocates with
/// the same key moves the node to its cursor, block and all, giving the
/// pointer identity that lets downstream writes equality-cut and
/// downstream reads memo-match (the paper's Sec. 1 "memoization" role).
/// 8-byte aligned so the initializer's header starts right after it.
struct alignas(8) AllocNode : TraceNode {
  explicit AllocNode(RawInit R) : TraceNode(TraceKind::Alloc, R) {}

  static constexpr uint8_t FlagModref = 1;

  uint32_t Size;

  MemoLinks<AllocNode> Memo;

  Closure *init() { return reinterpret_cast<Closure *>(this + 1); }
  const Closure *init() const {
    return reinterpret_cast<const Closure *>(this + 1);
  }
  void *block() {
    return reinterpret_cast<char *>(this + 1) + init()->byteSize();
  }
  const void *block() const {
    return reinterpret_cast<const char *>(this + 1) + init()->byteSize();
  }
  /// Bytes of an allocation whose initializer has \p FrameArgs frame
  /// words and whose block is \p Size bytes, before any per-node pad.
  static size_t byteSize(size_t FrameArgs, size_t Size) {
    return sizeof(AllocNode) + Closure::byteSize(FrameArgs) + Size;
  }

  bool isModrefBlock() const { return Flags & FlagModref; }
};

/// A modifiable reference: an initial (meta-written) value plus the
/// time-ordered list of traced uses. The value visible to a read at time t
/// is the value of the latest traced write before t, else Initial.
struct Modref {
  Word Initial = 0;
  Handle<Use> Head{};
  Handle<Use> Tail{};
  /// Insertion cursor: the use most recently inserted into (or left
  /// adjacent to an unlink from) this list. Runtime::insertUse starts
  /// its placement scan here instead of at Tail, so runs of nearby
  /// insertions — the common case during mid-interval re-execution —
  /// cost O(distance from the previous insertion) rather than
  /// O(uses after the position). Never dangles: unlinkUse repairs it.
  Handle<Use> Hint{};
};

// The compressed layout contracts (see the file comment): each fixed part
// must exactly fill a multiple of the 8-byte grain, so that the closure
// after it starts aligned; growing any of them is a measured regression
// on every app's max-live footprint, so it fails the build rather than
// landing silently.
static_assert(sizeof(OmNode) == 16, "OmNode outgrew its packed layout");
static_assert(alignof(OmNode) == 4, "a timestamp must not force 8-byte "
                                    "alignment on the node around it");
static_assert(sizeof(OmGroup) == 24, "OmGroup outgrew its size class");
static_assert(sizeof(TraceNode) == 16, "TraceNode outgrew its start stamp");
static_assert(sizeof(Use) == 28, "Use outgrew its packed layout");
static_assert(sizeof(ReadNode) == 72, "ReadNode outgrew its packed layout");
static_assert(sizeof(WriteNode) == 40, "WriteNode outgrew its size class");
static_assert(sizeof(AllocNode) == 32, "AllocNode outgrew its packed layout");
static_assert(sizeof(ReadNode) % alignof(Closure) == 0 &&
                  sizeof(AllocNode) % alignof(Closure) == 0,
              "a node's closure must start 8-byte aligned after it");
static_assert(sizeof(Modref) == 24, "Modref outgrew its size class");
// The kind field holds every TraceKind, the flag field every node flag.
static_assert(unsigned(TraceKind::End) < 8, "TraceKind outgrew 3 bits");
static_assert(ReadNode::FlagDirty < 32 && AllocNode::FlagModref < 32,
              "a node flag outgrew the 5 flag bits");

/// Byte offset of ReadNode::End, by which an end timestamp finds its read.
/// offsetof on a type with base-class members is conditionally supported
/// (GCC and Clang accept it under -Winvalid-offsetof), so the offset is a
/// named constant that the compiler's layout is checked against here.
inline constexpr size_t ReadEndOffset = 40;
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
static_assert(offsetof(ReadNode, End) == ReadEndOffset,
              "ReadNode::End moved; its owner is found by this offset");
static_assert(offsetof(ReadNode, Gov) == 28,
              "ReadNode::Gov no longer follows Use directly");
#pragma GCC diagnostic pop
static_assert(ReadEndOffset % Arena::HandleGrain == 0,
              "the end timestamp must be handle-addressable");

inline const ReadNode *ReadNode::ofEnd(const OmNode *E) {
  return reinterpret_cast<const ReadNode *>(
      reinterpret_cast<const char *>(E) - ReadEndOffset);
}

/// A fingerprint of the trace's in-memory layout, derived from the
/// static_asserted node sizes above plus the handle width and grain. Two
/// builds agree on this value exactly when a trace region serialized by
/// one is byte-compatible with the other, so the snapshot loader
/// (runtime/Snapshot) embeds it in the checkpoint header and rejects any
/// mismatch. Revision 3: timestamps are embedded in their trace nodes and
/// the order list shares the trace arena. Revision 4: a timestamp packs a
/// 24-bit in-group label with the kind and flags into one word. Revision
/// 5: a read stores its closure, and an allocation its initializer and
/// block, inside the node.
inline constexpr uint64_t TraceLayoutRevision = 5;
inline uint64_t traceLayoutFingerprint() {
  // Format root: 'CEAL', then the revision.
  uint64_t H = 0x4345414c00000000ULL | TraceLayoutRevision;
  auto Mix = [&H](uint64_t W) { H = hashMixWord(H, W); };
  Mix(sizeof(void *));
  Mix(Arena::HandleGrain);
  Mix(sizeof(Handle<int>));
  Mix(sizeof(OmNode));
  Mix(sizeof(OmGroup));
  Mix(sizeof(Closure));
  Mix(sizeof(TraceNode));
  Mix(sizeof(Use));
  Mix(sizeof(ReadNode));
  Mix(ReadEndOffset);
  Mix(sizeof(WriteNode));
  Mix(sizeof(AllocNode));
  Mix(sizeof(Modref));
  Mix(sizeof(MemoLinks<ReadNode>));
  return H;
}

} // namespace ceal

#endif // CEAL_RUNTIME_TRACE_H
