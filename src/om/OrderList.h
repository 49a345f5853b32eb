//===- om/OrderList.h - Order-maintenance list -----------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An order-maintenance data structure supporting insert-after, delete, and
/// order queries in amortized O(1) time (Dietz and Sleator, 1987-style,
/// using the two-level scheme with list relabeling in the upper level).
///
/// The self-adjusting run-time system uses one OrderList as its global
/// trace: every traced action (read, write, allocation, interval end) *is*
/// one node, order queries implement "did this read happen before that
/// write", and in-order traversal between two nodes enumerates the trace
/// interval that change propagation must revoke.
///
/// The list is intrusive: the caller owns every node except the base
/// sentinel, embeds it in its own records (runtime/Trace.h), and allocates
/// it from the arena the list is bound to. The list links and unlinks
/// nodes but never allocates or frees one; only its groups and its base
/// are its own, and those come from the same arena.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_OM_ORDERLIST_H
#define CEAL_OM_ORDERLIST_H

#include "support/Arena.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace ceal {

struct OmGroup;

/// What a timestamp belongs to. The trace defines the enumerators
/// (runtime/Trace.h); to the list the kind is an opaque client field that
/// it never reads, and writes only for its own base sentinel (zero).
enum class TraceKind : uint8_t;

/// One position in the total order: three 32-bit handle links into the
/// arena the list is bound to, plus one 32-bit word that packs the 24-bit
/// in-group label with the client byte, so a node is 16 bytes and only
/// 4-byte aligned. Kind and Flags belong to the client: a trace node
/// begins with its start timestamp, so they are the node's own kind (3
/// bits) and flags (5 bits). The list writes only the label bits of a
/// linked node.
struct OmNode {
  Handle<OmNode> Prev;
  Handle<OmNode> Next;
  Handle<OmGroup> Group;
  uint32_t Label : 24;
  TraceKind Kind : 3;
  uint8_t Flags : 5;
};

/// A group of up to OrderList::GroupLimit consecutive nodes. Groups carry
/// the upper-level labels that make cross-group comparisons O(1).
struct OmGroup {
  Handle<OmGroup> Prev;
  Handle<OmGroup> Next;
  Handle<OmNode> First; ///< First member in order; members are Count nodes
                        ///< from here via OmNode::Next.
  uint32_t Count;
  uint64_t Label;
};

/// The order-maintenance list. Always contains at least the base() node,
/// which precedes every other node and cannot be removed.
///
/// Nodes are named by pointer; the links between them are handles that
/// the list resolves against its arena.
class OrderList {
public:
  /// Binds the list to \p Mem, where the base, the groups, and every
  /// node the caller links live.
  explicit OrderList(Arena &Mem);
  OrderList(const OrderList &) = delete;
  OrderList &operator=(const OrderList &) = delete;
  ~OrderList() = default; // The arena reclaims the groups and the base.

  /// The minimum node; created by the constructor, never removed.
  OmNode *base() const { return Mem->at(Base); }

  /// Links the caller-owned node \p N (allocated from the list's arena)
  /// immediately after \p X. Only N's links and label are written. The
  /// common case — label room between X and its in-group successor,
  /// group under its member limit — is inlined; rebalancing (group split
  /// or item relabel) goes out of line.
  void insertAfter(OmNode *X, OmNode *N) {
    assert(X && N && "insertAfter requires a position and a node");
    Handle<OmGroup> GH = X->Group;
    OmGroup *G = Mem->at(GH);
    uint32_t Lo = X->Label;
    OmNode *Succ = Mem->ptr(X->Next);
    uint32_t Hi = Succ && Succ->Group == GH ? Succ->Label : LabelLimit;
    if (Hi - Lo >= 2 && G->Count < FillLimit) {
      Handle<OmNode> H = Mem->handle(N);
      N->Label = Lo + std::min((Hi - Lo) / 2, AppendGap);
      N->Group = GH;
      N->Prev = Mem->handle(X);
      N->Next = X->Next;
      if (Succ)
        Succ->Prev = H;
      X->Next = H;
      ++G->Count;
      ++Size;
      return;
    }
    insertAfterSlow(X, N);
  }

  /// Unlinks \p X (which must not be base()) from the order. The node
  /// stays the caller's to free.
  void remove(OmNode *X) {
    assert(X != base() && "the base timestamp cannot be removed");
    OmGroup *G = Mem->at(X->Group);
    if (G->First == Mem->handle(X))
      G->First = (G->Count > 1) ? X->Next : Handle<OmNode>{};
    Mem->at(X->Prev)->Next = X->Next; // Only the base has no predecessor.
    if (X->Next)
      Mem->at(X->Next)->Prev = X->Prev;
    --G->Count;
    --Size;
    if (G->Count == 0)
      removeEmptyGroup(G);
  }

  /// Enters append mode: a construction-time policy switch for monotone
  /// insertion. The inlined insertAfter fast path is already a label bump;
  /// append mode changes what happens when that bump runs out of room.
  /// Instead of splitting or relabeling (which touches existing nodes and
  /// pays the Bender density machinery), a full group at the insertion
  /// point opens a *fresh* group after it, and a mid-group position whose
  /// label gap is exhausted peels its in-group suffix into a fresh group
  /// so the position becomes a group tail with the whole in-group label
  /// space above it. No existing label is ever rewritten, so a monotone
  /// run of insertions — the initial trace run, or the re-traced prefix
  /// of a re-executed interval — costs O(1) worst case per insertion, not
  /// just amortized. All structural invariants are maintained
  /// continuously (interleaved remove() calls are fine), so
  /// finalizeAppend() needs no repair pass; it only restores the
  /// density-balanced rebalancing policy for general-order insertions.
  ///
  /// While appending, groups are filled only to GroupTarget — the same
  /// occupancy a split leaves behind — so the trace construction ends
  /// with every group half-open and later general-order insertions (the
  /// propagation churn) do not pay a split at each fresh position.
  void beginAppend() {
    AppendActive = true;
    FillLimit = GroupTarget;
  }

  /// Leaves append mode (see beginAppend). The structure is valid at
  /// every point in between, so this is just the policy switch back.
  void finalizeAppend() {
    AppendActive = false;
    FillLimit = GroupLimit;
  }

  /// True while the append-mode insertion policy is active.
  bool inAppendMode() const { return AppendActive; }

  /// Returns true iff \p A is strictly before \p B in the order. The
  /// group handles are compared before any group is decoded, so a
  /// same-group query touches only the two nodes.
  bool precedes(const OmNode *A, const OmNode *B) const {
    if (A->Group == B->Group)
      return A->Label < B->Label;
    return Mem->at(A->Group)->Label < Mem->at(B->Group)->Label;
  }

  /// Successor of \p X in the order, or null if X is the maximum.
  OmNode *next(const OmNode *X) const { return Mem->ptr(X->Next); }
  /// Predecessor of \p X in the order, or null if X is base().
  OmNode *prev(const OmNode *X) const { return Mem->ptr(X->Prev); }

  /// Resolution of a node or group handle (null for the null handle), for
  /// walks over the group level.
  OmNode *node(Handle<OmNode> H) const { return Mem->ptr(H); }
  const OmGroup *group(Handle<OmGroup> H) const { return Mem->ptr(H); }

  /// Arena bytes the list itself holds: its groups and its base. Every
  /// other node is the caller's. O(groups).
  size_t ownBytes() const;

  /// Number of nodes currently in the list (including base()).
  size_t size() const { return Size; }

  /// Number of group-relabel operations performed (for tests/stats).
  size_t relabelCount() const { return Relabels; }

  /// Number of expensive group-range relabelings (the Bender-style
  /// redistribution); regression guard against label-space pathologies.
  size_t rangeRelabelCount() const { return RangeRelabels; }

  /// Verifies all internal invariants; used by tests. Aborts on violation.
  void verifyInvariants() const;

private:
  /// The trace sanitizer walks groups/nodes directly so it can *report*
  /// violations (verifyInvariants aborts on the first one).
  friend class TraceAudit;
  /// The snapshot subsystem serializes and restores the list's scalar
  /// state (base/first-group handles, size, policy) around an arena
  /// remap (see runtime/Snapshot).
  friend class Snapshot;

  /// (Re)creates the pristine one-node list in the arena; the
  /// constructor's body, also used to recover a usable empty list after
  /// a failed snapshot claim remapped the arena.
  void rebuildEmpty();

  static constexpr uint32_t GroupLimit = 64;
  static constexpr uint32_t GroupTarget = 32;
  /// Upper-level label space: [0, 2^62).
  static constexpr uint64_t GroupLabelSpace = uint64_t(1) << 62;
  /// Width of an in-group label (OmNode::Label).
  static constexpr unsigned LabelBits = 24;
  /// In-group label space: [0, LabelLimit). LabelLimit itself is the
  /// "no in-group successor" sentinel above a group's tail and the span a
  /// relabel spreads the members over.
  static constexpr uint32_t LabelLimit = uint32_t(1) << LabelBits;
  /// Appending halves the remaining label space if done by midpoint,
  /// which exhausts it after ~24 insertions and triggers pathological
  /// relabeling; bound the gap so appends consume label space linearly.
  /// A whole group's worth of bump labels fits: a peel of up to
  /// GroupLimit - 1 nodes takes labels AppendGap .. 63 * AppendGap.
  static constexpr uint32_t AppendGap = uint32_t(1) << 18;
  static_assert((GroupLimit - 1) * uint64_t(AppendGap) < LabelLimit,
                "a peeled group's bump labels must fit the label space");

  /// Handle resolution for links the structure guarantees are non-null.
  OmNode *at(Handle<OmNode> H) const { return Mem->at(H); }
  OmGroup *at(Handle<OmGroup> H) const { return Mem->at(H); }

  void insertAfterSlow(OmNode *X, OmNode *N);
  void appendSlow(OmNode *X, OmNode *N);
  /// Links \p N with \p Label in group \p G immediately after \p X (the
  /// group's Count is the caller's).
  void linkAfter(OmNode *X, OmNode *N, Handle<OmGroup> G, uint32_t Label);
  void removeEmptyGroup(OmGroup *G);
  OmGroup *createGroupAfter(OmGroup *G, uint64_t Label);
  /// Creates an empty group after \p G with a label midway to its
  /// successor (bounded by the append stride), relabeling the enclosing
  /// group range first if the upper-level label space is exhausted there.
  OmGroup *freshGroupAfter(OmGroup *G);
  /// Splits the full group \p G into groups of GroupTarget members and
  /// relabels each; \p Hot is the member an insertion is waiting behind
  /// (see relabelGroupItems).
  void splitGroup(OmGroup *G, const OmNode *Hot);
  /// Rewrites the labels of \p G's members. When \p Hot (the node an
  /// insertion is waiting behind) is one of them, half the label space
  /// becomes the gap after it; otherwise the members are spread evenly.
  void relabelGroupItems(OmGroup *G, const OmNode *Hot);
  /// Makes room in the group-label space around \p G so that a new group
  /// can be inserted after it; relabels a low-density enclosing range.
  uint64_t makeGroupGapAfter(OmGroup *G);

  Arena *Mem;
  Handle<OmNode> Base{};
  Handle<OmGroup> FirstGroup{};
  size_t Size = 0;
  size_t Relabels = 0;
  size_t RangeRelabels = 0;
  /// Group occupancy at which insertAfter leaves the fast path: the
  /// GroupLimit capacity normally, GroupTarget during append mode (see
  /// beginAppend).
  uint32_t FillLimit = GroupLimit;
  bool AppendActive = false;
};

} // namespace ceal

#endif // CEAL_OM_ORDERLIST_H
