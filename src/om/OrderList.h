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
/// trace: every traced action (read, write, allocation, interval end) owns
/// one node, order queries implement "did this read happen before that
/// write", and in-order traversal between two nodes enumerates the trace
/// interval that change propagation must revoke.
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

/// The opaque client payload of a timestamp: the run-time system stores a
/// back-reference to the owning trace node here, as a 32-bit trace-arena
/// handle with the top bit free for the end-marker tag (see
/// runtime/Trace.h). Zero means "no payload".
using OmItem = uint32_t;

/// One position in the total order. Every link is a 32-bit handle into
/// the list's own arena, so a node packs into one 24-byte size class
/// (asserted in runtime/Trace.h next to the trace-node layouts).
struct OmNode {
  Handle<OmNode> Prev;
  Handle<OmNode> Next;
  Handle<OmGroup> Group;
  OmItem Item;
  uint64_t Label;
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
/// Clients name timestamps by Handle<OmNode> — the same 4-byte edge the
/// trace nodes store — and every operation resolves handles against the
/// list's arena, so no caller converts between handles and pointers.
class OrderList {
public:
  OrderList();
  OrderList(const OrderList &) = delete;
  OrderList &operator=(const OrderList &) = delete;
  ~OrderList() = default; // Arena reclaims all nodes.

  /// The minimum node; created by the constructor, never removed.
  Handle<OmNode> base() const { return Base; }

  /// Inserts a new node immediately after \p X in the order and returns
  /// it. The common case — label room between X and its in-group
  /// successor, group under its member limit — is inlined; rebalancing
  /// (group split or item relabel) goes out of line.
  Handle<OmNode> insertAfter(Handle<OmNode> X, OmItem Item = 0) {
    assert(X && "insertAfter requires a position");
    OmNode *XN = at(X);
    Handle<OmGroup> GH = XN->Group;
    OmGroup *G = at(GH);
    uint64_t Lo = XN->Label;
    OmNode *Succ = Allocator.ptr(XN->Next);
    uint64_t Hi = Succ && Succ->Group == GH ? Succ->Label : UINT64_MAX;
    if (Hi - Lo >= 2 && G->Count < FillLimit) {
      auto *N = Allocator.create<OmNode>();
      Handle<OmNode> H = Allocator.handle(N);
      N->Label = Lo + std::min((Hi - Lo) / 2, AppendGap);
      N->Group = GH;
      N->Item = Item;
      N->Prev = X;
      N->Next = XN->Next;
      if (Succ)
        Succ->Prev = H;
      XN->Next = H;
      ++G->Count;
      ++Size;
      return H;
    }
    return insertAfterSlow(X, Item);
  }

  /// Removes \p X (which must not be base()) from the order and frees it.
  void remove(Handle<OmNode> X) {
    assert(X != Base && "the base timestamp cannot be removed");
    OmNode *XN = at(X);
    OmGroup *G = at(XN->Group);
    if (G->First == X)
      G->First = (G->Count > 1) ? XN->Next : Handle<OmNode>{};
    if (XN->Prev)
      at(XN->Prev)->Next = XN->Next;
    if (XN->Next)
      at(XN->Next)->Prev = XN->Prev;
    --G->Count;
    --Size;
    Allocator.destroy(XN);
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
  /// so the position becomes a group tail with the whole 64-bit label
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
  bool precedes(Handle<OmNode> A, Handle<OmNode> B) const {
    const OmNode *NA = at(A);
    const OmNode *NB = at(B);
    if (NA->Group == NB->Group)
      return NA->Label < NB->Label;
    return at(NA->Group)->Label < at(NB->Group)->Label;
  }

  /// Successor of \p X in the order, or null if X is the maximum.
  Handle<OmNode> next(Handle<OmNode> X) const { return at(X)->Next; }
  /// Predecessor of \p X in the order, or null if X is base().
  Handle<OmNode> prev(Handle<OmNode> X) const { return at(X)->Prev; }
  /// The client payload stamped on \p X.
  OmItem item(Handle<OmNode> X) const { return at(X)->Item; }

  /// Read-only resolution of a timestamp or group handle (null for the
  /// null handle), for walks that read several fields of one node.
  const OmNode *node(Handle<OmNode> H) const { return Allocator.ptr(H); }
  const OmGroup *group(Handle<OmGroup> H) const { return Allocator.ptr(H); }

  /// The arena the timestamps live in (memory accounting).
  const Arena &arena() const { return Allocator; }

  /// Pre-reserves node and group storage for about \p ExpectedNodes
  /// further insertions (input-size hint; see Arena::reserve).
  void reserve(size_t ExpectedNodes) {
    Allocator.reserve(ExpectedNodes * Arena::accountedSize(sizeof(OmNode)) +
                      (ExpectedNodes / GroupTarget + 1) *
                          Arena::accountedSize(sizeof(OmGroup)));
  }

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

  /// (Re)creates the pristine one-node list inside the current region;
  /// the constructor's body, also used to recover a usable empty list
  /// after a failed snapshot claim remapped the arena.
  void rebuildEmpty();

  static constexpr uint32_t GroupLimit = 64;
  static constexpr uint32_t GroupTarget = 32;
  /// Upper-level label space: [0, 2^62).
  static constexpr uint64_t GroupLabelSpace = uint64_t(1) << 62;
  /// Appending halves the remaining label space if done by midpoint,
  /// which exhausts it after ~64 insertions and triggers pathological
  /// relabeling; bound the gap so appends consume label space linearly.
  static constexpr uint64_t AppendGap = uint64_t(1) << 32;

  /// Handle resolution against Allocator for links the structure
  /// guarantees are non-null.
  OmNode *at(Handle<OmNode> H) const { return Allocator.at(H); }
  OmGroup *at(Handle<OmGroup> H) const { return Allocator.at(H); }

  Handle<OmNode> insertAfterSlow(Handle<OmNode> X, OmItem Item);
  Handle<OmNode> appendSlow(Handle<OmNode> X, OmItem Item);
  /// Allocates a node carrying \p Item and \p Label in group \p G and
  /// links it immediately after \p X (the group's Count is the caller's).
  Handle<OmNode> linkAfter(Handle<OmNode> X, Handle<OmGroup> G,
                           uint64_t Label, OmItem Item);
  void removeEmptyGroup(OmGroup *G);
  OmGroup *createGroupAfter(OmGroup *G, uint64_t Label);
  /// Creates an empty group after \p G with a label midway to its
  /// successor (bounded by the append stride), relabeling the enclosing
  /// group range first if the upper-level label space is exhausted there.
  OmGroup *freshGroupAfter(OmGroup *G);
  void splitGroup(OmGroup *G);
  void relabelGroupItems(OmGroup *G);
  /// Makes room in the group-label space around \p G so that a new group
  /// can be inserted after it; relabels a low-density enclosing range.
  uint64_t makeGroupGapAfter(OmGroup *G);

  Arena Allocator;
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
