//===- om/OrderList.cpp - Order-maintenance list --------------------------===//

#include "om/OrderList.h"

#include "support/simd/Simd.h"

#include <cassert>
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

using namespace ceal;

// The relabel kernel addresses nodes as region base + handle * grain.
static_assert(simd::OmHandleGrain == Arena::HandleGrain,
              "relabel kernel grain out of sync with the arena");

OrderList::OrderList() { rebuildEmpty(); }

void OrderList::rebuildEmpty() {
  FillLimit = GroupLimit;
  AppendActive = false;
  auto *G = Allocator.create<OmGroup>();
  G->Prev = G->Next = Handle<OmGroup>{};
  G->Label = GroupLabelSpace / 2;
  G->Count = 1;
  FirstGroup = Allocator.handle(G);

  auto *N = Allocator.create<OmNode>();
  N->Prev = N->Next = Handle<OmNode>{};
  N->Group = FirstGroup;
  N->Label = UINT64_MAX / 2;
  N->Item = 0;
  Base = Allocator.handle(N);
  G->First = Base;
  Size = 1;
}

Handle<OmNode> OrderList::linkAfter(Handle<OmNode> X, Handle<OmGroup> G,
                                    uint64_t Label, OmItem Item) {
  OmNode *XN = at(X);
  auto *N = Allocator.create<OmNode>();
  Handle<OmNode> H = Allocator.handle(N);
  N->Label = Label;
  N->Group = G;
  N->Item = Item;
  N->Prev = X;
  N->Next = XN->Next;
  if (XN->Next)
    at(XN->Next)->Prev = H;
  XN->Next = H;
  ++Size;
  return H;
}

/// Out-of-line continuation of insertAfter: the group is full or the
/// labels left no room, so rebalance (split or relabel) and retry. The
/// retry loop re-runs the fast-path placement logic because rebalancing
/// changes group membership and labels.
Handle<OmNode> OrderList::insertAfterSlow(Handle<OmNode> X, OmItem Item) {
  if (AppendActive)
    return appendSlow(X, Item);
  for (;;) {
    const OmNode *XN = at(X);
    OmGroup *G = at(XN->Group);
    uint64_t Lo = XN->Label;
    const OmNode *Succ = Allocator.ptr(XN->Next);
    uint64_t Hi = Succ && Succ->Group == XN->Group ? Succ->Label : UINT64_MAX;
    if (Hi - Lo >= 2 && G->Count < GroupLimit) {
      ++G->Count;
      return linkAfter(X, XN->Group,
                       Lo + std::min((Hi - Lo) / 2, AppendGap), Item);
    }
    if (G->Count >= GroupLimit)
      splitGroup(G);
    else
      relabelGroupItems(G);
  }
}

/// Append-mode slow path (see beginAppend): never rewrites an existing
/// label. A monotone insertion run only ever lands here when the group at
/// the cursor is full or the in-group label gap is spent, and both cases
/// resolve by opening a fresh group — O(1) per insertion (the suffix peel
/// is bounded by GroupLimit and each peeled node prepays the fresh group
/// it lands in).
Handle<OmNode> OrderList::appendSlow(Handle<OmNode> X, OmItem Item) {
  for (;;) {
    const OmNode *XN = at(X);
    Handle<OmGroup> GH = XN->Group;
    OmGroup *G = at(GH);
    if (XN->Next && at(XN->Next)->Group == GH) {
      // Mid-group position (the cursor re-entered an interval): peel the
      // in-group suffix after X into a fresh group under bump labels, so
      // X becomes a group tail with the full label space above it.
      OmGroup *NewG = freshGroupAfter(G);
      Handle<OmGroup> NewGH = Allocator.handle(NewG);
      NewG->First = XN->Next;
      uint32_t Moved = 0;
      uint64_t Label = AppendGap;
      for (OmNode *N = Allocator.ptr(XN->Next); N && N->Group == GH;
           N = Allocator.ptr(N->Next)) {
        N->Group = NewGH;
        N->Label = Label;
        Label += AppendGap;
        ++Moved;
      }
      NewG->Count = Moved;
      assert(G->Count > Moved && "peel must leave X behind");
      G->Count -= Moved;
      continue;
    }
    if (G->Count >= FillLimit || UINT64_MAX - XN->Label < 2) {
      // Group tail, but the group is at the append-mode fill target or
      // the label space above X is gone: start a fresh group after G and
      // put the new node there.
      OmGroup *NewG = freshGroupAfter(G);
      Handle<OmNode> N =
          linkAfter(X, Allocator.handle(NewG), AppendGap, Item);
      NewG->First = N;
      NewG->Count = 1;
      return N;
    }
    // A peel above turned X into a group tail with room: bump insert.
    ++G->Count;
    return linkAfter(
        X, GH,
        XN->Label + std::min((UINT64_MAX - XN->Label) / 2, AppendGap), Item);
  }
}

/// Unlinks and frees a group whose last member was just removed.
void OrderList::removeEmptyGroup(OmGroup *G) {
  if (G->Prev)
    at(G->Prev)->Next = G->Next;
  else
    FirstGroup = G->Next;
  if (G->Next)
    at(G->Next)->Prev = G->Prev;
  Allocator.destroy(G);
}

void OrderList::relabelGroupItems(OmGroup *G) {
  ++Relabels;
  assert(G->Count > 0 && "relabeling an empty group");
  uint64_t Gap = UINT64_MAX / (uint64_t(G->Count) + 1);
  // The counted relabel kernel chases the 32-bit Next handles off the
  // region base.
  simd::omRelabel(Allocator.regionBase(), G->First.Bits, G->Count,
                  /*Base=*/0, Gap, offsetof(OmNode, Next),
                  offsetof(OmNode, Label));
}

OmGroup *OrderList::createGroupAfter(OmGroup *G, uint64_t Label) {
  auto *NewG = Allocator.create<OmGroup>();
  Handle<OmGroup> H = Allocator.handle(NewG);
  NewG->Label = Label;
  NewG->Count = 0;
  NewG->First = Handle<OmNode>{};
  NewG->Prev = Allocator.handle(G);
  NewG->Next = G->Next;
  if (G->Next)
    at(G->Next)->Prev = H;
  G->Next = H;
  return NewG;
}

OmGroup *OrderList::freshGroupAfter(OmGroup *G) {
  uint64_t Lo = G->Label;
  uint64_t Hi = G->Next ? at(G->Next)->Label : GroupLabelSpace;
  if (Hi - Lo < 2) {
    Lo = makeGroupGapAfter(G);
    Hi = G->Next ? at(G->Next)->Label : GroupLabelSpace;
    assert(Hi - Lo >= 2 && "group relabel failed to open a gap");
  }
  return createGroupAfter(G,
                          Lo + std::min((Hi - Lo) / 2, uint64_t(1) << 31));
}

void OrderList::splitGroup(OmGroup *G) {
  ++Relabels;
  // Leave the first GroupTarget members in G and distribute the remainder
  // into fresh groups of GroupTarget members each, inserted after G.
  uint32_t Total = G->Count;
  assert(Total > GroupTarget && "splitting a small group");
  Handle<OmNode> N = G->First;
  for (uint32_t I = 0; I < GroupTarget; ++I)
    N = at(N)->Next;
  G->Count = GroupTarget;
  relabelGroupItems(G);

  uint32_t Remaining = Total - GroupTarget;
  OmGroup *Pred = G;
  while (Remaining > 0) {
    uint32_t Take = Remaining < GroupTarget ? Remaining : GroupTarget;
    OmGroup *NewG = freshGroupAfter(Pred);
    Handle<OmGroup> NewGH = Allocator.handle(NewG);
    NewG->First = N;
    NewG->Count = Take;
    for (uint32_t I = 0; I < Take; ++I) {
      OmNode *NN = at(N);
      NN->Group = NewGH;
      N = NN->Next;
    }
    relabelGroupItems(NewG);
    Remaining -= Take;
    Pred = NewG;
  }
}

uint64_t OrderList::makeGroupGapAfter(OmGroup *G) {
  ++Relabels;
  ++RangeRelabels;
  // Find the smallest aligned label range [RangeBase, RangeBase + Width)
  // around G whose density is below the threshold for its height, then
  // spread its groups evenly. This is the list-labeling strategy of
  // Bender et al.; it gives amortized O(log n) group relabeling, which
  // the two-level structure turns into amortized O(1) per insertion.
  //
  // The threshold must *decrease geometrically with height*: a flat
  // cutoff (say 1/2 at every width) accepts the smallest window that
  // barely clears it, redistributes with gaps of ~2, and the very next
  // split at the same position exhausts the gap again — a relabeling
  // cascade that turns steady-state churn at one trace position (the
  // change-propagation cursor) into a near-every-propagation O(groups)
  // relabel. Shrinking the allowance by Alpha per doubling means an
  // accepted window is redistributed with gaps that grow exponentially
  // in its height, so the same position absorbs many more splits before
  // the window overflows again.
  constexpr double Alpha = 0.9;
  double Tau = 1.0;
  for (uint64_t Width = 4; Width <= GroupLabelSpace; Width <<= 1) {
    Tau *= Alpha;
    uint64_t RangeBase =
        Width >= GroupLabelSpace ? 0 : (G->Label & ~(Width - 1));
    uint64_t RangeEnd = RangeBase + Width; // Exclusive; no overflow: <= 2^62.
    // Count member groups by walking outward from G.
    OmGroup *Lo = G;
    while (Lo->Prev && at(Lo->Prev)->Label >= RangeBase)
      Lo = at(Lo->Prev);
    uint64_t Count = 0;
    for (const OmGroup *Cursor = Lo; Cursor && Cursor->Label < RangeEnd;
         Cursor = Allocator.ptr(Cursor->Next))
      ++Count;
    if (2.0 * double(Count + 1) > Tau * double(Width))
      continue; // Too dense for this height; widen the range.
    uint64_t Gap = Width / (Count + 1);
    assert(Gap >= 2 && "density bound guarantees usable gaps");
    // Same chain-relabel shape as relabelGroupItems, over the group chain
    // instead of a node chain.
    simd::omRelabel(Allocator.regionBase(), Allocator.handle(Lo).Bits, Count,
                    RangeBase, Gap, offsetof(OmGroup, Next),
                    offsetof(OmGroup, Label));
    return G->Label;
  }
  std::fprintf(stderr, "OrderList: group label space exhausted\n");
  std::abort();
}

void OrderList::verifyInvariants() const {
  size_t SeenNodes = 0;
  Handle<OmNode> Expected = Base;
  uint64_t PrevGroupLabel = 0;
  bool FirstGroupSeen = true;
  for (Handle<OmGroup> GH = FirstGroup; GH; GH = at(GH)->Next) {
    const OmGroup *G = at(GH);
    if (!FirstGroupSeen)
      assert(G->Label > PrevGroupLabel && "group labels must increase");
    FirstGroupSeen = false;
    PrevGroupLabel = G->Label;
    assert(G->Count > 0 && "empty group left in list");
    assert(G->First == Expected && "group First out of sync");
    Handle<OmNode> N = G->First;
    uint64_t PrevLabel = 0;
    for (uint32_t I = 0; I < G->Count; ++I) {
      assert(N && "group count exceeds chain length");
      const OmNode *NN = at(N);
      assert(NN->Group == GH && "node points at wrong group");
      if (I > 0)
        assert(NN->Label > PrevLabel && "item labels must increase");
      PrevLabel = NN->Label;
      ++SeenNodes;
      Expected = NN->Next;
      N = NN->Next;
    }
  }
  assert(!Expected && "trailing nodes beyond last group");
  assert(SeenNodes == Size && "size accounting out of sync");
  (void)SeenNodes;
  (void)Expected;
  (void)PrevGroupLabel;
}
