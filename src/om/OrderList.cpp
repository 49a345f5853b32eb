//===- om/OrderList.cpp - Order-maintenance list --------------------------===//

#include "om/OrderList.h"

#include "support/simd/Simd.h"

#include <cassert>
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

using namespace ceal;

OrderList::OrderList() { rebuildEmpty(); }

void OrderList::rebuildEmpty() {
  FillLimit = GroupLimit;
  AppendActive = false;
  auto *G = Allocator.create<OmGroup>();
  G->Prev = G->Next = nullptr;
  G->Label = GroupLabelSpace / 2;
  G->Count = 1;
  FirstGroup = G;

  auto *N = Allocator.create<OmNode>();
  N->Prev = N->Next = nullptr;
  N->Group = G;
  N->Label = UINT64_MAX / 2;
  N->Item = 0;
  G->First = N;
  Base = N;
  Size = 1;
}

/// Out-of-line continuation of insertAfter: the group is full or the
/// labels left no room, so rebalance (split or relabel) and retry. The
/// retry loop re-runs the fast-path placement logic because rebalancing
/// changes group membership and labels.
OmNode *OrderList::insertAfterSlow(OmNode *X, OmItem Item) {
  if (AppendActive)
    return appendSlow(X, Item);
  for (;;) {
    OmGroup *G = X->Group;
    uint64_t Lo = X->Label;
    bool NextInGroup = X->Next && X->Next->Group == G;
    uint64_t Hi = NextInGroup ? X->Next->Label : UINT64_MAX;
    if (Hi - Lo >= 2 && G->Count < GroupLimit) {
      auto *N = Allocator.create<OmNode>();
      N->Label = Lo + std::min((Hi - Lo) / 2, AppendGap);
      N->Group = G;
      N->Item = Item;
      N->Prev = X;
      N->Next = X->Next;
      if (X->Next)
        X->Next->Prev = N;
      X->Next = N;
      ++G->Count;
      ++Size;
      return N;
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
OmNode *OrderList::appendSlow(OmNode *X, OmItem Item) {
  for (;;) {
    OmGroup *G = X->Group;
    if (X->Next && X->Next->Group == G) {
      // Mid-group position (the cursor re-entered an interval): peel the
      // in-group suffix after X into a fresh group under bump labels, so
      // X becomes a group tail with the full label space above it.
      OmGroup *NewG = freshGroupAfter(G);
      OmNode *N = X->Next;
      NewG->First = N;
      uint32_t Moved = 0;
      uint64_t Label = AppendGap;
      while (N && N->Group == G) {
        N->Group = NewG;
        N->Label = Label;
        Label += AppendGap;
        ++Moved;
        N = N->Next;
      }
      NewG->Count = Moved;
      assert(G->Count > Moved && "peel must leave X behind");
      G->Count -= Moved;
      continue;
    }
    if (G->Count >= FillLimit || UINT64_MAX - X->Label < 2) {
      // Group tail, but the group is at the append-mode fill target or
      // the label space above X is gone: start a fresh group after G and
      // put the new node there.
      OmGroup *NewG = freshGroupAfter(G);
      auto *N = Allocator.create<OmNode>();
      N->Label = AppendGap;
      N->Group = NewG;
      N->Item = Item;
      N->Prev = X;
      N->Next = X->Next;
      if (X->Next)
        X->Next->Prev = N;
      X->Next = N;
      NewG->First = N;
      NewG->Count = 1;
      ++Size;
      return N;
    }
    // A peel above turned X into a group tail with room: bump insert.
    auto *N = Allocator.create<OmNode>();
    N->Label = X->Label + std::min((UINT64_MAX - X->Label) / 2, AppendGap);
    N->Group = G;
    N->Item = Item;
    N->Prev = X;
    N->Next = X->Next;
    if (X->Next)
      X->Next->Prev = N;
    X->Next = N;
    ++G->Count;
    ++Size;
    return N;
  }
}

/// Unlinks and frees a group whose last member was just removed.
void OrderList::removeEmptyGroup(OmGroup *G) {
  if (G->Prev)
    G->Prev->Next = G->Next;
  else
    FirstGroup = G->Next;
  if (G->Next)
    G->Next->Prev = G->Prev;
  Allocator.destroy(G);
}

void OrderList::relabelGroupItems(OmGroup *G) {
  ++Relabels;
  assert(G->Count > 0 && "relabeling an empty group");
  uint64_t Gap = UINT64_MAX / (uint64_t(G->Count) + 1);
  // The label rewrite goes through the vectorized relabel kernel, which
  // may speculatively *read* Next fields of arena addresses near the
  // chain; the arena's bump extent is the window those reads stay in.
  const void *WinLo = Allocator.regionBase();
  const void *WinHi =
      static_cast<const char *>(WinLo) + Allocator.bumpUsedBytes();
  simd::omRelabel(G->First, G->Count, /*Base=*/0, Gap, offsetof(OmNode, Next),
                  offsetof(OmNode, Label), WinLo, WinHi);
}

OmGroup *OrderList::createGroupAfter(OmGroup *G, uint64_t Label) {
  auto *NewG = Allocator.create<OmGroup>();
  NewG->Label = Label;
  NewG->Count = 0;
  NewG->First = nullptr;
  NewG->Prev = G;
  NewG->Next = G->Next;
  if (G->Next)
    G->Next->Prev = NewG;
  G->Next = NewG;
  return NewG;
}

OmGroup *OrderList::freshGroupAfter(OmGroup *G) {
  uint64_t Lo = G->Label;
  uint64_t Hi = G->Next ? G->Next->Label : GroupLabelSpace;
  if (Hi - Lo < 2) {
    Lo = makeGroupGapAfter(G);
    Hi = G->Next ? G->Next->Label : GroupLabelSpace;
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
  OmNode *N = G->First;
  for (uint32_t I = 0; I < GroupTarget; ++I)
    N = N->Next;
  G->Count = GroupTarget;
  relabelGroupItems(G);

  uint32_t Remaining = Total - GroupTarget;
  OmGroup *Pred = G;
  while (Remaining > 0) {
    uint32_t Take = Remaining < GroupTarget ? Remaining : GroupTarget;
    OmGroup *NewG = freshGroupAfter(Pred);
    NewG->First = N;
    NewG->Count = Take;
    for (uint32_t I = 0; I < Take; ++I) {
      N->Group = NewG;
      N = N->Next;
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
    while (Lo->Prev && Lo->Prev->Label >= RangeBase)
      Lo = Lo->Prev;
    uint64_t Count = 0;
    OmGroup *Cursor = Lo;
    while (Cursor && Cursor->Label < RangeEnd) {
      ++Count;
      Cursor = Cursor->Next;
    }
    if (2.0 * double(Count + 1) > Tau * double(Width))
      continue; // Too dense for this height; widen the range.
    uint64_t Gap = Width / (Count + 1);
    assert(Gap >= 2 && "density bound guarantees usable gaps");
    // Same chain-relabel shape as relabelGroupItems, over the group chain
    // instead of a node chain.
    const void *WinLo = Allocator.regionBase();
    const void *WinHi =
        static_cast<const char *>(WinLo) + Allocator.bumpUsedBytes();
    simd::omRelabel(Lo, Count, RangeBase, Gap, offsetof(OmGroup, Next),
                    offsetof(OmGroup, Label), WinLo, WinHi);
    return G->Label;
  }
  std::fprintf(stderr, "OrderList: group label space exhausted\n");
  std::abort();
}

void OrderList::verifyInvariants() const {
  size_t SeenNodes = 0;
  const OmGroup *G = FirstGroup;
  const OmNode *Expected = Base;
  uint64_t PrevGroupLabel = 0;
  bool FirstGroupSeen = true;
  while (G) {
    if (!FirstGroupSeen)
      assert(G->Label > PrevGroupLabel && "group labels must increase");
    FirstGroupSeen = false;
    PrevGroupLabel = G->Label;
    assert(G->Count > 0 && "empty group left in list");
    assert(G->First == Expected && "group First out of sync");
    const OmNode *N = G->First;
    uint64_t PrevLabel = 0;
    for (uint32_t I = 0; I < G->Count; ++I) {
      assert(N && "group count exceeds chain length");
      assert(N->Group == G && "node points at wrong group");
      if (I > 0)
        assert(N->Label > PrevLabel && "item labels must increase");
      PrevLabel = N->Label;
      ++SeenNodes;
      Expected = N->Next;
      N = N->Next;
    }
    G = G->Next;
  }
  assert(Expected == nullptr && "trailing nodes beyond last group");
  assert(SeenNodes == Size && "size accounting out of sync");
  (void)SeenNodes;
  (void)Expected;
  (void)PrevGroupLabel;
}
