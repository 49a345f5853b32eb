//===- runtime/TraceAudit.h - Trace sanitizer ------------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A debug-time auditor over the run-time system's dynamic dependence
/// graph. Change propagation is only correct if the structural invariants
/// the paper's algorithms assume actually hold between operations; the
/// auditor walks the whole RTS state and checks them:
///
///  * Order maintenance: node labels strictly increase inside each group,
///    group labels strictly increase along the group chain, and the
///    two levels agree — `precedes` is a strict total order consistent
///    with the linked-list order (Dietz-Sleator consistency). The cursor
///    and TraceEnd are members of the list.
///
///  * Trace shape: every timestamp's kind bits match the node that
///    embeds it (a read's End member says End, every other stamp names
///    its own node's kind), read intervals are well-formed (Start before
///    End) and properly nested, and the global TraceEnd is the maximum
///    timestamp. Every handle is bounds-checked before it is followed,
///    over the whole extent it names: a node, a modifiable; a node's own
///    closure frame and allocation block are checked against the
///    frontier as soon as their arity and size are read, and no frame
///    word is hashed while any node's extent is in doubt. A read's
///    governing-write cache names
///    a write. Work parked during a core (pending reads, deferred memo
///    inserts and frees, the order list's append mode) is drained.
///
///  * Modifiable use-lists: doubly linked, sorted by timestamp, members
///    all live trace nodes, and every clean (non-dirty) read's SeenValue
///    equals the value its position governs — the equality-cut soundness
///    condition.
///
///  * Propagation queue: dirty flags and HeapIndex agree exactly, the
///    intrusive heap indices are self-consistent, and the heap property
///    (parent starts before child) holds.
///
///  * Memo indexes: chains are acyclic and back-linked, every entry's
///    stored hash matches a recomputation from its key, entries sit in
///    the bucket their hash selects, and table membership is exactly the
///    set of live read/alloc nodes.
///
///  * Arena accounting: the live trace nodes (each one arena block with
///    its timestamps, its closure and, for an allocation, its user
///    block), the order list's groups and base, the memo tables' bucket
///    arrays, and tracked mutator blocks (Runtime::metaAlloc) reconcile
///    exactly with Arena liveBytes — a leak or double-free shows up as a
///    delta. The trace's nodes are pairwise disjoint, so a handle forged
///    to name a spot inside another live node, or an arity or size that
///    carries a node into the next, is reported.
///
/// The audit is read-only and meta-phase only. Callers run it on request
/// (inspect, enforce); Runtime::Config::Audit also runs enforce after
/// every run_core and propagate. The hooks cost one branch per
/// propagation when off, nothing per traced operation. Snapshot::load()
/// runs the same walk once over a restored runtime, so a crafted
/// checkpoint that passes every checksum still has to pass it before
/// propagation trusts the trace.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_TRACEAUDIT_H
#define CEAL_RUNTIME_TRACEAUDIT_H

#include <cstddef>
#include <string>
#include <vector>

namespace ceal {

class Runtime;

/// The trace sanitizer. Stateless; both entry points walk the runtime's
/// entire live state with the one walker.
class TraceAudit {
public:
  /// One invariant violation, human-readable.
  struct Report {
    std::vector<std::string> Violations;
    /// Counters the walk collected (useful in tests and messages).
    size_t Reads = 0, Writes = 0, Allocs = 0, Timestamps = 0;
    size_t TraceBytes = 0;

    bool ok() const { return Violations.empty(); }
    /// All violations joined with newlines ("" when ok).
    std::string summary() const;
  };

  /// Walks the runtime and returns every violation found (never aborts).
  static Report inspect(const Runtime &RT);

  /// inspect() + print-and-abort on violation; the Runtime's audit hooks
  /// call this. \p Where names the checkpoint for the failure banner.
  static void enforce(const Runtime &RT, const char *Where);

private:
  /// The walker; nested so it inherits this class's friendship with
  /// Runtime and OrderList.
  struct Impl;
};

} // namespace ceal

#endif // CEAL_RUNTIME_TRACEAUDIT_H
