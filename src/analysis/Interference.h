//===- analysis/Interference.h - Parallel-safety interference --*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprocedural interference analysis, an off-by-default analysis
/// tool: which *region classes* of the store may each CL entry point
/// read or write, and which pairs of entry points could therefore race
/// if their trace intervals were ever re-executed concurrently. The
/// runtime always propagates on one thread; the verdicts describe the
/// programs, they do not gate any execution mode.
///
/// Region classes are allocation-site based, with two extensions that
/// make the domain closed under the ways CL code actually obtains
/// pointers:
///
///  * A **site** class per modref()/alloc() block. Memo-keyed
///    reallocation may return the same cell to two different intervals,
///    so two executions reaching the same site share the class.
///  * An **input** class per pointer-typed parameter of every function.
///    Any function can be a run_core entry, so each such parameter names
///    the (mutator-built) structure handed to it. Input classes are
///    *container-collapsed*: everything reachable from the input is the
///    input (the analysis cannot see the mutator's stores), which is
///    encoded by self-seeding the contents relation below.
///  * A single **unknown** class for values the analysis cannot place
///    (pointer arithmetic, loads whose source has no class). Unknown
///    overlaps everything.
///
/// On top of the classes the analysis computes, to a global fixed point
/// across the call graph (tails, calls, alloc initializers):
///
///  * `Contents[c]` — classes of values that may be stored *inside*
///    region c (via write/store of a pointer-typed value).
///  * `ParamBind[F][p]` — classes that may be bound to parameter p of F:
///    its own input class plus every class passed at some call site.
///  * Per-function split summaries: effects on the function's own
///    parameters stay symbolic (`ParamReads`/`ParamWrites`, resolved
///    per call site like ModrefEffects does) while effects on values
///    with known classes land in `ClassReads`/`ClassWrites` directly.
///
/// Entry points are instantiated per function (`fn:F`, entered at block
/// 0) and per read continuation (`read:F:B`, change propagation may
/// re-enter at the read block B itself); their effects are the union of
/// per-block global effects over the blocks forward-reachable within the
/// function, with parameter bits resolved through ParamBind. Every entry
/// pair is then classified:
///
///   Disjoint    no overlap between either side's reads/writes and the
///               other's writes — safe to run concurrently.
///   Ordered     overlap in exactly one direction (one side reads what
///               the other writes) — safe if trace order is preserved.
///   Conflicting write/write overlap, or read/write overlap in both
///               directions.
///
/// The write-site records back the two cl-lint rules:
/// `parallel-unsafe-write` (a write whose target has no trackable
/// region, i.e. globalizes to unknown) and `cross-region-alias` (a write
/// whose target may alias two distinct direct roots of the function —
/// two parameters, two local sites, or one of each — so no partition by
/// region can claim it).
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_ANALYSIS_INTERFERENCE_H
#define CEAL_ANALYSIS_INTERFERENCE_H

#include "analysis/Dataflow.h"
#include "cl/Ir.h"

#include <string>
#include <vector>

namespace ceal {
namespace analysis {

/// One region class of the interference domain.
struct RegionClass {
  enum Kind : uint8_t {
    Site,    ///< modref()/alloc() at block B of function F.
    Input,   ///< the structure bound to pointer parameter P of F.
    Unknown, ///< unplaceable values; overlaps everything.
  } K = Unknown;
  cl::FuncId F = cl::InvalidId;
  cl::BlockId B = cl::InvalidId; ///< Site.
  cl::VarId P = cl::InvalidId;   ///< Input.

  /// Stable name: "site:F:label", "in:F:param", "unknown".
  std::string name(const cl::Program &Prog) const;
};

/// One write command of a function, with its may-target sets. Local
/// bits: [0, NumParams) the function's own parameters, then one bit per
/// global class. Global is Local with parameter bits resolved through
/// ParamBind.
struct WriteSite {
  cl::BlockId Block = cl::InvalidId;
  cl::VarId Ref = cl::InvalidId;
  BitVec Local;
  BitVec Global;
};

/// The split interference summary of one function (see file comment).
struct FuncInterference {
  BitVec ParamReads;  ///< NumParams bits; effect through own parameter.
  BitVec ParamWrites;
  BitVec ClassReads;  ///< NumClasses bits; effect on a known class.
  BitVec ClassWrites;
  std::vector<WriteSite> Writes; ///< Every Write command, in block order.
};

enum class PairRelation : uint8_t { Disjoint, Ordered, Conflicting };

const char *pairRelationName(PairRelation R);

/// An instantiated entry point with its resolved global effect sets
/// (NumClasses bits each).
struct EntryPoint {
  cl::FuncId F = cl::InvalidId;
  /// The block re-entered: 0 for the function entry, the read block for
  /// a read continuation. EntryBlock==0 means the function entry.
  cl::BlockId EntryBlock = 0;
  bool IsReadEntry = false;
  BitVec Reads;
  BitVec Writes;

  /// "fn:name" or "read:name:label".
  std::string name(const cl::Program &Prog) const;
};

/// The whole-program interference result.
struct InterferenceSummary {
  /// All region classes; Unknown is always last (index UnknownClass).
  std::vector<RegionClass> Classes;
  size_t UnknownClass = 0;
  /// Classes of values that may be stored inside each class's region.
  std::vector<BitVec> Contents;
  /// Per function, per parameter: classes that may be bound there
  /// (empty BitVec for non-pointer parameters).
  std::vector<std::vector<BitVec>> ParamBind;
  /// Per-function split summaries, indexed by FuncId.
  std::vector<FuncInterference> Funcs;
  /// All instantiated entry points: fn:F for every function, then every
  /// read continuation, grouped by function in program order.
  std::vector<EntryPoint> Entries;

  size_t numClasses() const { return Classes.size(); }

  /// Classifies one entry pair (symmetric; Ordered means exactly one
  /// side's writes meet the other's reads). Unknown overlaps every
  /// non-empty set.
  PairRelation classify(const EntryPoint &X, const EntryPoint &Y) const;

  /// True if A and B share a class, treating Unknown as a wildcard.
  bool overlaps(const BitVec &A, const BitVec &B) const;
};

/// Computes the interference summary of \p P. The program should be
/// structurally valid (run the verifier first); invalid references are
/// skipped conservatively.
InterferenceSummary computeInterference(const cl::Program &P);

} // namespace analysis
} // namespace ceal

#endif // CEAL_ANALYSIS_INTERFERENCE_H
