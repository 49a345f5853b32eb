//===- analysis/Lints.h - CEAL-specific CL lints ---------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cl-lint rule set: structural verification plus CEAL-specific
/// checks built on the dataflow framework. Every rule emits located
/// cl::Diagnostic values with a stable Check slug:
///
///   verify          malformed IR (errors; suppresses deeper lints)
///   read-not-tail   a read command without a tail jump (only with
///                   RequireNormalForm; errors — translation and the VM
///                   need the Sec. 5 normal form)
///   use-before-def  a local is used on some path before any definition
///                   (it holds its zero-initial value; warning)
///   redundant-read  the modref was already read on every path with no
///                   intervening write (warning)
///   dead-write      the written value is surely overwritten before any
///                   observation (warning)
///   unused-alloc    a modref()/alloc() destination is never used
///                   (warning)
///   dead-code       an assign/read destination is never used (note)
///   memo-key-write  a modref is written after escaping into a modref()
///                   memo key — the key no longer identifies the cell's
///                   contents across runs (warning)
///   loop-live       the live set at an intra-function loop header
///                   exceeds the threshold: every trace node in the loop
///                   carries that many closure words, the ML(P) factor
///                   of Theorems 3-5 (warning)
///   unreachable     a block unreachable from entry and from every read
///                   continuation (note)
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_ANALYSIS_LINTS_H
#define CEAL_ANALYSIS_LINTS_H

#include "cl/Diagnostic.h"
#include "cl/Ir.h"

#include <cstddef>
#include <vector>

namespace ceal {
namespace analysis {

struct LintOptions {
  /// Require the Sec. 5 normal form (reads tail); errors otherwise.
  bool RequireNormalForm = false;
  /// Live-set size at a loop header above which loop-live fires.
  size_t LoopLiveThreshold = 12;
  /// Emit dead-code notes (dead assigns/reads) in addition to warnings.
  bool DeadCodeNotes = true;
};

struct LintReport {
  std::vector<cl::Diagnostic> Diags;
  /// ML(P): the maximum live-set size over all blocks of all functions
  /// (Theorems 3-5); reported in loop-live messages.
  size_t MaxLiveProgram = 0;

  size_t errorCount() const { return cl::countErrors(Diags); }
};

/// Runs all lints over \p P. If structural verification fails, only the
/// verify diagnostics are returned (the dataflow lints assume valid
/// references).
LintReport runLints(const cl::Program &P, const LintOptions &O = {});

} // namespace analysis
} // namespace ceal

#endif // CEAL_ANALYSIS_LINTS_H
