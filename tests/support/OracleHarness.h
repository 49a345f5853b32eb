//===- tests/support/OracleHarness.h - Propagation oracle driver -*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The change-propagation oracle: drive an AppModel (a benchmark app or a
/// random CL program) through N random change sequences, and after every
/// propagation compare the self-adjusting output word-for-word against a
/// from-scratch conventional recomputation (the paper's correctness
/// statement for propagate) while the trace sanitizer (TraceAudit) checks
/// the runtime's structural invariants.
///
/// Reload axis: under HarnessOptions::Reload, the continuous run also
/// records each point's trace-shape digest and output. A second runtime
/// replays the sequence to a split point that rotates with the sequence
/// index (after setup, mid-sequence, after the last step), checkpoints,
/// and is destroyed; a third restores the checkpoint and finishes the
/// sequence. Every point must match the continuous run and the oracle.
/// The model crosses by clone(): its raw arena pointers stay valid
/// because the loader claims the saver's region base (a claimQuietBase
/// one, so that it is still free).
///
/// Seeding: sequence s uses Seed = mixSeed(BaseSeed, s); setup draws from
/// stream 0 and change step k from stream k+1. Streams are independent,
/// so any subset of steps replays its draws exactly. That makes the ddmin
/// shrinker sound: it re-runs the sequence with chunks of steps removed,
/// holding the split at the same relative position. A report names the
/// seed, the minimal steps and the reload cell, and the call that replays
/// it: runSequence(Make, Opt, Seed, Steps, Split).
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_TESTS_SUPPORT_ORACLEHARNESS_H
#define CEAL_TESTS_SUPPORT_ORACLEHARNESS_H

#include "runtime/Runtime.h"
#include "runtime/Snapshot.h"
#include "runtime/TraceAudit.h"
#include "tests/support/Generators.h"
#include "tests/support/SnapshotCorruption.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

namespace ceal {
namespace harness {

/// One benchmark app under oracle test. Models are stateful: the harness
/// constructs a fresh model (and a fresh Runtime) per run.
class AppModel {
public:
  virtual ~AppModel() = default;

  /// Builds the input structures and runs the core(s) from scratch.
  virtual void setup(Runtime &RT, Rng &R) = 0;

  /// Why setup() could not build a sound instance, or "" if it did (a
  /// generated program that does not verify, say).
  virtual std::string setupProblem() const { return ""; }

  /// Applies one random meta-level change (insert/delete/modify). The
  /// harness propagates afterwards; models must keep whatever mutator
  /// state they need for expected().
  virtual void applyChange(Runtime &RT, Rng &R) = 0;

  /// The self-adjusting output, read through the meta interface.
  virtual std::vector<Word> output(Runtime &RT) = 0;

  /// The expected output, recomputed from scratch conventionally from the
  /// current (edited) input.
  virtual std::vector<Word> expected(Runtime &RT) = 0;

  /// A copy of this model's *mutator* state (what expected() computes
  /// from), independent of any Runtime: the model that crosses a reload.
  /// Models whose state is memberwise-copyable implement this with their
  /// copy constructor; with the default (null) a reload is an error.
  virtual std::unique_ptr<AppModel> clone() const { return nullptr; }
};

using ModelFactory = std::function<std::unique_ptr<AppModel>()>;

/// A Runtime::Config with the sanitizer fully on — the default for oracle
/// runs, so every propagation is audited.
inline Runtime::Config auditedConfig() {
  Runtime::Config C;
  C.Audit = true;
  return C;
}

/// How a sequence crosses a checkpoint: not at all, or through one of the
/// two load paths.
enum class ReloadPath { None, Load, Mmap };

struct HarnessOptions {
  /// Independent random change sequences (each gets a fresh model).
  int Sequences = 50;
  /// Change+propagate steps per sequence.
  int Changes = 8;
  /// Root seed; sequence s runs with mixSeed(BaseSeed, s).
  uint64_t BaseSeed = 0xcea1;
  /// Runtime configuration for every run (audit on by default; note the
  /// Runtime's own hooks abort on violation, while the harness's explicit
  /// inspect() reports gracefully first).
  Runtime::Config Config = auditedConfig();
  /// Minimize the failing step set before reporting.
  bool Shrink = true;
  /// Optional extra per-sequence check, run after the continuous run's
  /// last step (e.g. "the simulated GC actually ran"). Return "" for pass.
  std::function<std::string(Runtime &)> SequenceCheck;
  /// Checkpoint and reload each sequence at a rotating split point.
  ReloadPath Reload = ReloadPath::None;
};

namespace detail {

/// Audits + compares; returns "" or a description prefixed with \p When.
inline std::string checkState(Runtime &RT, AppModel &Model, const char *When,
                              int Step) {
  const std::string At =
      std::string(When) + " (step " + std::to_string(Step) + "): ";
  std::ostringstream OS;
  TraceAudit::Report Audit = TraceAudit::inspect(RT);
  if (!Audit.ok())
    OS << At << "trace audit found " << Audit.Violations.size()
       << " violation(s):\n"
       << Audit.summary();
  std::vector<Word> Got = Model.output(RT), Want = Model.expected(RT);
  if (Got == Want)
    return OS.str();
  size_t N = std::min(Got.size(), Want.size());
  size_t I =
      std::mismatch(Got.begin(), Got.begin() + N, Want.begin()).first -
      Got.begin();
  OS << (Audit.ok() ? "" : "\n") << At << "output mismatch: output has "
     << Got.size() << " words, expected " << Want.size();
  if (I < N)
    OS << "; word " << I << " is 0x" << std::hex << Got[I] << ", expected 0x"
       << Want[I];
  return OS.str();
}

/// The continuous run's points (0 = after setup, K = after the K-th
/// step): each the trace-shape digest, then the output with every arena
/// pointer (quickhull's hull is a list of Point *s) re-encoded as a
/// (was-in-region, offset-or-raw) pair, so that two runtimes at different
/// region bases agree.
using Trail = std::vector<std::vector<Word>>;

/// Checks point \p K of a run against the oracle and the audit. With a
/// trail, the continuous run records the point and a reloading run must
/// match the record.
inline std::string checkPoint(Runtime &RT, AppModel &M, const char *When,
                              int Step, Trail *T, size_t K) {
  if (std::string Err = checkState(RT, M, When, Step); !Err.empty() || !T)
    return Err;
  const uint64_t Base = reinterpret_cast<uint64_t>(RT.arena().regionBase());
  const uint64_t Size = RT.arena().regionBytes();
  std::vector<Word> Point = {Snapshot::traceShapeDigest(RT)};
  for (Word W : M.output(RT)) {
    bool InRegion = W >= Base && W - Base < Size;
    Point.push_back(InRegion ? 1 : 0);
    Point.push_back(InRegion ? W - Base : W);
  }
  if (K == T->size())
    T->push_back(std::move(Point));
  else if (Point != (*T)[K])
    return std::string(When) + " (step " + std::to_string(Step) + "): " +
           (Point[0] != (*T)[K][0] ? "trace shape" : "output") +
           " differs from the continuous run's";
  return "";
}

/// Applies and propagates Steps[From, To), checking the point after each.
inline std::string resume(Runtime &RT, AppModel &M, uint64_t Seed,
                          const std::vector<int> &Steps, size_t From,
                          size_t To, const char *When, Trail *T) {
  for (size_t K = From; K < To; ++K) {
    Rng ChangeRng(gen::mixSeed(Seed, static_cast<uint64_t>(Steps[K]) + 1));
    M.applyChange(RT, ChangeRng);
    RT.propagate();
    if (std::string Err = checkPoint(RT, M, When, Steps[K], T, K + 1);
        !Err.empty())
      return Err;
  }
  return "";
}

/// Sets a fresh model up on \p RT, then applies and propagates
/// Steps[0, To), checking the point after each.
inline std::string play(Runtime &RT, AppModel &M, uint64_t Seed,
                        const std::vector<int> &Steps, size_t To,
                        const char *When, Trail *T) {
  Rng SetupRng(gen::mixSeed(Seed, 0));
  M.setup(RT, SetupRng);
  if (std::string Problem = M.setupProblem(); !Problem.empty())
    return "setup: " + Problem;
  if (std::string Err = checkPoint(RT, M, "after setup", -1, T, 0);
      !Err.empty())
    return Err;
  return resume(RT, M, Seed, Steps, 0, To, When, T);
}

} // namespace detail

/// Runs one sequence applying exactly the change steps listed in \p Steps
/// (indices into [0, Opt.Changes), ascending). Under a reload, the first
/// \p Split of them run before the checkpoint. Returns "" on success or a
/// failure description. This is the replay entry point a report names.
inline std::string runSequence(const ModelFactory &Make,
                               const HarnessOptions &Opt, uint64_t Seed,
                               const std::vector<int> &Steps,
                               size_t Split = 0) {
  detail::Trail T;
  detail::Trail *Rec = Opt.Reload == ReloadPath::None ? nullptr : &T;
  {
    Runtime RT(Opt.Config);
    std::unique_ptr<AppModel> Model = Make();
    if (std::string Err = detail::play(RT, *Model, Seed, Steps, Steps.size(),
                                       "after propagate", Rec);
        !Err.empty())
      return Err;
    if (Opt.SequenceCheck)
      if (std::string Err = Opt.SequenceCheck(RT); !Err.empty())
        return "sequence check: " + Err;
  }
  if (!Rec)
    return "";

  Split = std::min(Split, Steps.size());
  TempFile Checkpoint;
  std::unique_ptr<AppModel> Resumed;
  {
    Runtime RT(Opt.Config);
    if (std::string Err = claimQuietBase(RT); !Err.empty())
      return Err;
    std::unique_ptr<AppModel> Model = Make();
    if (std::string Err = detail::play(RT, *Model, Seed, Steps, Split,
                                       "before save", Rec);
        !Err.empty())
      return Err;
    Snapshot::SaveResult SR = Snapshot::save(RT, Checkpoint.Path);
    if (!SR.ok())
      return std::string("save failed: ") + Snapshot::statusName(SR.St) +
             ": " + SR.Diagnostic;
    Resumed = Model->clone();
    if (!Resumed)
      return "the model has no clone(), so it cannot cross a reload";
  } // The saver is destroyed: its region base is free for the loader.

  Runtime RT(Opt.Config);
  bool Mmap = Opt.Reload == ReloadPath::Mmap;
  Snapshot::LoadResult LR = Mmap
                                ? Snapshot::mmapWarmStart(RT, Checkpoint.Path)
                                : Snapshot::load(RT, Checkpoint.Path);
  if (!LR.ok())
    return std::string(Mmap ? "mmapWarmStart" : "load") +
           " failed: " + Snapshot::statusName(LR.St) + ": " + LR.Diagnostic;
  if (std::string Err =
          detail::checkPoint(RT, *Resumed, "after reload",
                             Split ? Steps[Split - 1] : -1, Rec, Split);
      !Err.empty())
    return Err;
  return detail::resume(RT, *Resumed, Seed, Steps, Split, Steps.size(),
                        "after reload propagate", Rec);
}

namespace detail {

/// \p Frac of \p Steps, rounded: where a shrunk step list splits.
inline size_t scaledSplit(double Frac, size_t Steps) {
  return static_cast<size_t>(Frac * double(Steps) + 0.5);
}

/// ddmin-style minimization: repeatedly drop chunks of steps while the
/// failure reproduces, ending with single-step passes until none can go.
/// Each candidate subset is a full fresh replay, which per-step seed
/// streams make faithful; the split stays at \p Frac of the candidate.
inline std::vector<int> shrinkSteps(const ModelFactory &Make,
                                    const HarnessOptions &Opt, uint64_t Seed,
                                    std::vector<int> Steps, double Frac) {
  size_t Chunk = std::max<size_t>(Steps.size() / 2, 1);
  while (!Steps.empty()) {
    bool Removed = false;
    for (size_t Begin = 0; Begin + Chunk <= Steps.size();) {
      std::vector<int> Candidate = Steps;
      auto At = Candidate.begin() + static_cast<ptrdiff_t>(Begin);
      Candidate.erase(At, At + static_cast<ptrdiff_t>(Chunk));
      if (!runSequence(Make, Opt, Seed, Candidate,
                       scaledSplit(Frac, Candidate.size()))
               .empty()) {
        Steps = std::move(Candidate);
        Removed = true; // Retry the same Begin against the shorter list.
      } else {
        Begin += Chunk;
      }
    }
    if (!Removed && Chunk == 1)
      break;
    Chunk = Removed ? std::min(Chunk, std::max<size_t>(Steps.size() / 2, 1))
                    : Chunk / 2;
  }
  return Steps;
}

} // namespace detail

/// Runs Opt.Sequences independent random change sequences. Returns "" if
/// every propagation matched the oracle (and, under a reload, the
/// continuous run) and passed the audit; otherwise a report:
///   sequence S failed: seed=0x.. steps={..} reload=CELL: what failed
///     replay: runSequence(Make, Opt, 0x.., {..}, SPLIT)
/// CELL is "none", or the load path and split ("mmap@1"). The replay
/// line, with the same Make and Opt, reproduces the failure exactly.
inline std::string runOracleHarness(const ModelFactory &Make,
                                    const HarnessOptions &Opt = {}) {
  for (int Seq = 0; Seq < Opt.Sequences; ++Seq) {
    uint64_t Seed = gen::mixSeed(Opt.BaseSeed, static_cast<uint64_t>(Seq));
    std::vector<int> Steps(static_cast<size_t>(Opt.Changes));
    std::iota(Steps.begin(), Steps.end(), 0);
    // The split rotates: right after setup, mid-sequence, after the end.
    size_t Split =
        Opt.Reload == ReloadPath::None ? 0 : Steps.size() * (Seq % 3) / 2;
    std::string Err = runSequence(Make, Opt, Seed, Steps, Split);
    if (Err.empty())
      continue;
    if (Opt.Shrink) {
      double Frac = Steps.empty() ? 0.0 : double(Split) / double(Steps.size());
      std::vector<int> Shrunk =
          detail::shrinkSteps(Make, Opt, Seed, Steps, Frac);
      size_t ShrunkSplit = detail::scaledSplit(Frac, Shrunk.size());
      // An unstable failure that the shrunk set misses reports the full set.
      if (std::string ShrunkErr =
              runSequence(Make, Opt, Seed, Shrunk, ShrunkSplit);
          !ShrunkErr.empty())
        Steps = std::move(Shrunk), Split = ShrunkSplit, Err = ShrunkErr;
    }
    std::string List, Hex = gen::seedTag(Seed).substr(5); // "0x..."
    for (int Step : Steps)
      List += (List.empty() ? "" : ",") + std::to_string(Step);
    std::string Cell = Opt.Reload == ReloadPath::None ? "none"
                       : Opt.Reload == ReloadPath::Load
                           ? "load@" + std::to_string(Split)
                           : "mmap@" + std::to_string(Split);
    return "sequence " + std::to_string(Seq) + " failed: " +
           gen::seedTag(Seed) + " steps={" + List + "} reload=" + Cell +
           ": " + Err + "\n  replay: runSequence(Make, Opt, " + Hex + ", {" +
           List + "}, " + std::to_string(Split) + ")";
  }
  return "";
}

} // namespace harness
} // namespace ceal

#endif // CEAL_TESTS_SUPPORT_ORACLEHARNESS_H
