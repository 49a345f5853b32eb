//===- tests/support/OracleHarness.h - Propagation oracle driver -*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic change-propagation oracle: drive any benchmark app through N
/// random change sequences, and after every propagation compare the
/// self-adjusting output word-for-word against a from-scratch conventional
/// recomputation (the paper's correctness statement for propagate) while
/// the trace sanitizer (TraceAudit) checks the runtime's structural
/// invariants.
///
/// An app plugs in as an AppModel: how to build the input and run the
/// core(s), how to apply one random meta-level change, how to read the
/// self-adjusting output, and how to compute the expected output
/// conventionally. The harness owns sequencing, seeding, auditing,
/// comparison, and shrinking.
///
/// Seeding: sequence s uses Seed = mixSeed(BaseSeed, s); within it, setup
/// draws from stream 0 and change step k from stream k+1 (gen::mixSeed).
/// Streams are independent, so replaying any subset of steps reproduces
/// their draws exactly — which is what makes the shrinker sound: it
/// re-runs the sequence with chunks of steps removed (ddmin-style) and
/// reports the smallest step set that still fails, plus the seed to
/// replay it.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_TESTS_SUPPORT_ORACLEHARNESS_H
#define CEAL_TESTS_SUPPORT_ORACLEHARNESS_H

#include "runtime/Runtime.h"
#include "runtime/TraceAudit.h"
#include "tests/support/Generators.h"

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace ceal {
namespace harness {

/// One benchmark app under oracle test. Models are stateful: the harness
/// constructs a fresh model (and a fresh Runtime) per sequence.
class AppModel {
public:
  virtual ~AppModel() = default;

  /// Builds the input structures and runs the core(s) from scratch.
  virtual void setup(Runtime &RT, Rng &R) = 0;

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
  /// from), independent of any Runtime. The snapshot round-trip harness
  /// clones the continuously-running model at the checkpoint so the
  /// reloaded runtime gets a model whose bookkeeping matches the restored
  /// trace. Models whose state is memberwise-copyable implement this with
  /// their copy constructor; the default (null) opts the model out of
  /// snapshot harness runs.
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

struct HarnessOptions {
  /// Independent random change sequences (each gets a fresh model).
  int Sequences = 50;
  /// Change+propagate steps per sequence.
  int Changes = 8;
  /// Root seed; sequence s runs with mixSeed(BaseSeed, s).
  uint64_t BaseSeed = 0xcea1;
  /// Runtime configuration for every sequence (audit on by default; note
  /// the Runtime's own hooks abort on violation, while the harness's
  /// explicit inspect() reports gracefully first).
  Runtime::Config Config = auditedConfig();
  /// Minimize the failing step set before reporting.
  bool Shrink = true;
  /// Optional extra per-sequence check, run after the last step (e.g.
  /// "the simulated GC actually ran"). Return "" for pass.
  std::function<std::string(Runtime &)> SequenceCheck;
};

namespace detail {

inline std::string describeMismatch(const std::vector<Word> &Got,
                                    const std::vector<Word> &Want) {
  std::ostringstream OS;
  if (Got.size() != Want.size())
    OS << "output has " << Got.size() << " words, expected " << Want.size();
  for (size_t I = 0; I < Got.size() && I < Want.size(); ++I)
    if (Got[I] != Want[I]) {
      if (OS.tellp() > 0)
        OS << "; ";
      OS << "word " << I << " is 0x" << std::hex << Got[I] << ", expected 0x"
         << Want[I];
      break;
    }
  return OS.str();
}

/// Audits + compares; returns "" or a description prefixed with \p When.
inline std::string checkState(Runtime &RT, AppModel &Model, const char *When,
                              int Step) {
  TraceAudit::Report Audit = TraceAudit::inspect(RT);
  std::ostringstream OS;
  if (!Audit.ok())
    OS << When << " (step " << Step << "): trace audit found "
       << Audit.Violations.size() << " violation(s):\n"
       << Audit.summary();
  std::vector<Word> Got = Model.output(RT);
  std::vector<Word> Want = Model.expected(RT);
  if (Got != Want) {
    if (OS.tellp() > 0)
      OS << "\n";
    OS << When << " (step " << Step
       << "): output mismatch: " << describeMismatch(Got, Want);
  }
  return OS.str();
}

} // namespace detail

/// Runs one sequence applying exactly the change steps listed in \p Steps
/// (indices into [0, Opt.Changes), ascending). Returns "" on success or a
/// failure description. Exposed for replaying a shrunk failure by hand.
inline std::string runSequence(const ModelFactory &Make,
                               const HarnessOptions &Opt, uint64_t Seed,
                               const std::vector<int> &Steps) {
  Runtime RT(Opt.Config);
  std::unique_ptr<AppModel> Model = Make();
  {
    Rng SetupRng(gen::mixSeed(Seed, 0));
    Model->setup(RT, SetupRng);
  }
  if (std::string Err = detail::checkState(RT, *Model, "after setup", -1);
      !Err.empty())
    return Err;
  for (int Step : Steps) {
    Rng ChangeRng(gen::mixSeed(Seed, static_cast<uint64_t>(Step) + 1));
    Model->applyChange(RT, ChangeRng);
    RT.propagate();
    if (std::string Err =
            detail::checkState(RT, *Model, "after propagate", Step);
        !Err.empty())
      return Err;
  }
  if (Opt.SequenceCheck)
    if (std::string Err = Opt.SequenceCheck(RT); !Err.empty())
      return "sequence check: " + Err;
  return "";
}

namespace detail {

/// ddmin-style minimization: repeatedly drop chunks of steps while the
/// failure reproduces. Each candidate subset is a full fresh replay, which
/// per-step seed streams make faithful.
inline std::vector<int> shrinkSteps(const ModelFactory &Make,
                                    const HarnessOptions &Opt, uint64_t Seed,
                                    std::vector<int> Steps) {
  auto Fails = [&](const std::vector<int> &Subset) {
    return !runSequence(Make, Opt, Seed, Subset).empty();
  };
  size_t Chunk = Steps.size() / 2;
  while (Chunk > 0) {
    bool Removed = false;
    for (size_t Begin = 0; Begin + Chunk <= Steps.size();) {
      std::vector<int> Candidate;
      Candidate.reserve(Steps.size() - Chunk);
      Candidate.insert(Candidate.end(), Steps.begin(),
                       Steps.begin() + static_cast<ptrdiff_t>(Begin));
      Candidate.insert(Candidate.end(),
                       Steps.begin() + static_cast<ptrdiff_t>(Begin + Chunk),
                       Steps.end());
      if (Fails(Candidate)) {
        Steps = std::move(Candidate);
        Removed = true; // Retry the same Begin against the shorter list.
      } else {
        Begin += Chunk;
      }
    }
    if (!Removed || Chunk == 1)
      Chunk /= 2;
    else
      Chunk = std::min(Chunk, Steps.size() / 2);
    if (Chunk == 0 && Steps.size() > 1 && Removed)
      Chunk = 1;
  }
  return Steps;
}

} // namespace detail

/// Runs Opt.Sequences independent random change sequences. Returns "" if
/// every propagation matched the oracle and passed the audit; otherwise a
/// report with the sequence seed, the (shrunk) failing step list, and the
/// failure description — everything needed to replay via runSequence().
inline std::string runOracleHarness(const ModelFactory &Make,
                                    const HarnessOptions &Opt = {}) {
  for (int Seq = 0; Seq < Opt.Sequences; ++Seq) {
    uint64_t Seed = gen::mixSeed(Opt.BaseSeed, static_cast<uint64_t>(Seq));
    std::vector<int> Steps(static_cast<size_t>(Opt.Changes));
    for (int I = 0; I < Opt.Changes; ++I)
      Steps[static_cast<size_t>(I)] = I;
    std::string Err = runSequence(Make, Opt, Seed, Steps);
    if (Err.empty())
      continue;
    if (Opt.Shrink) {
      std::vector<int> Shrunk =
          detail::shrinkSteps(Make, Opt, Seed, Steps);
      Err = runSequence(Make, Opt, Seed, Shrunk);
      if (Err.empty()) // Unstable failure; fall back to the full set.
        Shrunk = Steps, Err = runSequence(Make, Opt, Seed, Steps);
      std::ostringstream OS;
      OS << "sequence " << Seq << " (" << gen::seedTag(Seed)
         << ") failed; minimal steps {";
      for (size_t I = 0; I < Shrunk.size(); ++I)
        OS << (I ? "," : "") << Shrunk[I];
      OS << "} of " << Opt.Changes << ": " << Err;
      return OS.str();
    }
    return "sequence " + std::to_string(Seq) + " (" + gen::seedTag(Seed) +
           ") failed: " + Err;
  }
  return "";
}

} // namespace harness
} // namespace ceal

#endif // CEAL_TESTS_SUPPORT_ORACLEHARNESS_H
