//===- perfbench/Workload.h - One benchmark workload -----------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface between the round driver (main.cpp) and a workload. A
/// workload builds its inputs and mutator structures, runs its core, and
/// applies edits; the driver owns the Runtime and times every call from
/// outside. Updates come in pairs: update 2p detaches the positions of
/// pair p and update 2p+1 reattaches them, so the input is back to its
/// original shape after every even number of updates.
///
//===----------------------------------------------------------------------===//

#ifndef CEALBENCH_WORKLOAD_H
#define CEALBENCH_WORKLOAD_H

#include "SpanTrace.h"

#include "cl/Ir.h"
#include "runtime/Runtime.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cealbench {

using ceal::Runtime;
using ceal::Word;

/// A per-layer number of a traced round, in the metric's unit.
struct LayerSample {
  std::string Name;
  double Value;
};

/// Output checks against the references, counted for `failed_frac`.
struct Checks {
  uint64_t Attempted = 0, Failed = 0;
  /// Self-test hook: corrupt the first output compared.
  bool InjectWrong = false;

  void count(bool Ok, const std::string &What);
  /// Compares an output with its reference (after the injection, if
  /// armed) and counts the check.
  void compare(std::vector<Word> Actual, const std::vector<Word> &Expected,
               const std::string &What);
};

/// What the compile step of a round hands to the workloads.
struct CompileOutput {
  /// The listprims sample as parsed, and after runPassPipeline.
  ceal::cl::Program ListPrimsSource, ListPrimsCompiled;
};

/// Compiles the CL samples (parse, runPassPipeline, normalizeProgram,
/// emitC), one span per call, and returns the listprims programs.
/// \p Layers receives the cl/normalize/translate numbers.
CompileOutput compileSamples(SpanTrace &Spans, Checks &C,
                             std::vector<LayerSample> &Layers);

class Workload {
public:
  virtual ~Workload() = default;

  virtual const char *name() const = 0;
  /// Input size n.
  virtual size_t size() const = 0;
  /// Updates per round U (even).
  virtual size_t updates() const = 0;

  /// Receives the round's compiled samples before set-up.
  virtual void compiled(CompileOutput &) {}
  /// Set-up: generates the inputs from \p Seed and builds the mutator's
  /// input structures in the fresh \p RT.
  virtual void setup(Runtime &RT, uint64_t Seed) = 0;
  /// Runs the core from scratch.
  virtual void run(Runtime &RT) = 0;
  /// The mutator's edit calls of update \p K (no propagate).
  virtual void edit(Runtime &RT, size_t K) = 0;
  /// The update index of the restart's first update.
  virtual size_t restartUpdate() const = 0;
  /// The core's current output, read through the meta interface.
  virtual std::vector<Word> output(Runtime &RT) = 0;
  /// The conventional reference output on the current input.
  virtual std::vector<Word> reference() = 0;
  /// Milliseconds of one conventional from-scratch run on the original
  /// input (the paper's "Cnv." column).
  virtual double convMs() = 0;

  /// Checkpoint roots (mutator handles into the runtime arena) and their
  /// re-binding after a warm start.
  virtual std::vector<const void *> roots() const { return {}; }
  virtual void rebind(const std::vector<void *> &) {}

  /// Workload-specific per-layer numbers of a traced round.
  virtual std::vector<LayerSample> layerSamples() { return {}; }
};

/// Positions edited by the update pairs; pair p touches Width positions
/// spaced n / Width apart. The pairs' first positions are a stratified
/// sample of [0, n / Width): one uniform draw in each of Pairs equal
/// strata, visited in a seeded random order. Every edited position is
/// thus uniform over the input, while a round covers the input evenly
/// instead of by chance; with Pairs == n / Width a round edits every
/// position exactly once. One extra pair, at the middle of the input,
/// is the restart update's (restartUpdate()).
struct EditPlan {
  size_t Width = 1;
  std::vector<size_t> Pos; ///< (Pairs + 1) * Width positions, pair-major.

  EditPlan() = default;
  EditPlan(size_t N, size_t Pairs, size_t Width, uint64_t Seed);
  size_t pairs() const { return Pos.size() / Width; }
  const size_t *pair(size_t P) const { return &Pos[(P % pairs()) * Width]; }
  /// The update index whose edit detaches the extra pair.
  size_t restartUpdate() const { return 2 * (pairs() - 1); }
};

std::unique_ptr<Workload> makeMapEdit();
std::unique_ptr<Workload> makeQuicksortEdit();
std::unique_ptr<Workload> makeQuickhullBatch();
std::unique_ptr<Workload> makeClVm();

} // namespace cealbench

#endif // CEALBENCH_WORKLOAD_H
