//===- tests/support/SnapshotHarness.h - Snapshot round-trip oracle -*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot round-trip oracle: for any AppModel, compare a runtime
/// that was checkpointed, destroyed, and reloaded from disk against one
/// that ran continuously.
///
/// Phase A runs the whole edit sequence in one runtime, recording the
/// trace-shape digest and output after setup and after every step. Phase
/// B replays the same seeded sequence in a second runtime up to a split
/// point, checkpoints, *destroys the runtime* (freeing its address
/// space), restores the checkpoint into a third runtime (copying load or
/// mmap warm start), and finishes the remaining steps there — asserting
/// at every point that the digest and output match phase A's records and
/// the model's conventional expectation.
///
/// The model crosses the checkpoint by clone(): mutator state is
/// memberwise-copyable and its raw arena pointers stay valid because the
/// loader claims the exact region bases the saver recorded.
///
/// Seeding mirrors OracleHarness (setup = stream 0, step k = stream
/// k + 1), so the same ddmin shrinker applies to failing step lists.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_TESTS_SUPPORT_SNAPSHOTHARNESS_H
#define CEAL_TESTS_SUPPORT_SNAPSHOTHARNESS_H

#include "runtime/Snapshot.h"
#include "tests/support/OracleHarness.h"

#include <algorithm>
#include <cstdio>
#include <unistd.h>

namespace ceal {
namespace harness {

/// A mkstemp-backed file deleted on scope exit.
struct TempFile {
  std::string Path;
  TempFile() {
    char Buf[] = "/tmp/ceal-snapshot-XXXXXX";
    int Fd = ::mkstemp(Buf);
    if (Fd >= 0)
      ::close(Fd);
    Path = Buf;
  }
  ~TempFile() { ::unlink(Path.c_str()); }
  TempFile(const TempFile &) = delete;
  TempFile &operator=(const TempFile &) = delete;
};

struct SnapshotHarnessOptions {
  /// Independent seeded sequences; each rotates the split point and the
  /// load path.
  int Sequences = 12;
  /// Change+propagate steps per sequence.
  int Changes = 8;
  uint64_t BaseSeed = 0xcea15a9;
  Runtime::Config Config = auditedConfig();
  bool Shrink = true;
};

/// Output words may be arena pointers (quickhull's hull is a list of
/// Point *s), which differ between two runtimes at different region
/// bases even when the results agree. For cross-runtime comparison,
/// re-encode each word as a (was-in-region, offset-or-raw) pair — the
/// same normalization the trace-shape digest applies.
inline std::vector<Word> normalizedOutput(Runtime &RT, AppModel &M) {
  const uint64_t Base =
      reinterpret_cast<uint64_t>(RT.arena().regionBase());
  const uint64_t Size = RT.arena().regionBytes();
  std::vector<Word> Raw = M.output(RT), Out;
  Out.reserve(Raw.size() * 2);
  for (Word W : Raw) {
    bool InRegion = W >= Base && W - Base < Size;
    Out.push_back(InRegion ? 1 : 0);
    Out.push_back(InRegion ? W - Base : W);
  }
  return Out;
}

/// Runs one checkpoint/restore sequence: steps [0, SplitAt) before the
/// checkpoint, the rest after the reload. Returns "" on success.
inline std::string runSnapshotSequence(const ModelFactory &Make,
                                       const SnapshotHarnessOptions &Opt,
                                       uint64_t Seed,
                                       const std::vector<int> &Steps,
                                       size_t SplitAt, bool UseMmap) {
  SplitAt = std::min(SplitAt, Steps.size());

  // Phase A: the continuously-running oracle. Record digest + output at
  // every point (index 0 = after setup, k + 1 = after step k).
  std::vector<uint64_t> Digests;
  std::vector<std::vector<Word>> Outputs;
  Runtime OracleRT(Opt.Config);
  std::unique_ptr<AppModel> Oracle = Make();
  {
    Rng SetupRng(gen::mixSeed(Seed, 0));
    Oracle->setup(OracleRT, SetupRng);
  }
  if (std::string Err = detail::checkState(OracleRT, *Oracle,
                                           "oracle after setup", -1);
      !Err.empty())
    return Err;
  Digests.push_back(Snapshot::traceShapeDigest(OracleRT));
  Outputs.push_back(normalizedOutput(OracleRT, *Oracle));
  for (int Step : Steps) {
    Rng ChangeRng(gen::mixSeed(Seed, static_cast<uint64_t>(Step) + 1));
    Oracle->applyChange(OracleRT, ChangeRng);
    OracleRT.propagate();
    if (std::string Err = detail::checkState(OracleRT, *Oracle,
                                             "oracle after propagate", Step);
        !Err.empty())
      return Err;
    Digests.push_back(Snapshot::traceShapeDigest(OracleRT));
    Outputs.push_back(normalizedOutput(OracleRT, *Oracle));
  }

  // Phase B: replay to the split point, checkpoint, destroy the runtime.
  TempFile Tmp;
  std::unique_ptr<AppModel> Resumed;
  uint64_t SaveDigest = 0;
  {
    Runtime SaveRT(Opt.Config);
    std::unique_ptr<AppModel> Model = Make();
    {
      Rng SetupRng(gen::mixSeed(Seed, 0));
      Model->setup(SaveRT, SetupRng);
    }
    if (Snapshot::traceShapeDigest(SaveRT) != Digests[0])
      return "replay diverged from the oracle at setup (nondeterministic "
             "model?)";
    for (size_t K = 0; K < SplitAt; ++K) {
      int Step = Steps[K];
      Rng ChangeRng(gen::mixSeed(Seed, static_cast<uint64_t>(Step) + 1));
      Model->applyChange(SaveRT, ChangeRng);
      SaveRT.propagate();
      if (Snapshot::traceShapeDigest(SaveRT) != Digests[K + 1])
        return "replay diverged from the oracle at step " +
               std::to_string(Step);
    }
    std::string Why;
    if (!SaveRT.readyForCheckpoint(&Why))
      return "runtime not checkpointable at the split point: " + Why;
    Snapshot::SaveResult SR = Snapshot::save(SaveRT, Tmp.Path);
    if (!SR.ok())
      return std::string("save failed: ") + Snapshot::statusName(SR.St) +
             ": " + SR.Diagnostic;
    SaveDigest = Snapshot::traceShapeDigest(SaveRT);
    Resumed = Model->clone();
    if (!Resumed)
      return "model does not implement clone()";
  } // SaveRT destroyed: its region bases are free for the loader to claim.

  // Phase C: restore into a fresh runtime and finish the sequence there.
  Runtime LoadRT(Opt.Config);
  Snapshot::LoadResult LR = UseMmap ? Snapshot::mmapWarmStart(LoadRT, Tmp.Path)
                                    : Snapshot::load(LoadRT, Tmp.Path);
  if (!LR.ok())
    return std::string(UseMmap ? "mmapWarmStart" : "load") +
           " failed: " + Snapshot::statusName(LR.St) + ": " + LR.Diagnostic;
  if (Snapshot::traceShapeDigest(LoadRT) != SaveDigest)
    return "round-trip digest mismatch: the reloaded trace's shape differs "
           "from the saved one";
  if (normalizedOutput(LoadRT, *Resumed) != Outputs[SplitAt])
    return "restored output differs from the oracle's at the split point";
  for (size_t K = SplitAt; K < Steps.size(); ++K) {
    int Step = Steps[K];
    Rng ChangeRng(gen::mixSeed(Seed, static_cast<uint64_t>(Step) + 1));
    Resumed->applyChange(LoadRT, ChangeRng);
    LoadRT.propagate();
    if (std::string Err = detail::checkState(LoadRT, *Resumed,
                                             "after reload propagate", Step);
        !Err.empty())
      return Err;
    if (Snapshot::traceShapeDigest(LoadRT) != Digests[K + 1])
      return "trace-shape divergence vs the continuous oracle after reload, "
             "step " +
             std::to_string(Step);
    if (normalizedOutput(LoadRT, *Resumed) != Outputs[K + 1])
      return "output divergence vs the continuous oracle after reload, "
             "step " +
             std::to_string(Step);
  }
  return "";
}

namespace detail {

/// ddmin over the step list, holding SplitAt's *relative* position: the
/// split index is clamped, so shrinking keeps a checkpoint in the middle
/// of the surviving steps.
inline std::vector<int>
shrinkSnapshotSteps(const ModelFactory &Make, const SnapshotHarnessOptions &Opt,
                    uint64_t Seed, std::vector<int> Steps, size_t SplitAt,
                    bool UseMmap) {
  double Frac =
      Steps.empty() ? 0.0 : double(SplitAt) / double(Steps.size());
  auto Fails = [&](const std::vector<int> &Subset) {
    size_t Split = static_cast<size_t>(Frac * double(Subset.size()) + 0.5);
    return !runSnapshotSequence(Make, Opt, Seed, Subset, Split, UseMmap)
                .empty();
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
        Removed = true;
      } else {
        Begin += Chunk;
      }
    }
    Chunk = (!Removed || Chunk == 1) ? Chunk / 2
                                     : std::min(Chunk, Steps.size() / 2);
  }
  return Steps;
}

} // namespace detail

/// Runs Opt.Sequences independent sequences, rotating the split point
/// (checkpoint right after setup / mid-sequence / after the last step)
/// and the load path (copying load / mmap warm start). Returns "" if
/// every round trip matched, else a replayable report.
inline std::string runSnapshotHarness(const ModelFactory &Make,
                                      const SnapshotHarnessOptions &Opt = {}) {
  for (int Seq = 0; Seq < Opt.Sequences; ++Seq) {
    uint64_t Seed = gen::mixSeed(Opt.BaseSeed, static_cast<uint64_t>(Seq));
    std::vector<int> Steps(static_cast<size_t>(Opt.Changes));
    for (int I = 0; I < Opt.Changes; ++I)
      Steps[static_cast<size_t>(I)] = I;
    size_t SplitAt = Seq % 3 == 0   ? 0
                     : Seq % 3 == 1 ? Steps.size() / 2
                                    : Steps.size();
    bool UseMmap = (Seq & 1) != 0;
    std::string Err = runSnapshotSequence(Make, Opt, Seed, Steps, SplitAt,
                                          UseMmap);
    if (Err.empty())
      continue;
    std::ostringstream OS;
    OS << "sequence " << Seq << " (" << gen::seedTag(Seed) << ", split "
       << SplitAt << "/" << Steps.size() << ", "
       << (UseMmap ? "mmap" : "copy") << ")";
    if (Opt.Shrink) {
      std::vector<int> Shrunk = detail::shrinkSnapshotSteps(
          Make, Opt, Seed, Steps, SplitAt, UseMmap);
      size_t Split = Steps.empty()
                         ? 0
                         : static_cast<size_t>(double(SplitAt) /
                                                   double(Steps.size()) *
                                                   double(Shrunk.size()) +
                                               0.5);
      std::string ShrunkErr =
          runSnapshotSequence(Make, Opt, Seed, Shrunk, Split, UseMmap);
      if (!ShrunkErr.empty()) {
        OS << " failed; minimal steps {";
        for (size_t I = 0; I < Shrunk.size(); ++I)
          OS << (I ? "," : "") << Shrunk[I];
        OS << "} split " << Split << ": " << ShrunkErr;
        return OS.str();
      }
    }
    OS << " failed: " << Err;
    return OS.str();
  }
  return "";
}

} // namespace harness
} // namespace ceal

#endif // CEAL_TESTS_SUPPORT_SNAPSHOTHARNESS_H
