//===- tests/OracleHarnessTest.cpp - Full-app propagation oracle ----------===//
//
// The acceptance suite for change propagation: every benchmark app runs
// through 50 random change sequences with the trace sanitizer at
// every-propagation level, and after each propagation the self-adjusting
// output must match a from-scratch conventional recomputation word for
// word. Failures report the sequence seed, a shrunk step list and the
// reload cell.
//
// The other cells of the matrix: every app with the equality cut off;
// the list apps under the SaSML-style bounded heap, where propagation
// must still match the oracle when simulated collections fire
// mid-propagation and the out-of-memory path must leave the trace
// structurally sound; and every app with a checkpoint and reload between
// steps (SnapshotOracle), through both load paths.
//
//===----------------------------------------------------------------------===//

#include "tests/support/OracleModels.h"

#include <gtest/gtest.h>

#include <memory>

using namespace ceal;
using namespace ceal::harness;

namespace {

template <typename ModelT, typename... Args>
ModelFactory factory(Args... As) {
  return [=] { return std::make_unique<ModelT>(As...); };
}

} // namespace

//===----------------------------------------------------------------------===//
// All apps, audited at every propagation
//===----------------------------------------------------------------------===//

TEST(OracleHarness, ListPrimitives) {
  EXPECT_EQ(runOracleHarness(factory<ListModel>()), "");
}

TEST(OracleHarness, ExpTrees) {
  EXPECT_EQ(runOracleHarness(factory<ExpTreeModel>()), "");
}

TEST(OracleHarness, TreeContraction) {
  EXPECT_EQ(runOracleHarness(factory<TreeContractionModel>()), "");
}

TEST(OracleHarness, Quickhull) {
  EXPECT_EQ(runOracleHarness(factory<QuickhullModel>()), "");
}

TEST(OracleHarness, Diameter) {
  EXPECT_EQ(runOracleHarness(factory<DiameterModel>()), "");
}

TEST(OracleHarness, Distance) {
  EXPECT_EQ(runOracleHarness(factory<DistanceModel>()), "");
}

TEST(OracleHarnessEqualityCut, EveryAppWithTheCutOff) {
  // Every write re-dirties its readers, so propagation re-executes more
  // than it needs to, but must still end at the from-scratch result.
  HarnessOptions Opt;
  Opt.Sequences = 20;
  Opt.Config.DisableEqualityCut = true;
  for (const ModelFactory &Make :
       {factory<ListModel>(), factory<ExpTreeModel>(),
        factory<TreeContractionModel>(), factory<QuickhullModel>(),
        factory<DiameterModel>(), factory<DistanceModel>()})
    EXPECT_EQ(runOracleHarness(Make, Opt), "");
}

//===----------------------------------------------------------------------===//
// Construction fast path: multi-group append coverage
//===----------------------------------------------------------------------===//

TEST(OracleHarnessFastPath, LargeListsExerciseMultiGroupAppend) {
  // Lists long enough that one construction spans many order-maintenance
  // groups (GroupTarget members each), so the append-mode fresh-group
  // path and the bulk memo build run for real before the churn starts —
  // the default small-list sweeps mostly stay inside the first group.
  HarnessOptions Opt;
  Opt.Sequences = 10;
  EXPECT_EQ(runOracleHarness(factory<ListModel>(200, 256), Opt), "");
}

//===----------------------------------------------------------------------===//
// Propagation under simulated-GC heap pressure (SaSML-style config)
//===----------------------------------------------------------------------===//

namespace {

/// The SaSML comparator (closure traffic, padded nodes) over a bounded
/// collected heap, audited after every run and propagation: the
/// reclamation paths are where a trace or accounting bug would hide.
Runtime::Config pressureConfig(size_t HeapLimitBytes) {
  Runtime::Config C;
  C.SimulateSaSml = true;
  C.HeapLimitBytes = HeapLimitBytes;
  C.Audit = true;
  return C;
}

} // namespace

TEST(OracleHarnessPressure, MatchesBaselineWhenGcRunsMidPropagation) {
  HarnessOptions Opt;
  Opt.Sequences = 10;
  // Big lists + fat nodes so allocation outruns the headroom and the
  // simulated collector scans during setup and propagation.
  Opt.Config = pressureConfig(6u << 20);
  Opt.SequenceCheck = [](Runtime &RT) -> std::string {
    if (RT.stats().GcScans == 0)
      return "expected the simulated GC to run (raise list size or lower "
             "HeapLimitBytes)";
    if (RT.outOfMemory())
      return "heap limit too tight: hit out-of-memory in the GC suite";
    return "";
  };
  EXPECT_EQ(runOracleHarness(factory<ListModel>(56, 64), Opt), "");
}

TEST(OracleHarnessPressure, OutOfMemoryKeepsTraceSoundAndOutputsRight) {
  HarnessOptions Opt;
  Opt.Sequences = 10;
  // A limit below the live trace: the runtime must report out-of-memory,
  // and the audit run after every propagation shows the overflow did not
  // corrupt the trace (outputs stay correct because the simulation keeps
  // serving allocations past the limit).
  Opt.Config = pressureConfig(256u << 10);
  Opt.SequenceCheck = [](Runtime &RT) -> std::string {
    if (!RT.outOfMemory())
      return "expected the bounded heap to overflow";
    return "";
  };
  EXPECT_EQ(runOracleHarness(factory<ListModel>(56, 64), Opt), "");
}

//===----------------------------------------------------------------------===//
// Snapshot round trip: a checkpoint and reload between steps
//===----------------------------------------------------------------------===//

namespace {

/// Twelve sequences per app, six through each load path, each checking
/// the reloaded runtime's trace-shape digest and output after every step
/// against a continuous run's.
void reloads(const ModelFactory &Make) {
  HarnessOptions Opt;
  Opt.Sequences = 6;
  for (ReloadPath Path : {ReloadPath::Load, ReloadPath::Mmap}) {
    Opt.Reload = Path;
    Opt.BaseSeed = 0xcea15a9 + static_cast<uint64_t>(Path);
    EXPECT_EQ(runOracleHarness(Make, Opt), "");
  }
}

} // namespace

TEST(SnapshotOracle, ListPrimitives) { reloads(factory<ListModel>()); }
TEST(SnapshotOracle, ExpressionTrees) { reloads(factory<ExpTreeModel>()); }
TEST(SnapshotOracle, TreeContraction) {
  reloads(factory<TreeContractionModel>());
}
TEST(SnapshotOracle, Quickhull) { reloads(factory<QuickhullModel>()); }
TEST(SnapshotOracle, Diameter) { reloads(factory<DiameterModel>()); }
TEST(SnapshotOracle, Distance) { reloads(factory<DistanceModel>()); }
