//===- tests/OracleHarnessSelfTest.cpp - The harness on a planted fault ---===//
//
// The oracle harness checks everything else; this checks the harness. A
// model whose oracle goes wrong once two particular steps have both run
// must come back as a report naming the failing sequence's seed, exactly
// those two steps and the reload cell, and the replay the report names
// must reproduce the failure.
//
//===----------------------------------------------------------------------===//

#include "tests/support/OracleHarness.h"

#include <gtest/gtest.h>

using namespace ceal;
using namespace ceal::harness;

namespace {

/// Each change writes its stream's first draw to one modifiable;
/// expected() is off by one once the draws MarkA and MarkB have both run.
class PlantedFaultModel : public AppModel {
public:
  PlantedFaultModel(uint64_t MarkA, uint64_t MarkB)
      : MarkA(MarkA), MarkB(MarkB) {}
  void setup(Runtime &RT, Rng &) override { Cell = RT.modref(Word(0)); }
  void applyChange(Runtime &RT, Rng &R) override {
    Last = R.next();
    SeenA |= Last == MarkA;
    SeenB |= Last == MarkB;
    RT.modify(Cell, Last);
  }
  std::vector<Word> output(Runtime &RT) override { return {RT.deref(Cell)}; }
  std::vector<Word> expected(Runtime &) override {
    return {Last + (SeenA && SeenB)};
  }
  std::unique_ptr<AppModel> clone() const override {
    return std::make_unique<PlantedFaultModel>(*this);
  }

private:
  uint64_t MarkA, MarkB, Last = 0;
  bool SeenA = false, SeenB = false;
  Modref *Cell = nullptr;
};

} // namespace

TEST(OracleHarnessSelfTest, ShrinksAPlantedFaultAndReplaysIt) {
  for (ReloadPath Path :
       {ReloadPath::None, ReloadPath::Load, ReloadPath::Mmap}) {
    HarnessOptions Opt;
    Opt.Sequences = 3;
    Opt.Reload = Path;
    // Plant the fault in sequence 1's steps 2 and 5 through the seeding
    // contract: step k of a sequence draws from mixSeed(Seed, k + 1).
    const uint64_t Seed = gen::mixSeed(Opt.BaseSeed, 1);
    auto Mark = [&](uint64_t Step) {
      return Rng(gen::mixSeed(Seed, Step + 1)).next();
    };
    ModelFactory Make = [A = Mark(2), B = Mark(5)] {
      return std::make_unique<PlantedFaultModel>(A, B);
    };
    // Sequence 1 splits mid-sequence, and so does its shrunk replay.
    const size_t Split = Path == ReloadPath::None ? 0 : 1;
    const char *Cell[] = {"none", "load@1", "mmap@1"};
    std::string Report = runOracleHarness(Make, Opt);
    std::string Err = runSequence(Make, Opt, Seed, {2, 5}, Split);
    EXPECT_FALSE(Err.empty());
    EXPECT_EQ(Report, "sequence 1 failed: " + gen::seedTag(Seed) +
                          " steps={2,5} reload=" + Cell[int(Path)] + ": " +
                          Err + "\n  replay: runSequence(Make, Opt, " +
                          gen::seedTag(Seed).substr(5) + ", {2,5}, " +
                          std::to_string(Split) + ")");
    // Neither planted step fails without the other.
    EXPECT_EQ(runSequence(Make, Opt, Seed, {2}, Split), "");
    EXPECT_EQ(runSequence(Make, Opt, Seed, {0, 1, 3, 4, 5, 6, 7}, Split), "");
  }
}
