//===- tests/FuzzTest.cpp - Parser fuzzing and heap-program properties ----===//
//
// Two robustness suites:
//
//  * Parser fuzzing: mutate valid CL sources at the character level and
//    splice random token soup; the parser must either succeed or report
//    a diagnostic — never crash — and anything it accepts must verify or
//    be rejected by the verifier without crashing either.
//
//  * Heap-program properties: random CL programs that allocate blocks,
//    store into them during initialization, and load from them later —
//    exercising alloc/store/index through NORMALIZE, the conventional
//    interpreter, the VM, and change propagation, as oracle-harness
//    sequences.
//
//===----------------------------------------------------------------------===//

#include "cl/Parser.h"
#include "cl/Printer.h"
#include "cl/Samples.h"
#include "cl/Verifier.h"
#include "support/Random.h"
#include "tests/support/Generators.h"
#include "tests/support/OracleModels.h"

#include <gtest/gtest.h>

using namespace ceal;
using namespace ceal::cl;

//===----------------------------------------------------------------------===//
// Parser fuzzing
//===----------------------------------------------------------------------===//

TEST(ParserFuzz, CharacterMutationsNeverCrash) {
  const uint64_t BaseSeed = 1234;
  std::string Base = samples::ListPrims;
  int Accepted = 0, Rejected = 0;
  for (uint64_t Trial = 0; Trial < 400; ++Trial) {
    // Per-trial stream: any failing trial replays alone from its seed.
    uint64_t Seed = gen::mixSeed(BaseSeed, Trial);
    Rng R(Seed);
    std::string Mutated = gen::mutateSource(R, Base);
    auto Result = parseProgram(Mutated);
    if (Result) {
      ++Accepted;
      // Whatever parses must be printable and verifiable without crashes.
      std::string Printed = printProgram(*Result.Prog);
      EXPECT_FALSE(Printed.empty()) << gen::seedTag(Seed);
      (void)verifyProgram(*Result.Prog);
    } else {
      ++Rejected;
      EXPECT_FALSE(Result.Error.empty()) << gen::seedTag(Seed);
    }
  }
  // Most mutations must be caught; a few survive harmlessly (e.g. edits
  // inside comments or label names).
  EXPECT_GT(Rejected, 200);
  EXPECT_GT(Accepted, 0);
}

TEST(ParserFuzz, RandomTokenSoupNeverCrashes) {
  const uint64_t BaseSeed = 99;
  for (uint64_t Trial = 0; Trial < 300; ++Trial) {
    uint64_t Seed = gen::mixSeed(BaseSeed, Trial);
    Rng R(Seed);
    std::string Soup = gen::tokenSoup(R);
    auto Result = parseProgram(Soup);
    if (!Result) {
      EXPECT_FALSE(Result.Error.empty()) << gen::seedTag(Seed);
    }
  }
}

//===----------------------------------------------------------------------===//
// Random heap programs (generator shared via tests/support/Generators.h)
//===----------------------------------------------------------------------===//

TEST(HeapProgramFuzz, NormalizationAndVmAgreeWithOracle) {
  // f0(4, 9, m0..m2) over inputs below 30; 80 programs, two edits each.
  harness::HarnessOptions Opt;
  Opt.Sequences = 80;
  Opt.Changes = 2;
  auto Make = [] {
    return std::make_unique<harness::ProgramModel>(
        &gen::randomHeapProgram, std::vector<Word>{4, 9}, 3, 30);
  };
  EXPECT_EQ(harness::runOracleHarness(Make, Opt), "");
}
