//===- tests/LintTest.cpp - Checks that gate CL sources ------------------===//
//
// What a CL source must pass before translation, checked on seeded
// defects and on the shipped samples: the verifier's located errors and
// their source-anchored rendering, the normal-form predicate NORMALIZE
// establishes, and the block-graph facts the compiler relies on
// (reachability, live sets at loop headers and join points).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "cl/Parser.h"
#include "cl/Printer.h"
#include "cl/Samples.h"
#include "cl/Verifier.h"
#include "normalize/Normalize.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ceal;
using namespace ceal::analysis;
using namespace ceal::cl;

namespace {

Program parseOrDie(const std::string &Src) {
  auto R = parseProgram(Src);
  EXPECT_TRUE(R) << R.Error;
  return std::move(*R.Prog);
}

LivenessInfo liveness(const Function &F) {
  return computeLiveness(F, buildProgramGraph(F));
}

/// The names of the variables live at the start of \p B, in VarId order.
std::vector<std::string> liveNames(const Function &F, const LivenessInfo &L,
                                   BlockId B) {
  std::vector<std::string> Out;
  for (VarId V : L.liveAt(B))
    Out.push_back(F.Vars[V].Name);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Verifier errors, located and rendered
//===----------------------------------------------------------------------===//

TEST(Lint, VerifyErrorIsLocated) {
  // Reading a plain int variable is a verifier error; the diagnostic
  // must carry the function and the offending block.
  Program P = parseOrDie(R"(
func bad_verify(modref* m) {
  var int x; var int y;
  e: x := 1; goto r;
  r: y := read x; goto f;
  f: done;
}
)");
  std::vector<Diagnostic> Ds = verifyProgramDiags(P);
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Function, 0u);
  EXPECT_EQ(Ds[0].Block, 1u); // Block 'r'.
  EXPECT_EQ(Ds[0].Index, 0u);
  EXPECT_NE(Ds[0].Message.find("read of non-modref*"), std::string::npos);
}

TEST(Lint, RenderedDiagnosticIsSourceAnchored) {
  Program P = parseOrDie(R"(
func bad_arity(int x) {
  var int y;
  e: y := add(x, x); goto t;
  t: call bad_arity(x, y); goto f;
  f: done;
}
)");
  std::vector<Diagnostic> Ds = verifyProgramDiags(P);
  ASSERT_EQ(Ds.size(), 1u);
  std::string Text = renderDiagnostic(P, Ds[0]);
  EXPECT_EQ(Text.rfind("error: ", 0), 0u) << Text;
  EXPECT_NE(Text.find("function 'bad_arity'"), std::string::npos) << Text;
  EXPECT_NE(Text.find("block 't'"), std::string::npos) << Text;
  EXPECT_NE(Text.find("passes 2 arguments"), std::string::npos) << Text;
  EXPECT_NE(Text.find("call bad_arity(x, y)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("[at the command]"), std::string::npos) << Text;
  EXPECT_EQ(renderDiagnostics(P, Ds), Text);
}

//===----------------------------------------------------------------------===//
// Normal form (Sec. 5: every read is followed by a tail jump)
//===----------------------------------------------------------------------===//

TEST(Lint, ReadNotTailRequiresNormalForm) {
  Program P = parseOrDie(R"(
func bad_rnt(modref* m, modref* out) {
  var int x;
  r: x := read m; goto w;
  w: write(out, x); goto f;
  f: done;
}
)");
  // A read may goto in source CL: the program verifies, but it is not in
  // the normal form translation and the VM need until NORMALIZE runs.
  EXPECT_TRUE(verifyProgramDiags(P).empty());
  EXPECT_FALSE(isNormalForm(P));
  Program Norm = normalize::normalizeProgram(P).Prog;
  EXPECT_TRUE(isNormalForm(Norm));
  EXPECT_TRUE(verifyProgramDiags(Norm).empty());
}

//===----------------------------------------------------------------------===//
// Block-graph facts
//===----------------------------------------------------------------------===//

TEST(Lint, UseBeforeDef) {
  // 'x' is defined on the 'la' arm only, so it is live into 'lb' and,
  // through it, into the entry block: a non-parameter variable live at
  // entry may be read before any definition.
  Program P = parseOrDie(R"(
func bad_ubd(modref* out) {
  var int x; var int y; var int c;
  e: c := 0; goto br;
  br: if c then goto la else goto lb;
  la: x := 1; goto w;
  lb: y := 2; goto w;
  w: write(out, x); goto f;
  f: done;
}
)");
  const Function &F = P.Funcs[0];
  LivenessInfo L = liveness(F);
  using Names = std::vector<std::string>;
  EXPECT_EQ(liveNames(F, L, 0), (Names{"out", "x"})); // Block 'e'.
  EXPECT_EQ(liveNames(F, L, 2), (Names{"out"}));      // Block 'la'.
  EXPECT_EQ(liveNames(F, L, 3), (Names{"out", "x"})); // Block 'lb'.
  EXPECT_EQ(liveNames(F, L, 4), (Names{"out", "x"})); // Block 'w'.
}

TEST(Lint, LoopHeaderLiveSet) {
  // Every trace node in a loop carries the variables live at its header
  // as closure words; here that is everything but the condition 'c'.
  Program P = parseOrDie(R"(
func bad_ll(modref* out) {
  var int i; var int a; var int b; var int n; var int c;
  e: i := 0; goto e2;
  e2: a := 1; goto e3;
  e3: b := 2; goto e4;
  e4: n := 10; goto h;
  h: c := lt(i, n); goto br;
  br: if c then goto body else goto x;
  body: i := add(i, a); goto h;
  x: write(out, b); goto f;
  f: done;
}
)");
  const Function &F = P.Funcs[0];
  ProgramGraph G = buildProgramGraph(F);
  // 'h' <- 'e4', 'body'.
  EXPECT_EQ(G.Preds[ProgramGraph::blockNode(4)],
            (std::vector<uint32_t>{ProgramGraph::blockNode(3),
                                   ProgramGraph::blockNode(6)}));
  LivenessInfo L = computeLiveness(F, G);
  using Names = std::vector<std::string>;
  EXPECT_EQ(liveNames(F, L, 4), (Names{"out", "i", "a", "b", "n"}));
  EXPECT_EQ(L.LiveIn[4].count(), 5u);
  EXPECT_EQ(L.maxLive(), 6u); // 'br' also holds 'c'.
}

TEST(Lint, DeadCodeAndUnreachableNotes) {
  Program P = parseOrDie(R"(
func bad_notes(modref* out) {
  var int a; var int z;
  e: a := 1; goto w;
  w: write(out, a); goto f;
  f: done;
  orphan: z := 9; goto f;
}
)");
  // Blocks unreachable from the function node get no dominator.
  ProgramGraph G = buildProgramGraph(P.Funcs[0]);
  std::vector<uint32_t> Idom = computeDominators(G);
  for (BlockId B = 0; B < 4; ++B)
    EXPECT_EQ(Idom[ProgramGraph::blockNode(B)] != InvalidNode, B != 3)
        << "block " << B;
  // The orphan's assignment is dead as well: 'z' is live nowhere.
  LivenessInfo L = computeLiveness(P.Funcs[0], G);
  for (BlockId B = 0; B < 4; ++B)
    EXPECT_FALSE(L.LiveIn[B].test(2)) << "block " << B; // 'z'.
}

//===----------------------------------------------------------------------===//
// The shipped samples pass every gate
//===----------------------------------------------------------------------===//

TEST(Lint, ShippedSamplesAreClean) {
  for (const auto &[Name, Source] : samples::allPrograms()) {
    Program P = parseOrDie(Source);
    std::vector<Diagnostic> Ds = verifyProgramDiags(P);
    EXPECT_TRUE(Ds.empty()) << Name << ":\n" << renderDiagnostics(P, Ds);
  }
}

TEST(Lint, NormalizedSamplesPassNormalFormLint) {
  // After NORMALIZE every read tails, so the strict gate holds too.
  for (const auto &[Name, Source] : samples::allPrograms()) {
    Program Norm = normalize::normalizeProgram(parseOrDie(Source)).Prog;
    EXPECT_TRUE(isNormalForm(Norm)) << Name;
    std::vector<Diagnostic> Ds = verifyProgramDiags(Norm);
    EXPECT_TRUE(Ds.empty()) << Name << ":\n" << renderDiagnostics(Norm, Ds);
  }
}
