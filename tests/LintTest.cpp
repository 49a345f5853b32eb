//===- tests/LintTest.cpp - CEAL-specific lints on seeded defects ---------===//
//
// One purpose-built bad program per lint, each asserting the check slug,
// severity, and exact block location of the expected diagnostic — plus
// the other half of the contract: the shipped samples are clean (zero
// errors, zero warnings), so cl-lint can gate CI on them.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lints.h"
#include "cl/Parser.h"
#include "cl/Printer.h"
#include "cl/Samples.h"
#include "normalize/Normalize.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ceal;
using namespace ceal::analysis;
using namespace ceal::cl;

namespace {

Program parseOrDie(const std::string &Src) {
  auto R = parseProgram(Src);
  EXPECT_TRUE(R) << R.Error;
  return std::move(*R.Prog);
}

LintReport lint(const std::string &Src, LintOptions O = {}) {
  Program P = parseOrDie(Src);
  return runLints(P, O);
}

/// The diagnostics matching \p Check.
std::vector<Diagnostic> ofCheck(const LintReport &R, const std::string &Check) {
  std::vector<Diagnostic> Out;
  for (const Diagnostic &D : R.Diags)
    if (D.Check == Check)
      Out.push_back(D);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Seeded defects, one per lint
//===----------------------------------------------------------------------===//

TEST(Lint, VerifyErrorIsLocated) {
  // Reading a plain int variable is a verifier error; the diagnostic
  // must carry the function and the offending block.
  LintReport R = lint(R"(
func bad_verify(modref* m) {
  var int x; var int y;
  e: x := 1; goto r;
  r: y := read x; goto f;
  f: done;
}
)");
  auto Ds = ofCheck(R, "verify");
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Sev, Severity::Error);
  EXPECT_EQ(Ds[0].Function, 0u);
  EXPECT_EQ(Ds[0].Block, 1u); // Block 'r'.
  EXPECT_EQ(Ds[0].Index, 0u);
  EXPECT_NE(Ds[0].Message.find("read of non-modref*"), std::string::npos);
  EXPECT_EQ(R.errorCount(), 1u);
}

TEST(Lint, ReadNotTailRequiresNormalForm) {
  const char *Src = R"(
func bad_rnt(modref* m, modref* out) {
  var int x;
  r: x := read m; goto w;
  w: write(out, x); goto f;
  f: done;
}
)";
  // Without the flag the program is fine (reads may goto in source CL).
  EXPECT_EQ(lint(Src).errorCount(), 0u);
  LintOptions O;
  O.RequireNormalForm = true;
  LintReport R = lint(Src, O);
  auto Ds = ofCheck(R, "read-not-tail");
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Sev, Severity::Error);
  EXPECT_EQ(Ds[0].Block, 0u); // Block 'r'.
}

TEST(Lint, UseBeforeDef) {
  LintReport R = lint(R"(
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
  auto Ds = ofCheck(R, "use-before-def");
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Sev, Severity::Warning);
  EXPECT_EQ(Ds[0].Block, 4u); // Block 'w': x undefined via 'lb'.
  EXPECT_NE(Ds[0].Message.find("'x'"), std::string::npos);
}

TEST(Lint, RedundantRead) {
  LintReport R = lint(R"(
func bad_rr(modref* m, modref* out) {
  var int a; var int b; var int s;
  r1: a := read m; goto r2;
  r2: b := read m; goto ad;
  ad: s := add(a, b); goto w;
  w: write(out, s); goto f;
  f: done;
}
)");
  auto Ds = ofCheck(R, "redundant-read");
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Sev, Severity::Warning);
  EXPECT_EQ(Ds[0].Block, 1u); // Block 'r2', provided by 'r1'.
  EXPECT_NE(Ds[0].Message.find("block 'r1'"), std::string::npos);
}

TEST(Lint, DeadWrite) {
  LintReport R = lint(R"(
func bad_dw(modref* out) {
  var int a; var int b;
  e: a := 1; goto w1;
  w1: write(out, a); goto e2;
  e2: b := 2; goto w2;
  w2: write(out, b); goto f;
  f: done;
}
)");
  auto Ds = ofCheck(R, "dead-write");
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Sev, Severity::Warning);
  EXPECT_EQ(Ds[0].Block, 1u); // 'w1' is surely overwritten by 'w2'.
}

TEST(Lint, UnusedAlloc) {
  LintReport R = lint(R"(
func init0(int* blk) {
  f: done;
}
func bad_ua(modref* out) {
  var int* p; var int sz; var int z;
  e: sz := 4; goto al;
  al: p := alloc(sz, init0); goto z1;
  z1: z := 7; goto w;
  w: write(out, z); goto f;
  f: done;
}
)");
  auto Ds = ofCheck(R, "unused-alloc");
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Sev, Severity::Warning);
  EXPECT_EQ(Ds[0].Function, 1u); // bad_ua.
  EXPECT_EQ(Ds[0].Block, 1u);    // Block 'al'.
}

TEST(Lint, MemoKeyWrite) {
  LintReport R = lint(R"(
func bad_mkw(modref* m, modref* out) {
  var modref* k; var int v; var int r;
  e: v := 5; goto mk;
  mk: k := modref(m); goto w1;
  w1: write(m, v); goto rd;
  rd: r := read k; goto w2;
  w2: write(out, r); goto f;
  f: done;
}
)");
  auto Ds = ofCheck(R, "memo-key-write");
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Sev, Severity::Warning);
  EXPECT_EQ(Ds[0].Block, 2u); // 'w1' writes through an escaped key.
  EXPECT_NE(Ds[0].Message.find("'m'"), std::string::npos);
}

TEST(Lint, LoopHeaderLiveSet) {
  const char *Src = R"(
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
)";
  LintOptions O;
  O.LoopLiveThreshold = 2;
  LintReport R = lint(Src, O);
  auto Ds = ofCheck(R, "loop-live");
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(Ds[0].Sev, Severity::Warning);
  EXPECT_EQ(Ds[0].Block, 4u); // Header 'h'.
  EXPECT_NE(Ds[0].Message.find("ML(P)"), std::string::npos);
  // Above the default threshold the same program is quiet.
  EXPECT_TRUE(ofCheck(lint(Src), "loop-live").empty());
}

TEST(Lint, DeadCodeAndUnreachableNotes) {
  LintReport R = lint(R"(
func bad_notes(modref* out) {
  var int a; var int z;
  e: a := 1; goto w;
  w: write(out, a); goto f;
  f: done;
  orphan: z := 9; goto f;
}
)");
  auto Unreach = ofCheck(R, "unreachable");
  ASSERT_EQ(Unreach.size(), 1u);
  EXPECT_EQ(Unreach[0].Sev, Severity::Note);
  EXPECT_EQ(Unreach[0].Block, 3u); // 'orphan'.
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

TEST(Lint, RenderedDiagnosticIsSourceAnchored) {
  Program P = parseOrDie(R"(
func bad_rr(modref* m, modref* out) {
  var int a; var int b; var int s;
  r1: a := read m; goto r2;
  r2: b := read m; goto ad;
  ad: s := add(a, b); goto w;
  w: write(out, s); goto f;
  f: done;
}
)");
  LintReport R = runLints(P, {});
  auto Ds = ofCheck(R, "redundant-read");
  ASSERT_EQ(Ds.size(), 1u);
  std::string Text = renderDiagnostic(P, Ds[0]);
  EXPECT_NE(Text.find("warning[redundant-read]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("function 'bad_rr'"), std::string::npos) << Text;
  EXPECT_NE(Text.find("block 'r2'"), std::string::npos) << Text;
  EXPECT_NE(Text.find("b := read m"), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// The other half: shipped samples are clean
//===----------------------------------------------------------------------===//

TEST(Lint, ShippedSamplesAreClean) {
  for (const auto &[Name, Source] : samples::allPrograms()) {
    LintReport R = lint(Source);
    size_t Warnings = 0;
    for (const Diagnostic &D : R.Diags)
      if (D.Sev != Severity::Note)
        ++Warnings;
    EXPECT_EQ(R.errorCount(), 0u) << Name;
    EXPECT_EQ(Warnings, 0u) << Name;
  }
}

TEST(Lint, NormalizedSamplesPassNormalFormLint) {
  // After NORMALIZE every read tails, so the strict gate holds too.
  for (const auto &[Name, Source] : samples::allPrograms()) {
    Program P = parseOrDie(Source);
    Program Norm = ceal::normalize::normalizeProgram(P).Prog;
    LintOptions O;
    O.RequireNormalForm = true;
    LintReport R = runLints(Norm, O);
    EXPECT_TRUE(ofCheck(R, "read-not-tail").empty()) << Name;
    EXPECT_EQ(R.errorCount(), 0u) << Name;
  }
}
