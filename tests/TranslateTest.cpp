//===- tests/TranslateTest.cpp - CL -> C translation tests ----------------===//

#include "cl/Parser.h"
#include "cl/Printer.h"
#include "cl/Samples.h"
#include "normalize/Normalize.h"
#include "translate/EmitC.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace ceal;
using namespace ceal::cl;
using namespace ceal::normalize;
using namespace ceal::translate;

namespace {

Program normalizedSample(const char *Source) {
  auto R = parseProgram(Source);
  EXPECT_TRUE(R) << R.Error;
  return normalizeProgram(*R.Prog).Prog;
}

/// Runs `gcc -fsyntax-only` on the emitted C; returns the exit status.
int syntaxCheck(const std::string &Code, const std::string &Tag) {
  std::string Path = "/tmp/ceal_emit_" + Tag + ".c";
  std::ofstream(Path) << Code;
  std::string Cmd = "gcc -std=gnu11 -fsyntax-only " + Path + " 2>/tmp/ceal_emit_" +
                    Tag + ".log";
  return std::system(Cmd.c_str());
}

} // namespace

TEST(EmitC, RefinedOutputIsValidC) {
  for (const auto &[Name, Source] : samples::allPrograms()) {
    Program P = normalizedSample(Source.c_str());
    EmitResult R = emitC(P, Mode::Refined);
    EXPECT_GT(R.EmittedBytes, 500u) << Name;
    EXPECT_EQ(syntaxCheck(R.Code, Name + "_refined"), 0)
        << Name << ": emitted C does not compile";
  }
}

TEST(EmitC, BasicOutputIsValidC) {
  for (const auto &[Name, Source] : samples::allPrograms()) {
    Program P = normalizedSample(Source.c_str());
    EmitResult R = emitC(P, Mode::Basic);
    EXPECT_EQ(syntaxCheck(R.Code, Name + "_basic"), 0)
        << Name << ": emitted C does not compile";
  }
}

TEST(EmitC, RefinedTailsAreDirectCalls) {
  Program P = normalizedSample(samples::ListPrims);
  EmitResult Refined = emitC(P, Mode::Refined);
  EmitResult Basic = emitC(P, Mode::Basic);
  // The refined translation replaces `return closure_make_f(...)` with
  // `return f_f(...)` on non-read tails, so it needs strictly fewer
  // monomorphized makers and emits `return f_...` direct calls.
  EXPECT_LT(Refined.MonomorphInstances, Basic.MonomorphInstances);
  EXPECT_NE(Refined.Code.find("return f_"), std::string::npos);
  // Reads still go through closures in both modes.
  EXPECT_NE(Refined.Code.find("modref_read("), std::string::npos);
  EXPECT_NE(Basic.Code.find("modref_read("), std::string::npos);
}

TEST(EmitC, ReadsUseSubstitutionPlaceholder) {
  Program P = normalizedSample(samples::ExpTrees);
  EmitResult R = emitC(P, Mode::Refined);
  // Every read emits a closure whose read-destination slot is the
  // substitution placeholder.
  EXPECT_NE(R.Code.find("/*subst*/0"), std::string::npos);
  EXPECT_NE(R.Code.find("allocate(sizeof(modref_t)"), std::string::npos);
}

TEST(EmitC, SizeWithinTheorem5Bound) {
  // Theorem 5: the generated C is O(m + n * ML(P)) words. Check a
  // generous concrete constant over all samples (chars as word proxy).
  for (const auto &[Name, Source] : samples::allPrograms()) {
    auto Parsed = parseProgram(Source);
    ASSERT_TRUE(Parsed) << Parsed.Error;
    NormalizeResult N = normalizeProgram(*Parsed.Prog);
    EmitResult R = emitC(N.Prog, Mode::Refined);
    size_t WordBound =
        N.Stats.InputWords +
        (N.Stats.InputBlocks + Parsed.Prog->Funcs.size() + 4) *
            (2 * N.Stats.MaxLive + 10);
    // ~24 characters per emitted word is ample for this C dialect.
    EXPECT_LT(R.EmittedBytes, WordBound * 24) << Name;
  }
}

TEST(EmitC, PassthroughPrintsOriginal) {
  auto Parsed = parseProgram(samples::ExpTrees);
  ASSERT_TRUE(Parsed) << Parsed.Error;
  EmitResult R = emitPassthrough(*Parsed.Prog);
  EXPECT_NE(R.Code.find("func eval"), std::string::npos);
  EXPECT_EQ(R.MonomorphInstances, 0u);
}

TEST(EmitC, CompilationTimeScalesNearLinearly) {
  // Fig. 15's property in miniature: pipeline time grows with output
  // size, without a superlinear blowup. We only check the ratio here;
  // bench/fig15 measures the curve.
  auto Small = parseProgram(samples::ExpTrees);
  auto Large = parseProgram(samples::allPrograms().back().second);
  ASSERT_TRUE(Small);
  ASSERT_TRUE(Large);
  EmitResult RS = emitC(normalizeProgram(*Small.Prog).Prog, Mode::Refined);
  EmitResult RL = emitC(normalizeProgram(*Large.Prog).Prog, Mode::Refined);
  EXPECT_GT(RL.EmittedBytes, 3 * RS.EmittedBytes);
}

//===----------------------------------------------------------------------===//
// The RTS shim's arity limit
//===----------------------------------------------------------------------===//

namespace {

/// "<Type><Prefix>0, ..., <Type><Prefix>{N-1}"; \p Type is empty for
/// argument lists.
std::string commaList(const char *Type, const char *Prefix, size_t N) {
  std::string S;
  for (size_t I = 0; I < N; ++I) {
    if (I)
      S += ", ";
    S += Type;
    S += Prefix;
    S += std::to_string(I);
  }
  return S;
}

/// A function of \p Params int parameters and an empty body.
std::string wideProgram(size_t Params) {
  std::string P = "func wide(";
  P += commaList("int ", "a", Params);
  P += ") {\n  b0: done;\n}\n";
  return P;
}

/// A function of \p Params int parameters and one modref keyed on the
/// first \p Keys of them.
std::string keyedProgram(size_t Params, size_t Keys) {
  std::string P = "func keyed(";
  P += commaList("int ", "k", Params);
  P += ") {\n  var modref* r;\n  m0: r := modref(";
  P += commaList("", "k", Keys);
  P += "); goto m1;\n  m1: done;\n}\n";
  return P;
}

/// Twelve locals live across a read: the source function has two
/// parameters, the lifted read body fourteen (the read value, the
/// twelve locals and the output modref).
std::string liftedWideProgram() {
  std::ostringstream P;
  P << "func lifted(modref* m, modref* out) {\n  var int x; var int s;";
  for (int I = 0; I < 12; ++I)
    P << " var int v" << I << ";";
  P << "\n";
  for (int I = 0; I < 12; ++I) {
    P << "  d" << I << ": v" << I << " := " << I << "; goto ";
    if (I + 1 < 12)
      P << "d" << I + 1 << ";\n";
    else
      P << "rd;\n";
  }
  P << "  rd: x := read m; goto a0;\n";
  P << "  a0: s := add(x, v0); goto a1;\n";
  for (int I = 1; I < 12; ++I) {
    P << "  a" << I << ": s := add(s, v" << I << "); goto ";
    if (I + 1 < 12)
      P << "a" << I + 1 << ";\n";
    else
      P << "wr;\n";
  }
  P << "  wr: write(out, s); goto e;\n  e: done;\n}\n";
  return P.str();
}

} // namespace

TEST(ShimLimits, EverySamplePasses) {
  for (const auto &[Name, Source] : samples::allPrograms()) {
    Program P = normalizedSample(Source.c_str());
    EXPECT_TRUE(checkShimLimits(P).empty())
        << Name << ":\n"
        << renderDiagnostics(P, checkShimLimits(P));
  }
}

TEST(ShimLimits, RejectsThirteenParameters) {
  Program P = normalizedSample(wideProgram(13).c_str());
  std::vector<Diagnostic> Ds = checkShimLimits(P);
  ASSERT_EQ(Ds.size(), 1u);
  EXPECT_EQ(P.Funcs[Ds[0].Function].Name, "wide");
  EXPECT_EQ(renderDiagnostics(P, Ds),
            "error: function 'wide': has 13 parameters after "
            "normalization; compiled code supports at most 12\n");

  // Twelve parameters are the limit itself.
  EXPECT_TRUE(
      checkShimLimits(normalizedSample(wideProgram(12).c_str())).empty());
}

TEST(ShimLimits, RejectsTwelveModrefKeys) {
  Program P = normalizedSample(keyedProgram(12, 12).c_str());
  std::vector<Diagnostic> Ds = checkShimLimits(P);
  ASSERT_EQ(Ds.size(), 1u);
  std::string Text = renderDiagnostics(P, Ds);
  EXPECT_NE(Text.find("error: function 'keyed', block 'm0' (#0): modref "
                      "keyed on 12 values; compiled code supports at most "
                      "11"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("[at the command]"), std::string::npos) << Text;

  EXPECT_TRUE(
      checkShimLimits(normalizedSample(keyedProgram(12, 11).c_str())).empty());
}

TEST(ShimLimits, ChecksTheNormalizedProgram) {
  // Lifting the read body raises the arity past the limit: the source
  // passes, its normal form does not.
  auto Parsed = parseProgram(liftedWideProgram());
  ASSERT_TRUE(Parsed) << Parsed.Error;
  EXPECT_TRUE(checkShimLimits(*Parsed.Prog).empty());
  Program Norm = normalizeProgram(*Parsed.Prog).Prog;
  std::vector<Diagnostic> Ds = checkShimLimits(Norm);
  ASSERT_FALSE(Ds.empty());
  for (const Diagnostic &D : Ds)
    EXPECT_GT(Norm.Funcs[D.Function].NumParams, 12u)
        << renderDiagnostics(Norm, Ds);
}
