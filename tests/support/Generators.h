//===- tests/support/Generators.h - Shared randomized-test inputs -*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One Rng-driven generator vocabulary for every randomized suite (parser
/// fuzzing, the oracle harness, workload builders), so seeds mean the same
/// thing everywhere and a failure message always carries enough to replay:
/// construct `Rng(<printed seed>)` and call the same generator.
///
/// Derived seeds come from mixSeed(Base, Step): each step of a change
/// sequence gets an independent stream, so any *subset* of steps replays
/// identically — the property the harness's shrinker relies on.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_TESTS_SUPPORT_GENERATORS_H
#define CEAL_TESTS_SUPPORT_GENERATORS_H

#include "cl/Builder.h"
#include "runtime/Word.h"
#include "support/Random.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ceal {
namespace gen {

/// Derives an independent seed for sub-stream \p Step of \p Base. Streams
/// for different steps share no state, so replaying steps {3, 7} of a
/// sequence produces exactly the draws those steps made in the full run.
inline uint64_t mixSeed(uint64_t Base, uint64_t Step) {
  uint64_t State = Base * 0x9e3779b97f4a7c15ULL + (Step + 1);
  return splitMix64(State);
}

/// "seed=0x1234" — the replay handle printed with every failure.
inline std::string seedTag(uint64_t Seed) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "seed=0x%llx", (unsigned long long)Seed);
  return Buf;
}

/// "<Prefix><I>" (f0, m1, ...), built by appending: GCC 12's -Wrestrict
/// misfires on an inlined `"f" + std::to_string(I)` in Release builds.
inline std::string indexedName(const char *Prefix, unsigned I) {
  std::string S = Prefix;
  S += std::to_string(I);
  return S;
}

/// Uniform random words below \p Bound.
inline std::vector<Word> randomWords(Rng &R, size_t N, Word Bound = 1000000) {
  std::vector<Word> V(N);
  for (Word &W : V)
    W = R.below(Bound);
  return V;
}

//===----------------------------------------------------------------------===//
// Source fuzzing (parser/verifier robustness)
//===----------------------------------------------------------------------===//

/// Character alphabet for source mutation: CL punctuation, identifier
/// characters, and keyword fragments, weighted to keep some mutants
/// parseable.
inline const char *sourceAlphabet() {
  return "abcxyz019(){}[];:=*,_ \n\tfunc goto tail read";
}

/// Mutates \p Base with 1..\p MaxEdits random character edits (replace,
/// delete a short span, insert) drawn from sourceAlphabet().
inline std::string mutateSource(Rng &R, const std::string &Base,
                                int MaxEdits = 8) {
  std::string Mutated = Base;
  const char *Alphabet = sourceAlphabet();
  size_t AlphabetLen = std::char_traits<char>::length(Alphabet);
  int Edits = 1 + static_cast<int>(R.below(static_cast<uint64_t>(MaxEdits)));
  for (int E = 0; E < Edits && !Mutated.empty(); ++E) {
    size_t Pos = R.below(Mutated.size());
    switch (R.below(3)) {
    case 0:
      Mutated[Pos] = Alphabet[R.below(AlphabetLen)];
      break;
    case 1:
      Mutated.erase(Pos, 1 + R.below(4));
      break;
    default:
      Mutated.insert(Pos, 1, Alphabet[R.below(AlphabetLen)]);
      break;
    }
  }
  return Mutated;
}

/// The CL token vocabulary used for random token-soup inputs.
inline const std::vector<const char *> &clTokens() {
  static const std::vector<const char *> Tokens = {
      "func",   "goto", "tail", "read", "write", "alloc",
      "modref", "call", "done", "if",   "then",  "else",
      "var",    "int",  "x",    "y",    "f",     "(",
      ")",      "{",    "}",    "[",    "]",     ";",
      ":",      ":=",   "*",    ",",    "42",    "-3"};
  return Tokens;
}

/// A random whitespace-joined token soup of \p MinLen..\p MaxLen tokens.
inline std::string tokenSoup(Rng &R, size_t MinLen = 5, size_t MaxLen = 125) {
  const auto &Tokens = clTokens();
  std::string Soup;
  size_t Len = MinLen + R.below(MaxLen - MinLen);
  for (size_t I = 0; I < Len; ++I) {
    Soup += Tokens[R.below(Tokens.size())];
    Soup += ' ';
  }
  return Soup;
}

/// Generates a program that allocates a 4-word block (initialized from
/// the int parameters by a random initializer body), loads random slots,
/// mixes them with arithmetic and reads, writes results into output
/// modifiables, and chains to further functions — all forward-only, so
/// it terminates.
inline cl::Program randomHeapProgram(Rng &R) {
  using cl::ProgramBuilder;
  using cl::FuncBuilder;
  using cl::VarId;
  using cl::BlockId;
  using cl::FuncId;
  using cl::Type;
  using cl::Expr;
  using cl::Jump;
  using cl::Command;
  using cl::OpKind;
  ProgramBuilder PB;
  unsigned NumFuncs = 2 + static_cast<unsigned>(R.below(2));
  std::vector<FuncBuilder> Fbs;
  // Function 0..NumFuncs-1: computation; function NumFuncs: initializer.
  for (unsigned I = 0; I < NumFuncs; ++I)
    Fbs.push_back(PB.beginFunc(indexedName("f", I)));
  FuncBuilder Init = PB.beginFunc("blkinit");

  // The initializer: blkinit(blk, a, b) { blk[0..3] := derived values }.
  {
    VarId Blk = Init.param("blk", Type::ptrTo(Type::intTy()));
    VarId A = Init.param("a", Type::intTy());
    VarId B = Init.param("b", Type::intTy());
    VarId Idx = Init.local("i", Type::intTy());
    VarId Tmp = Init.local("t", Type::intTy());
    std::vector<BlockId> Blocks;
    for (int I = 0; I < 9; ++I)
      Blocks.push_back(Init.block());
    for (int Slot = 0; Slot < 4; ++Slot) {
      Init.setCmd(Blocks[2 * Slot],
                  FuncBuilder::assign(Idx, Expr::makeConst(Slot)),
                  Jump::gotoBlock(Blocks[2 * Slot + 1]));
      Expr Val = Slot % 2 ? Expr::makePrim(OpKind::Add, {A, B})
                          : Expr::makePrim(OpKind::Mul, {A, B});
      (void)Tmp;
      Init.setCmd(Blocks[2 * Slot + 1], FuncBuilder::store(Blk, Idx, Val),
                  Jump::gotoBlock(Blocks[2 * Slot + 2]));
    }
    Init.setDone(Blocks[8]);
  }

  for (unsigned FI = 0; FI < NumFuncs; ++FI) {
    FuncBuilder &FB = Fbs[FI];
    std::vector<VarId> Ints, Mods;
    Ints.push_back(FB.param("a", Type::intTy()));
    Ints.push_back(FB.param("b", Type::intTy()));
    for (int I = 0; I < 3; ++I)
      Mods.push_back(FB.param(indexedName("m", I),
                              Type::ptrTo(Type::modrefTy())));
    VarId Blk = FB.local("blk", Type::ptrTo(Type::intTy()));
    VarId Sz = FB.local("sz", Type::intTy());
    VarId Idx = FB.local("ix", Type::intTy());
    for (int I = 0; I < 2; ++I)
      Ints.push_back(FB.local(indexedName("t", I), Type::intTy()));

    unsigned NumBlocks = 6 + static_cast<unsigned>(R.below(6));
    std::vector<BlockId> Blocks;
    for (unsigned B = 0; B < NumBlocks; ++B)
      Blocks.push_back(FB.block());

    auto RandInt = [&] { return Ints[R.below(Ints.size())]; };
    auto RandMod = [&] { return Mods[R.below(Mods.size())]; };
    auto NextJump = [&](unsigned B) {
      if (B + 1 < NumBlocks)
        return Jump::gotoBlock(
            Blocks[B + 1 + R.below(NumBlocks - B - 1)]);
      return Jump::gotoBlock(Blocks[B]); // Unused (last block is done).
    };

    // Fixed prologue: sz := 32; blk := alloc(sz, blkinit, a, b);
    FB.setCmd(Blocks[0], FuncBuilder::assign(Sz, Expr::makeConst(32)),
              Jump::gotoBlock(Blocks[1]));
    FB.setCmd(Blocks[1],
              FuncBuilder::alloc(Blk, Sz, Init.id(), {Ints[0], Ints[1]}),
              Jump::gotoBlock(Blocks[2]));

    for (unsigned B = 2; B + 1 < NumBlocks; ++B) {
      Command C;
      switch (R.below(6)) {
      case 0:
        C = FuncBuilder::assign(Idx,
                                Expr::makeConst(int64_t(R.below(4))));
        break;
      case 1:
        C = FuncBuilder::assign(RandInt(), Expr::makeIndex(Blk, Idx));
        break;
      case 2:
        C = FuncBuilder::write(RandMod(), RandInt());
        break;
      case 3:
        C = FuncBuilder::read(RandInt(), RandMod());
        break;
      case 4:
        C = FuncBuilder::assign(
            RandInt(), Expr::makePrim(OpKind::Add, {RandInt(), RandInt()}));
        break;
      default:
        C = FuncBuilder::nop();
        break;
      }
      FB.setCmd(Blocks[B], std::move(C), NextJump(B));
    }
    // Epilogue: either done or a tail to a later function.
    if (FI + 1 < NumFuncs && R.flip()) {
      FuncId Target =
          FI + 1 + static_cast<FuncId>(R.below(NumFuncs - FI - 1));
      FB.setCmd(Blocks[NumBlocks - 1], FuncBuilder::nop(),
                Jump::tailCall(Target, {Ints[0], Ints[1], Mods[0], Mods[1],
                                        Mods[2]}));
    } else {
      FB.setDone(Blocks[NumBlocks - 1]);
    }
  }
  return PB.take();
}

} // namespace gen
} // namespace ceal

#endif // CEAL_TESTS_SUPPORT_GENERATORS_H
