//===- analysis/Liveness.h - Live-variable analysis ------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative live-variable analysis, per function (Sec. 7). NORMALIZE
/// uses live(l) — the variables live at the start of block l — as the
/// formal parameters of the fresh function created for a critical node
/// (Fig. 7, line 13).
///
/// Control flow may be arbitrary (non-reducible); the analysis iterates
/// to the least fixed point, worst case O(n^3) as the paper notes, which
/// is fine because functions are small.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_ANALYSIS_LIVENESS_H
#define CEAL_ANALYSIS_LIVENESS_H

#include "analysis/ProgramGraph.h"
#include "cl/Ir.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace ceal {
namespace analysis {

/// A dense, fixed-size bit vector backed by 64-bit words, so counting
/// (popcount) and set union run a word at a time.
class BitVec {
public:
  BitVec() = default;
  explicit BitVec(size_t N) : NumBits(N), Words((N + 63) / 64, 0) {}

  bool test(size_t I) const { return (Words[I / 64] >> (I % 64)) & 1; }
  void set(size_t I) { Words[I / 64] |= uint64_t(1) << (I % 64); }
  void reset(size_t I) { Words[I / 64] &= ~(uint64_t(1) << (I % 64)); }

  void clearAll() { std::fill(Words.begin(), Words.end(), 0); }

  /// Number of set bits (word-at-a-time popcount).
  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(std::popcount(W));
    return N;
  }

  /// this |= O.
  void unionWith(const BitVec &O) {
    assert(NumBits == O.NumBits && "bit vector sizes must match");
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] |= O.Words[I];
  }

  bool operator==(const BitVec &O) const {
    return NumBits == O.NumBits && Words == O.Words;
  }

  /// The set bits in ascending order (deterministic enumeration).
  std::vector<uint32_t> bits() const {
    std::vector<uint32_t> Out;
    for (size_t WI = 0; WI < Words.size(); ++WI)
      for (uint64_t W = Words[WI]; W; W &= W - 1)
        Out.push_back(
            static_cast<uint32_t>(WI * 64 + std::countr_zero(W)));
    return Out;
  }

private:
  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

/// Live-variable sets for one function, as dense bit vectors over VarId.
struct LivenessInfo {
  /// LiveIn[b]: the variables live at the start of block b.
  std::vector<BitVec> LiveIn;

  /// The variables live at the start of \p B, in ascending VarId order
  /// (the deterministic parameter order used by NORMALIZE).
  std::vector<cl::VarId> liveAt(cl::BlockId B) const {
    return LiveIn[B].bits();
  }

  /// The maximum number of live variables over all blocks — the ML(P)
  /// of Theorems 3-5.
  size_t maxLive() const {
    size_t Max = 0;
    for (const BitVec &Row : LiveIn)
      Max = std::max(Max, Row.count());
    return Max;
  }
};

/// Computes per-block live-in sets for \p F over its program graph \p G
/// (buildProgramGraph(F)): LiveIn[b] = Use[b] ∪ (⋃ LiveIn[s] \ Def[b])
/// over b's successor blocks s. Tail jumps and calls use their
/// arguments; reads/assigns define their destinations. Blocks unreachable
/// from the entry are solved too.
LivenessInfo computeLiveness(const cl::Function &F, const ProgramGraph &G);

/// The variables used anywhere in block \p B of \p F (helper shared with
/// the free-variable computation of NORMALIZE).
std::vector<cl::VarId> blockUses(const cl::Function &F, cl::BlockId B);

/// The variable defined by block \p B of \p F, or cl::InvalidId.
cl::VarId blockDef(const cl::Function &F, cl::BlockId B);

} // namespace analysis
} // namespace ceal

#endif // CEAL_ANALYSIS_LIVENESS_H
