//===- analysis/Dataflow.h - Generic dataflow framework --------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An iterative dataflow framework over CL control-flow graphs: a dense
/// bitset domain (\c BitVec), a per-function CFG view (\c BlockCfg), and
/// a worklist solver for backward gen-kill problems under union meet —
/// the shape of NORMALIZE's liveness (Liveness.h), its one client.
/// Control flow may be arbitrary (including irreducible graphs); the
/// solver iterates to the least fixed point of the monotone gen-kill
/// transfer functions.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_ANALYSIS_DATAFLOW_H
#define CEAL_ANALYSIS_DATAFLOW_H

#include "cl/Ir.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace ceal {
namespace analysis {

//===----------------------------------------------------------------------===//
// BitVec
//===----------------------------------------------------------------------===//

/// A dense, fixed-size bit vector backed by 64-bit words, so counting
/// (popcount) and set algebra run a word at a time instead of a bit at a
/// time as the previous vector<bool> rows did.
class BitVec {
public:
  BitVec() = default;
  explicit BitVec(size_t N, bool Value = false)
      : NumBits(N), Words((N + 63) / 64, Value ? ~uint64_t(0) : 0) {
    trim();
  }

  size_t size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  bool test(size_t I) const {
    return (Words[I / 64] >> (I % 64)) & 1;
  }
  void set(size_t I) { Words[I / 64] |= uint64_t(1) << (I % 64); }
  void reset(size_t I) { Words[I / 64] &= ~(uint64_t(1) << (I % 64)); }

  void clearAll() {
    for (uint64_t &W : Words)
      W = 0;
  }
  void setAll() {
    for (uint64_t &W : Words)
      W = ~uint64_t(0);
    trim();
  }

  /// Number of set bits (word-at-a-time popcount).
  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(std::popcount(W));
    return N;
  }
  bool none() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  /// this |= O; returns true iff any bit changed.
  bool unionWith(const BitVec &O) {
    assert(NumBits == O.NumBits && "bit vector sizes must match");
    bool Changed = false;
    for (size_t I = 0; I < Words.size(); ++I) {
      uint64_t New = Words[I] | O.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// this &= O; returns true iff any bit changed.
  bool intersectWith(const BitVec &O) {
    assert(NumBits == O.NumBits && "bit vector sizes must match");
    bool Changed = false;
    for (size_t I = 0; I < Words.size(); ++I) {
      uint64_t New = Words[I] & O.Words[I];
      Changed |= New != Words[I];
      Words[I] = New;
    }
    return Changed;
  }

  /// this &= ~O.
  void subtract(const BitVec &O) {
    assert(NumBits == O.NumBits && "bit vector sizes must match");
    for (size_t I = 0; I < Words.size(); ++I)
      Words[I] &= ~O.Words[I];
  }

  bool operator==(const BitVec &O) const {
    return NumBits == O.NumBits && Words == O.Words;
  }
  bool operator!=(const BitVec &O) const { return !(*this == O); }

  /// Calls \p Fn(index) for every set bit, in ascending order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t WI = 0; WI < Words.size(); ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned B = static_cast<unsigned>(std::countr_zero(W));
        Fn(WI * 64 + B);
        W &= W - 1;
      }
    }
  }

  /// The set bits in ascending order (deterministic enumeration).
  std::vector<uint32_t> bits() const {
    std::vector<uint32_t> Out;
    forEach([&](size_t I) { Out.push_back(static_cast<uint32_t>(I)); });
    return Out;
  }

private:
  void trim() {
    if (NumBits % 64)
      Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

//===----------------------------------------------------------------------===//
// BlockCfg
//===----------------------------------------------------------------------===//

/// The intra-function control-flow graph of a CL function: nodes are
/// block ids, edges are gotos (tails and done leave the function).
struct BlockCfg {
  std::vector<std::vector<cl::BlockId>> Succs;
  std::vector<std::vector<cl::BlockId>> Preds;
  /// Blocks that leave the function (a tail jump or done): where the
  /// backward boundary value enters.
  std::vector<cl::BlockId> Exits;
  /// Reachable from the entry block 0 along Succs.
  std::vector<bool> Reachable;

  size_t size() const { return Succs.size(); }

  static BlockCfg build(const cl::Function &F);
};

//===----------------------------------------------------------------------===//
// Worklist solver
//===----------------------------------------------------------------------===//

/// Per-block gen-kill transfer function, applied backward:
/// In = Gen ∪ (Out \ Kill). Sequential effects within a block are encoded
/// by the caller: a command that first invalidates everything and then
/// generates one fact is Kill = universe, Gen = {fact}.
struct GenKill {
  BitVec Gen;
  BitVec Kill;
};

/// A backward union problem: Out[b] is the union of In over b's
/// successors, plus the boundary value at exits. Unreachable blocks are
/// solved too (they start at the empty set and converge).
struct DataflowProblem {
  size_t DomainSize = 0;
  /// One transfer function per block.
  std::vector<GenKill> Transfer;
  /// Out at Exits. Defaults to the empty set.
  BitVec Boundary;
};

struct DataflowResult {
  /// In[b]: value at block entry. Out[b]: value at block exit.
  std::vector<BitVec> In;
  std::vector<BitVec> Out;
};

/// Solves \p P over \p G to the least fixed point. Deterministic: the
/// worklist is seeded and processed in a fixed order.
DataflowResult solveDataflow(const BlockCfg &G, const DataflowProblem &P);

} // namespace analysis
} // namespace ceal

#endif // CEAL_ANALYSIS_DATAFLOW_H
