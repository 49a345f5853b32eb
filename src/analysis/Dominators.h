//===- analysis/Dominators.h - Dominator trees -----------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator-tree construction over rooted program graphs (Sec. 5.2), by
/// the simple iterative algorithm of Cooper, Harvey and Kennedy, which
/// cealc uses because per-function graphs are small (Sec. 7). The tests
/// check it against a brute-force oracle on random graphs.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_ANALYSIS_DOMINATORS_H
#define CEAL_ANALYSIS_DOMINATORS_H

#include "analysis/ProgramGraph.h"

#include <cstdint>
#include <vector>

namespace ceal {
namespace analysis {

constexpr uint32_t InvalidNode = ~uint32_t(0);

/// Immediate dominators of \p G's nodes by reverse-postorder iteration
/// [Cooper-Harvey-Kennedy 2001]. The idom of ProgramGraph::Root is the
/// root itself; nodes unreachable from it get InvalidNode.
std::vector<uint32_t> computeDominators(const ProgramGraph &G);

/// The dominator tree as child lists, from an idom array.
std::vector<std::vector<uint32_t>>
dominatorTreeChildren(const std::vector<uint32_t> &Idom);

} // namespace analysis
} // namespace ceal

#endif // CEAL_ANALYSIS_DOMINATORS_H
