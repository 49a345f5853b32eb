//===- normalize/Optimize.h - Forwarder for the benchmark -------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// runPassPipeline is NORMALIZE alone. It exists only for the call in
/// perfbench/Compile.cpp, which changes only with the benchmark, and it
/// goes together with that call at the next benchmark change.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_NORMALIZE_OPTIMIZE_H
#define CEAL_NORMALIZE_OPTIMIZE_H

#include "normalize/Normalize.h"

namespace ceal {
namespace optimize {

struct PipelineResult {
  cl::Program Prog;
};

inline PipelineResult runPassPipeline(const cl::Program &P) {
  return {normalize::normalizeProgram(P).Prog};
}

} // namespace optimize
} // namespace ceal

#endif // CEAL_NORMALIZE_OPTIMIZE_H
