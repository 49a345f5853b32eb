//===- cl/Verifier.h - CL structural checks --------------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural verification of CL programs: reference validity, call
/// arities, and the normal-form predicate of Sec. 5 ("every read command
/// is in a tail-jump block"), which translation and the self-adjusting VM
/// require.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_CL_VERIFIER_H
#define CEAL_CL_VERIFIER_H

#include "cl/Diagnostic.h"
#include "cl/Ir.h"

#include <string>
#include <vector>

namespace ceal {
namespace cl {

/// Checks structural well-formedness; returns located errors (empty if
/// OK), each anchored at the offending block/index.
std::vector<Diagnostic> verifyProgramDiags(const Program &P);

/// String-compat shim over verifyProgramDiags: one "function 'f': ..."
/// line per diagnostic, as the original interface produced.
std::vector<std::string> verifyProgram(const Program &P);

/// True iff every read command is immediately followed by a tail jump
/// (the normal form produced by NORMALIZE, Sec. 5).
bool isNormalForm(const Program &P);

} // namespace cl
} // namespace ceal

#endif // CEAL_CL_VERIFIER_H
