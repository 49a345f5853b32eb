//===- cl/Diagnostic.h - Located CL diagnostics ----------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A located error in a CL program, as the verifier reports it.
/// Locations are IR coordinates (function, block, index-within-block);
/// Printer.h renders them against the program source.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_CL_DIAGNOSTIC_H
#define CEAL_CL_DIAGNOSTIC_H

#include "cl/Ir.h"

#include <string>

namespace ceal {
namespace cl {

/// A diagnostic anchored to a position in the CL IR.
///
/// \c Block may be InvalidId for function-level diagnostics (e.g. "has no
/// blocks"). \c Index locates the element within the block: 0 is the
/// command (or the cond variable / done marker), 1 the first jump (J, or
/// J1 of a cond), 2 the second jump (J2 of a cond).
struct Diagnostic {
  FuncId Function = InvalidId;
  BlockId Block = InvalidId;
  uint32_t Index = 0;
  std::string Message;
};

} // namespace cl
} // namespace ceal

#endif // CEAL_CL_DIAGNOSTIC_H
