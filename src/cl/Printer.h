//===- cl/Printer.h - CL textual printer -----------------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints CL programs in the concrete syntax accepted by cl::parse (see
/// Parser.h); printing and reparsing round-trips.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_CL_PRINTER_H
#define CEAL_CL_PRINTER_H

#include "cl/Diagnostic.h"
#include "cl/Ir.h"

#include <string>
#include <vector>

namespace ceal {
namespace cl {

std::string printProgram(const Program &P);
std::string printFunction(const Program &P, FuncId F);

/// Renders one located diagnostic against its program source, e.g.
///
///   error: function 'f', block 'r' (#1): read of non-modref* variable 'x'
///     --> r: y := read x; goto g;    [at the command]
///
/// Out-of-range locations degrade gracefully (no block line).
std::string renderDiagnostic(const Program &P, const Diagnostic &D);

/// Renders a batch, one diagnostic per renderDiagnostic block.
std::string renderDiagnostics(const Program &P,
                              const std::vector<Diagnostic> &Ds);

} // namespace cl
} // namespace ceal

#endif // CEAL_CL_PRINTER_H
