//===- translate/EmitC.h - CL to C translation -----------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The translation phase (paper Sec. 6, Fig. 12): normalized CL becomes a
/// C translation unit against the run-time-system interface of Fig. 11
/// (closure_make / closure_run / modref_* / allocate). Two modes:
///
///  * Basic — every tail jump returns a fresh closure to the trampoline
///    (Fig. 12 verbatim);
///  * Refined — read trampolining (Sec. 6.3): only the tail jumps that
///    follow reads go through closures (the read already makes one);
///    other tail jumps become direct calls, `[tail f(x)] = return f(x)`.
///
/// Both modes monomorphize closure_make: one statically generated maker
/// per (function, arity) use, as the paper does following MLton.
///
/// The emitted unit is self-contained C (an embedded prelude declares the
/// RTS interface), so tests can syntax-check it with a real C compiler.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_TRANSLATE_EMITC_H
#define CEAL_TRANSLATE_EMITC_H

#include "cl/Diagnostic.h"
#include "cl/Ir.h"

#include <string>
#include <vector>

namespace ceal {
namespace translate {

enum class Mode {
  Basic,   ///< Closure per tail jump (Sec. 6.2).
  Refined, ///< Read trampolining + direct tails (Sec. 6.3).
};

struct EmitResult {
  std::string Code;
  size_t MonomorphInstances = 0; ///< Generated closure_make_* makers.
  size_t EmittedBytes = 0;       ///< == Code.size(); the "binary size"
                                 ///< proxy of Table 3 / Fig. 15.
};

/// Linkage of the emitted core functions: Static yields a self-contained
/// translation unit for inspection/syntax checks; External exports them
/// so the unit can be compiled, loaded, and run against the RTS shim
/// (translate/RtsShim.h).
enum class Linkage { Static, External };

/// Translates normalized \p P (asserts cl::isNormalForm) into C.
EmitResult emitC(const cl::Program &P, Mode M,
                 Linkage L = Linkage::Static);

/// The passthrough pipeline of the Table 3 "gcc" substitution: prints the
/// program without normalization or translation (see DESIGN.md Sec. 3).
EmitResult emitPassthrough(const cl::Program &P);

/// Locates what the RTS shim cannot run in the normalized \p P: a
/// function of more than shim::MaxCArity parameters, or a modref keyed on
/// MaxCArity or more values (its initializer closure holds the keys after
/// the block). emitC translates either into C that compiles but aborts
/// when the closure is made, so check first. Normalization can add
/// parameters (lifted read bodies take their live variables), so check
/// the normalized program, not the source.
std::vector<cl::Diagnostic> checkShimLimits(const cl::Program &P);

} // namespace translate
} // namespace ceal

#endif // CEAL_TRANSLATE_EMITC_H
