//===- translate/RtsShim.h - C ABI for compiled CEAL code -------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run-time-library side of the translation: the C functions of the
/// paper's Fig. 11 interface (closure_make / closure_run / modref_* /
/// allocate), backed by a ceal::Runtime. C code emitted by
/// translate::emitC with external linkage can be compiled by a real C
/// compiler, loaded (e.g. with dlopen), and executed self-adjustingly —
/// the complete CEAL pipeline, machine code included.
///
/// The ABI routes every call through one installed Runtime (the paper's
/// RTS is a process-global library too). Closures carry the target C
/// function, its arity, and the substitution position that modref_read /
/// allocate fill in (the generalization of the paper's value-goes-first
/// convention; see normalize/Normalize.h).
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_TRANSLATE_RTSSHIM_H
#define CEAL_TRANSLATE_RTSSHIM_H

#include "runtime/Runtime.h"

#include <vector>

namespace ceal {
namespace shim {

/// Installs the runtime the C ABI operates on. Not thread-safe; one
/// compiled core at a time (matching the paper's single-RTS model).
void setRuntime(Runtime *RT);
Runtime *currentRuntime();

/// Builds a trampoline-ready closure that invokes the compiled C core
/// function \p CFn (signature `closure_t *f(word, word, ...)`) with the
/// given word arguments — how a mutator starts a compiled core:
/// `RT.run(makeEntryClosure(RT, dlsym(...), {args...}))`.
Closure *makeEntryClosure(Runtime &RT, void *CFn,
                          const std::vector<Word> &Args);

/// Maximum arity of compiled core functions the shim can invoke. Making
/// a closure of higher arity (makeEntryClosure, ceal_closure_make_words)
/// is a fatal error in every build type. A keyed modifiable's initializer
/// closure holds its keys after the block, so compiled code may key a
/// modifiable on at most MaxCArity - 1 values.
constexpr unsigned MaxCArity = 12;

} // namespace shim
} // namespace ceal

#endif // CEAL_TRANSLATE_RTSSHIM_H
