//===- interp/Vm.h - CL execution ------------------------------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two executors for CL programs:
///
///  * Vm — the self-adjusting virtual machine. It runs *normalized* CL
///    (every read tails) against the run-time system, implementing the
///    operational semantics of Sec. 4.2 with the translated behaviour of
///    Sec. 6: tail jumps iterate (no stack growth), reads hand closures
///    to the trampoline, allocations are memo-keyed by (initializer,
///    size, arguments). The mutator drives it through the meta helpers
///    and Runtime::propagate.
///
///  * ConvInterp — the conventional interpreter: modifiables are plain
///    word cells, reads are loads, writes are stores. It defines the
///    from-scratch semantics and serves as the oracle for the
///    normalization-preserves-semantics and propagation-correctness
///    property tests.
///
/// Semantics shared by both: integers are signed 64-bit; division and
/// modulus by zero yield zero (totality keeps random-program tests
/// deterministic); uninitialized locals are zero; array indexing is in
/// words while alloc sizes are in bytes (as in the paper).
///
/// Both keep their register frames on one WordStack each, in the manner
/// of a stack machine: a function's frame is pushed on entry, a tail
/// jump rebuilds it in place, and an allocation initializer or `call`
/// pushes its frame above the caller's. Argument lists (read, alloc,
/// call and tail arguments, and the Vm's closure frames) are staged
/// above the innermost frame. Apart from the blocks, cells and closures
/// the program itself creates, no step allocates, and the C++ stack used
/// per frame does not depend on the function's variable count.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_INTERP_VM_H
#define CEAL_INTERP_VM_H

#include "cl/Ir.h"
#include "runtime/Runtime.h"

#include <string>
#include <vector>

namespace ceal {
namespace interp {

/// A growable stack of words holding an executor's register frames.
/// Frames are addressed by offset because growth moves the storage: a
/// pointer from at() or stage() is valid only until the next stage(),
/// reserve() or nested entry into the executor.
class WordStack {
public:
  WordStack() : Words(InitialWords) {}

  /// Makes the stack at least \p End words deep.
  void reserve(size_t End) {
    if (End > Words.size())
      grow(End);
  }
  /// Makes room for \p N words at Top and returns their address.
  Word *stage(size_t N) {
    reserve(Top + N);
    return at(Top);
  }
  Word *at(size_t Offset) { return Words.data() + Offset; }

  /// First word above the innermost live frame.
  size_t Top = 0;

private:
  static constexpr size_t InitialWords = 256;
  void grow(size_t End);

  std::vector<Word> Words;
};

/// The self-adjusting CL virtual machine.
class Vm {
public:
  /// \p P must verify cleanly and be in normal form.
  Vm(Runtime &RT, const cl::Program &P);

  Runtime &runtime() { return RT; }
  const cl::Program &program() const { return Prog; }

  //===------------------------------------------------------------===//
  // Meta (mutator) surface
  //===------------------------------------------------------------===//

  Modref *metaModref() { return RT.modref(); }
  void metaWrite(Modref *M, Word V) { RT.modify(M, V); }
  Word metaRead(const Modref *M) const { return RT.deref(M); }
  /// A plain input block (for mutator-built structures).
  void *metaAlloc(size_t Bytes) { return RT.metaAlloc(Bytes); }

  /// Runs core function \p Name from scratch with word arguments.
  void runCore(const std::string &Name, const std::vector<Word> &Args);
  void propagate() { RT.propagate(); }

  /// Closure-environment accounting: every closure this VM built (reads,
  /// tail calls, allocation initializers) and the total CL-argument words
  /// those closures carried. The ratio approximates the per-trace-node
  /// environment cost ML(P); perfbench reports it.
  uint64_t closuresMade() const { return ClosuresMade; }
  uint64_t closureEnvWords() const { return ClosureEnvWords; }

private:
  static Closure *vmEntry(Runtime &RT, Closure *C, Word Subst);
  /// Runs \p F on the frame at offset \p Base (parameters set, locals
  /// zero) until it reads (returning the read's closure) or finishes.
  Closure *exec(cl::FuncId F, size_t Base);
  /// Stages a closure for \p NumArgs CL arguments at the stack top (its
  /// header word, then the frame) and returns the address of its first
  /// argument slot.
  Word *stageClosure(size_t NumArgs) { return Stack.stage(4 + NumArgs) + 4; }
  /// Completes the closure stageClosure() staged and returns it, still on
  /// the stack: valid until the next stage, which is long enough for
  /// Runtime::read and Runtime::allocate, since they copy it into their
  /// trace node.
  Closure *stagedVmClosure(cl::FuncId F, Word SubstPos, size_t NumArgs);
  /// The staged closure copied into a run-time closure of its own, for
  /// `call` and runCore, whose trampoline runs and frees it.
  Closure *makeVmClosure(cl::FuncId F, Word SubstPos, size_t NumArgs);

  Runtime &RT;
  const cl::Program &Prog;
  WordStack Stack;
  uint64_t ClosuresMade = 0;
  uint64_t ClosureEnvWords = 0;
};

/// The conventional interpreter (plain memory, direct execution).
class ConvInterp {
public:
  explicit ConvInterp(const cl::Program &P) : Prog(P) {}

  /// A conventional "modifiable": one word of storage.
  Word *newCell(Word Init = 0);
  void *alloc(size_t Bytes);
  void run(const std::string &Name, const std::vector<Word> &Args);

  /// Number of commands executed (a deterministic work measure).
  uint64_t steps() const { return Steps; }

private:
  /// Runs \p F on the frame at offset \p Base (parameters set, locals
  /// zero) to completion.
  void exec(cl::FuncId F, size_t Base);

  const cl::Program &Prog;
  std::vector<std::vector<Word>> Blocks; ///< Owned storage.
  WordStack Stack;
  uint64_t Steps = 0;
};

} // namespace interp
} // namespace ceal

#endif // CEAL_INTERP_VM_H
