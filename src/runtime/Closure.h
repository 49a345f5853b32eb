//===- runtime/Closure.h - Closures and monomorphized makers ---*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The closure representation of the run-time system (paper Sec. 6.1:
/// closure_make / closure_run). A closure is a code pointer plus a frame
/// of word-sized arguments; trampolines iterate closures returned by core
/// code, and the trace keeps a copy of each read's closure inside the
/// read's node so change propagation can re-execute it (StagedClosure
/// below is the caller-side storage read() and allocate() copy from).
///
/// The paper's compiler monomorphizes closure_make per argument signature
/// (Sec. 6.3); here the C++ template machinery below generates exactly one
/// encode/decode pair per (function, signature), which is the same
/// specialization without a compiler pass.
///
/// Two layout economies keep closures at one word of header plus the
/// stored arguments:
///
///  * The header packs the code pointer (47 bits cover canonical user
///    addresses on x86-64 and AArch64), the argument count, and the
///    trace-ownership flag into one uint64_t, checked — not assumed — at
///    fill time.
///
///  * Closures awaiting a value (a read's continuation waiting for the
///    cell's contents, an allocation initializer waiting for its block)
///    do not reserve a frame slot for it. The pending value travels in a
///    trampoline register — the Subst parameter of ClosureFn — and the
///    "subst" invoker flavor below binds it to the function's first
///    declared parameter. This removes one word from every traced read.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_RUNTIME_CLOSURE_H
#define CEAL_RUNTIME_CLOSURE_H

#include "runtime/Word.h"
#include "support/Check.h"

#include <cassert>
#include <tuple>
#include <utility>

namespace ceal {

class Runtime;
struct Closure;

/// The code pointer stored in a closure. Returning a closure continues the
/// tail-call chain on the active trampoline; returning null ends it.
/// \p Subst carries the pending substitution value (the read value or the
/// fresh allocation block) for closures built with a placeholder; plain
/// closures ignore it.
using ClosureFn = Closure *(*)(Runtime &, Closure *, Word Subst);

/// A heap closure: a packed one-word header plus an inline frame of word
/// arguments. Allocated from the runtime arena via Runtime::make<Fn>().
struct Closure {
  /// fn (bits 0..46) | numArgs (bits 47..62) | owned-by-trace (bit 63).
  uint64_t FnBits;

  static constexpr unsigned NumArgsShift = 47;
  static constexpr uint64_t FnMask = (uint64_t(1) << NumArgsShift) - 1;
  static constexpr uint64_t OwnedBit = uint64_t(1) << 63;

  ClosureFn fn() const {
    return reinterpret_cast<ClosureFn>(FnBits & FnMask);
  }
  size_t numArgs() const { return (FnBits >> NumArgsShift) & 0xffff; }
  /// Set on the copy inside a trace node (a read's closure must outlive
  /// its execution so propagation can re-run it); transient closures are
  /// freed by the trampoline after they run.
  bool ownedByTrace() const { return (FnBits & OwnedBit) != 0; }
  void setOwnedByTrace(bool Owned) {
    FnBits = Owned ? (FnBits | OwnedBit) : (FnBits & ~OwnedBit);
  }
  /// The header with the ownership bit masked off: function identity plus
  /// arity, suitable for memo keys.
  uint64_t identityBits() const { return FnBits & ~OwnedBit; }

  /// The header word of a closure running \p Fn over \p NumArgs frame
  /// words, for callers that stage a closure in word storage.
  static uint64_t headerBits(ClosureFn Fn, size_t NumArgs) {
    auto Code = reinterpret_cast<uint64_t>(Fn);
    checkAlways((Code & ~FnMask) == 0,
                "closure code pointer exceeds the 47-bit packed range");
    checkAlways(NumArgs <= 0xffff,
                "closure arity exceeds the 16-bit frame limit");
    return Code | (uint64_t(NumArgs) << NumArgsShift);
  }
  void setHeader(ClosureFn Fn, size_t NumArgs) {
    FnBits = headerBits(Fn, NumArgs);
  }

  Word *args() { return reinterpret_cast<Word *>(this + 1); }
  const Word *args() const {
    return reinterpret_cast<const Word *>(this + 1);
  }

  static constexpr size_t byteSize(size_t NumArgs) {
    return sizeof(Closure) + NumArgs * sizeof(Word);
  }
  size_t byteSize() const { return byteSize(numArgs()); }
};

static_assert(sizeof(Closure) == 8, "closure header must be one word");

/// Caller-side storage for a closure of \p N frame words, on the C++
/// stack: Runtime::read and Runtime::allocate copy it into their trace
/// node and never keep it, so staging costs no arena block.
template <size_t N> struct StagedClosure {
  Closure Header;
  Word Frame[N ? N : 1];

  Closure *get() { return &Header; }
};

static_assert(sizeof(StagedClosure<2>) == Closure::byteSize(2),
              "a staged frame must follow its header like a closure's");

/// Extracts the declared parameter list of a core function. Core functions
/// have the shape `Closure *f(Runtime &, T0, T1, ...)` where each Ti is
/// word-sized.
template <typename F> struct CoreFnTraits;
template <typename... As> struct CoreFnTraits<Closure *(*)(Runtime &, As...)> {
  using ArgsTuple = std::tuple<As...>;
  static constexpr size_t Arity = sizeof...(As);
};

namespace detail {

template <auto Fn, typename... As, size_t... I>
Closure *invokeClosure(Runtime &RT, Closure *C, std::index_sequence<I...>) {
  assert(C->numArgs() == sizeof...(As) && "closure arity mismatch");
  return Fn(RT, fromWord<As>(C->args()[I])...);
}

/// The monomorphized trampoline entry for one (function, signature) pair.
/// Plain flavor: every declared argument is stored in the frame; the
/// substitution register is unused.
template <auto Fn, typename... As>
Closure *closureInvoker(Runtime &RT, Closure *C, Word /*Subst*/) {
  return invokeClosure<Fn, As...>(RT, C, std::index_sequence_for<As...>{});
}

template <auto Fn, typename S, typename... Rest, size_t... I>
Closure *invokeSubstClosure(Runtime &RT, Closure *C, Word Subst,
                            std::index_sequence<I...>) {
  assert(C->numArgs() == sizeof...(Rest) && "subst closure arity mismatch");
  return Fn(RT, fromWord<S>(Subst), fromWord<Rest>(C->args()[I])...);
}

/// Subst flavor: the function's first declared parameter arrives in the
/// trampoline's substitution register; only the trailing arguments have
/// frame slots.
template <auto Fn, typename S, typename... Rest>
Closure *substClosureInvoker(Runtime &RT, Closure *C, Word Subst) {
  return invokeSubstClosure<Fn, S, Rest...>(RT, C, Subst,
                                            std::index_sequence_for<Rest...>{});
}

template <auto Fn, typename Tuple> struct ClosureMaker;

template <auto Fn, typename... As>
struct ClosureMaker<Fn, std::tuple<As...>> {
  static constexpr ClosureFn Invoker = &closureInvoker<Fn, As...>;

  static void fill(Closure *C, As... Vs) {
    C->setHeader(Invoker, sizeof...(As));
    size_t I = 0;
    ((C->args()[I++] = toWord<As>(Vs)), ...);
    (void)I;
  }
};

template <auto Fn, typename Tuple> struct SubstClosureMaker;

template <auto Fn, typename S, typename... Rest>
struct SubstClosureMaker<Fn, std::tuple<S, Rest...>> {
  static constexpr ClosureFn Invoker = &substClosureInvoker<Fn, S, Rest...>;
  /// Frame words: the placeholder parameter has no slot.
  static constexpr size_t FrameArgs = sizeof...(Rest);

  static void fill(Closure *C, Rest... Vs) {
    C->setHeader(Invoker, sizeof...(Rest));
    size_t I = 0;
    ((C->args()[I++] = toWord<Rest>(Vs)), ...);
    (void)I;
  }
};

} // namespace detail

} // namespace ceal

#endif // CEAL_RUNTIME_CLOSURE_H
