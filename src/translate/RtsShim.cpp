//===- translate/RtsShim.cpp - C ABI for compiled CEAL code ----------------===//
//
// Closure layout used for compiled C functions (cf. interp/Vm.cpp, which
// uses the same scheme for interpreted functions):
//
//   args[0]  the C function pointer;
//   args[1]  its arity;
//   args[2]  the index of the parameter that receives the substitution
//            value (~0 if none);
//   args[3+] the parameter words (the substitution position holds a 0
//            placeholder so memo keys stay stable).
//
// The substitution value itself (read value, block address) has no frame
// slot: the runtime hands it to the invoker in the trampoline's
// substitution register (the ClosureFn Subst parameter).
//
//===----------------------------------------------------------------------===//

#include "translate/RtsShim.h"

#include "support/Check.h"

#include <cassert>
#include <cstdint>

using namespace ceal;

// The C-side declarations (mirrors the emitted prelude).
extern "C" {
typedef struct ceal_modref_c {
  void *Opaque[4];
} modref_t_c;

Closure *ceal_closure_make_words(void *Fn, int NumArgs,
                                 const intptr_t *Args);
Closure *ceal_closure_with_subst(Closure *C, int Pos);
void closure_run(Closure *C);
void modref_init(modref_t_c *M);
void modref_write(modref_t_c *M, void *V);
Closure *modref_read(modref_t_c *M, Closure *C);
void *allocate(size_t N, Closure *C);
} // extern "C"

namespace {

Runtime *GlobalRT = nullptr;

constexpr Word NoSubst = ~Word(0);

Runtime &rt() {
  assert(GlobalRT && "shim::setRuntime not called");
  return *GlobalRT;
}

/// Calls a compiled C core function with \p N word arguments.
Closure *callCFunction(void *Fn, const Word *W, size_t N) {
  using W1 = Word;
  switch (N) {
  case 0:
    return ((Closure * (*)()) Fn)();
  case 1:
    return ((Closure * (*)(W1)) Fn)(W[0]);
  case 2:
    return ((Closure * (*)(W1, W1)) Fn)(W[0], W[1]);
  case 3:
    return ((Closure * (*)(W1, W1, W1)) Fn)(W[0], W[1], W[2]);
  case 4:
    return ((Closure * (*)(W1, W1, W1, W1)) Fn)(W[0], W[1], W[2], W[3]);
  case 5:
    return ((Closure * (*)(W1, W1, W1, W1, W1)) Fn)(W[0], W[1], W[2], W[3],
                                                    W[4]);
  case 6:
    return ((Closure * (*)(W1, W1, W1, W1, W1, W1)) Fn)(W[0], W[1], W[2],
                                                        W[3], W[4], W[5]);
  case 7:
    return ((Closure * (*)(W1, W1, W1, W1, W1, W1, W1)) Fn)(
        W[0], W[1], W[2], W[3], W[4], W[5], W[6]);
  case 8:
    return ((Closure * (*)(W1, W1, W1, W1, W1, W1, W1, W1)) Fn)(
        W[0], W[1], W[2], W[3], W[4], W[5], W[6], W[7]);
  case 9:
    return ((Closure * (*)(W1, W1, W1, W1, W1, W1, W1, W1, W1)) Fn)(
        W[0], W[1], W[2], W[3], W[4], W[5], W[6], W[7], W[8]);
  case 10:
    return ((Closure * (*)(W1, W1, W1, W1, W1, W1, W1, W1, W1, W1)) Fn)(
        W[0], W[1], W[2], W[3], W[4], W[5], W[6], W[7], W[8], W[9]);
  case 11:
    return (
        (Closure * (*)(W1, W1, W1, W1, W1, W1, W1, W1, W1, W1, W1)) Fn)(
        W[0], W[1], W[2], W[3], W[4], W[5], W[6], W[7], W[8], W[9], W[10]);
  case 12:
    return ((Closure *
             (*)(W1, W1, W1, W1, W1, W1, W1, W1, W1, W1, W1, W1)) Fn)(
        W[0], W[1], W[2], W[3], W[4], W[5], W[6], W[7], W[8], W[9], W[10],
        W[11]);
  default:
    fatalError("compiled function arity exceeds the shim limit");
  }
}

/// The trampoline entry for shim closures.
Closure *shimInvoker(Runtime &, Closure *C, Word Subst) {
  const Word *A = C->args();
  void *Fn = fromWord<void *>(A[0]);
  size_t N = static_cast<size_t>(A[1]);
  Word SubstPos = A[2];
  assert(C->numArgs() == N + 3 && "shim closure frame corrupt");
  // Initializers of modifiables are handled in the shim itself: the
  // block address arrives in the substitution register.
  if (Fn == reinterpret_cast<void *>(&modref_init)) {
    new (fromWord<void *>(Subst)) Modref();
    return nullptr;
  }
  Word W[shim::MaxCArity];
  assert(N <= shim::MaxCArity && "closure made past the arity check");
  for (size_t I = 0; I < N; ++I)
    W[I] = A[3 + I];
  if (SubstPos != NoSubst)
    W[SubstPos] = Subst;
  return callCFunction(Fn, W, N);
}

/// Makes a shim closure for \p Fn over \p N parameter words. The arity
/// bound is checked here, in every build type, so that shimInvoker's
/// fixed argument array cannot overflow when the closure runs.
template <typename ArgT>
Closure *makeShimClosure(Runtime &RT, void *Fn, size_t N, const ArgT *Args) {
  checkAlways(N <= shim::MaxCArity,
              "compiled function arity exceeds the shim limit");
  Word Frame[3 + shim::MaxCArity];
  Frame[0] = toWord(Fn);
  Frame[1] = N;
  Frame[2] = NoSubst;
  for (size_t I = 0; I < N; ++I)
    Frame[3 + I] = static_cast<Word>(Args[I]);
  return RT.makeRaw(&shimInvoker, Frame, 3 + N);
}

} // namespace

void shim::setRuntime(Runtime *RT) { GlobalRT = RT; }
Runtime *shim::currentRuntime() { return GlobalRT; }

Closure *shim::makeEntryClosure(Runtime &RT, void *CFn,
                                const std::vector<Word> &Args) {
  return makeShimClosure(RT, CFn, Args.size(), Args.data());
}

//===----------------------------------------------------------------------===//
// The C ABI (paper Fig. 11)
//===----------------------------------------------------------------------===//

Closure *ceal_closure_make_words(void *Fn, int NumArgs,
                                 const intptr_t *Args) {
  checkAlways(NumArgs >= 0, "negative closure arity");
  return makeShimClosure(rt(), Fn, static_cast<size_t>(NumArgs), Args);
}

Closure *ceal_closure_with_subst(Closure *C, int Pos) {
  assert(Pos >= 0 && static_cast<Word>(Pos) < C->args()[1] &&
         "substitution position out of range");
  C->args()[2] = static_cast<Word>(Pos);
  return C;
}

void closure_run(Closure *C) { rt().call(C); }

void modref_init(modref_t_c *M) {
  // Normally intercepted by shimInvoker (the address is the marker);
  // callable directly for completeness.
  new (M) Modref();
}

void modref_write(modref_t_c *M, void *V) {
  rt().write(reinterpret_cast<Modref *>(M), toWord(V));
}

// read() and allocate() copy the closure into their trace node, so the
// one closure_make built for the call is freed once it returns.
Closure *modref_read(modref_t_c *M, Closure *C) {
  Runtime &RT = rt();
  Closure *K = RT.read(reinterpret_cast<Modref *>(M), C);
  RT.freeClosure(C);
  return K;
}

void *allocate(size_t N, Closure *C) {
  // Blocks initialized by modref_init are modifiables and participate in
  // the runtime's trace collection accordingly.
  uint8_t Flags = 0;
  if (C->numArgs() >= 1 &&
      fromWord<void *>(C->args()[0]) ==
          reinterpret_cast<void *>(&modref_init))
    Flags = AllocNode::FlagModref;
  Runtime &RT = rt();
  void *Block = RT.allocate(N, C, Flags);
  RT.freeClosure(C);
  return Block;
}
