//===- support/simd/SimdDispatch.cpp - CPUID probe + variant select -------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// One-time, process-wide selection of the kernel variant: the widest
// ISA the executing CPU supports among the variants this binary was
// built with, clamped by the CEAL_SIMD environment override. The
// resolved table never changes afterwards, so callers may cache ops()
// freely and per-kernel counters can attribute every call to one
// variant.
//
//===----------------------------------------------------------------------===//

#include "support/simd/Simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ceal::simd {

const char *variantName(Variant V) {
  switch (V) {
  case Variant::Scalar:
    return "scalar";
  case Variant::Avx2:
    return "avx2";
  case Variant::Avx512:
    return "avx512";
  }
  return "?";
}

const char *kernelName(Kernel K) {
  switch (K) {
  case Kernel::ChecksumBlocks:
    return "checksum_blocks";
  case Kernel::HashBatch:
    return "hash_batch";
  case Kernel::BoundsCheckU32:
    return "bounds_check_u32";
  case Kernel::BucketIndex:
    return "bucket_index";
  case Kernel::OmRelabel:
    return "om_relabel";
  }
  return "?";
}

bool variantCompiled(Variant V) {
  switch (V) {
  case Variant::Scalar:
    return true;
  case Variant::Avx2:
#ifdef CEAL_SIMD_HAVE_AVX2
    return true;
#else
    return false;
#endif
  case Variant::Avx512:
#ifdef CEAL_SIMD_HAVE_AVX512
    return true;
#else
    return false;
#endif
  }
  return false;
}

bool cpuSupports(Variant V) {
#if defined(__x86_64__) || defined(__i386__)
  switch (V) {
  case Variant::Scalar:
    return true;
  case Variant::Avx2:
    return __builtin_cpu_supports("avx2");
  case Variant::Avx512:
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl");
  }
  return false;
#else
  return V == Variant::Scalar;
#endif
}

Variant maxSupported() {
  for (int V = int(NumVariants) - 1; V > 0; --V)
    if (variantCompiled(Variant(V)) && cpuSupports(Variant(V)))
      return Variant(V);
  return Variant::Scalar;
}

const Ops *variantOps(Variant V) {
  if (!variantCompiled(V) || !cpuSupports(V))
    return nullptr;
  switch (V) {
  case Variant::Scalar:
    return &scalarOps();
#ifdef CEAL_SIMD_HAVE_AVX2
  case Variant::Avx2:
    return &avx2Ops();
#endif
#ifdef CEAL_SIMD_HAVE_AVX512
  case Variant::Avx512:
    return &avx512Ops();
#endif
  default:
    return nullptr;
  }
}

namespace {

/// Parses CEAL_SIMD. Unknown strings warn once and mean "auto"; a
/// request above what the binary/CPU supports clamps down silently (the
/// variable is a ceiling, so forcing "avx512" on an AVX2 host runs the
/// AVX2 path — the forced-variant CI matrix relies on this).
Variant resolveSelection() {
  Variant Best = maxSupported();
  const char *Env = std::getenv("CEAL_SIMD");
  if (!Env || !*Env || std::strcmp(Env, "auto") == 0)
    return Best;
  Variant Want = Best;
  if (std::strcmp(Env, "scalar") == 0)
    Want = Variant::Scalar;
  else if (std::strcmp(Env, "avx2") == 0)
    Want = Variant::Avx2;
  else if (std::strcmp(Env, "avx512") == 0)
    Want = Variant::Avx512;
  else {
    std::fprintf(stderr,
                 "ceal: ignoring unknown CEAL_SIMD value '%s' "
                 "(want scalar|avx2|avx512|auto)\n",
                 Env);
    return Best;
  }
  if (int(Want) > int(Best))
    Want = Best;
  // The override may also name a variant below Best that was never
  // compiled (e.g. CEAL_SIMD=avx2 in a build whose toolchain accepted
  // only the AVX-512 flags); fall back to the widest one at or below the
  // request.
  while (int(Want) > 0 && variantOps(Want) == nullptr)
    Want = Variant(int(Want) - 1);
  return Want;
}

struct Resolved {
  Variant V;
  const Ops *O;
  Resolved() : V(resolveSelection()), O(variantOps(V)) {
    if (!O)
      O = &scalarOps();
  }
};

const Resolved &resolved() {
  // Thread-safe one-time init; everything afterwards is a const read.
  static const Resolved R;
  return R;
}

} // namespace

Variant selected() { return resolved().V; }
const Ops &ops() { return *resolved().O; }

KernelCounters &counters(Kernel K) {
  static KernelCounters Rows[NumKernels];
  return Rows[unsigned(K)];
}

void writeCountersJson(std::ostream &OS) {
  OS << "{\"selected\": \"" << variantName(selected())
     << "\", \"max_supported\": \"" << variantName(maxSupported())
     << "\", \"kernels\": [";
  for (unsigned K = 0; K < NumKernels; ++K) {
    const KernelCounters &C = counters(Kernel(K));
    OS << (K ? ", " : "") << "{\"kernel\": \"" << kernelName(Kernel(K))
       << "\", \"variant\": \"" << variantName(selected())
       << "\", \"calls\": " << C.Calls.load(std::memory_order_relaxed)
       << ", \"bytes\": " << C.Bytes.load(std::memory_order_relaxed) << "}";
  }
  OS << "]}";
}

} // namespace ceal::simd
