//===- support/simd/Simd.cpp - The cloned checksum sweep + counters -------===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// mixSweep is the one loop here that vectorizes profitably: 32 lanes of
// independent multiply chains. On x86-64 the compiler builds it three
// times (x86-64-v4 with a native 64-bit vector multiply, x86-64-v3, and
// the baseline) and an ifunc resolver binds the widest clone the CPU
// runs before main. The lanes live in a local array so the compiler
// keeps them in registers across blocks instead of re-reading the
// caller's memory, which it may not assume unaliased with Data. Words
// are loaded in host byte order, like every other snapshot field.
//
//===----------------------------------------------------------------------===//

#include "support/simd/Simd.h"

#include <cstring>

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CEAL_SWEEP_CLONES 1
#endif
#endif

namespace ceal::simd {

#ifdef CEAL_SWEEP_CLONES
__attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#endif
void mixSweep(uint64_t *Lanes, const unsigned char *Data, size_t NBlocks) {
  uint64_t L[HashLanes];
  std::memcpy(L, Lanes, sizeof(L));
  for (size_t B = 0; B < NBlocks; ++B, Data += ChecksumBlockBytes)
    // Fully unrolled, the vector accumulators stay in registers at -O2
    // too; without it only -O3 keeps them out of the stack array.
#pragma GCC unroll 32
    for (size_t I = 0; I < HashLanes; ++I) {
      uint64_t W;
      std::memcpy(&W, Data + I * 8, 8);
      L[I] = mixStep(L[I], W);
    }
  std::memcpy(Lanes, L, sizeof(L));
}

Variant selected() {
#ifdef CEAL_SWEEP_CLONES
  if (__builtin_cpu_supports("x86-64-v4"))
    return Variant::Avx512;
  if (__builtin_cpu_supports("x86-64-v3"))
    return Variant::Avx2;
#endif
  return Variant::Scalar;
}

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

KernelCounters &counters(Kernel K) {
  static KernelCounters Rows[NumKernels];
  return Rows[unsigned(K)];
}

void writeCountersJson(std::ostream &OS) {
  OS << "{\"selected\": \"" << variantName(selected()) << "\", \"kernels\": [";
  for (unsigned K = 0; K < NumKernels; ++K) {
    const KernelCounters &C = counters(Kernel(K));
    OS << (K ? ", " : "") << "{\"kernel\": \"" << kernelName(Kernel(K))
       << "\", \"calls\": " << C.Calls.load(std::memory_order_relaxed)
       << ", \"bytes\": " << C.Bytes.load(std::memory_order_relaxed) << "}";
  }
  OS << "]}";
}

} // namespace ceal::simd
