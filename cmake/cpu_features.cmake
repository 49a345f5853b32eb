# cpu_features.cmake - compile-time gates for the SIMD kernel library.
#
# Decides which per-ISA kernel translation units (src/support/simd/) are
# compiled into ceal_support. Each variant needs two things: an x86
# target, and a compiler that accepts the ISA flags and intrinsics. The
# *runtime* decision — whether the executing CPU may run a variant — is
# made separately by CPUID probing in SimdDispatch.cpp; this module only
# guarantees that on non-x86 or feature-poor toolchains the build falls
# back to scalar-only with no source changes (no unconditional
# intrinsics anywhere).
#
# Outputs (cache-visible):
#   CEAL_SIMD_HAVE_AVX2 / _AVX512  - TRUE when the variant TU builds
#   CEAL_SIMD_AVX2_FLAGS / ...     - per-TU compile options
#
# The CEAL_SIMD option switches the whole mechanism off (scalar-only
# build regardless of host); the CEAL_SIMD=scalar environment variable
# is the runtime kill switch for a binary that was built with variants.

include(CheckCXXSourceCompiles)

option(CEAL_SIMD "Build AVX2/AVX-512 kernel variants on x86" ON)

set(CEAL_SIMD_HAVE_AVX2 FALSE)
set(CEAL_SIMD_HAVE_AVX512 FALSE)
set(CEAL_SIMD_AVX2_FLAGS "-mavx2")
# F: foundation; DQ: vpmullq (the 64-bit multiply the mixer needs);
# BW/VL narrow-width ops on 128/256-bit registers for the tails.
set(CEAL_SIMD_AVX512_FLAGS "-mavx512f;-mavx512dq;-mavx512bw;-mavx512vl")

set(CEAL_SIMD_X86 FALSE)
if(CMAKE_SYSTEM_PROCESSOR MATCHES "^(x86_64|amd64|AMD64|i[3-6]86|x86)$")
  set(CEAL_SIMD_X86 TRUE)
endif()

# Each probe compiles a representative intrinsic under the variant's
# flags, so a toolchain that knows the flag but lacks the header (or
# vice versa) still degrades cleanly.
function(ceal_simd_probe out_var flags source)
  set(CMAKE_REQUIRED_FLAGS "${flags}")
  check_cxx_source_compiles("${source}" ${out_var})
  set(${out_var} "${${out_var}}" PARENT_SCOPE)
endfunction()

if(CEAL_SIMD AND CEAL_SIMD_X86)
  ceal_simd_probe(CEAL_SIMD_PROBE_AVX2 "-mavx2" "
    #include <immintrin.h>
    int main() {
      __m256i A = _mm256_set1_epi64x(3);
      A = _mm256_add_epi64(A, _mm256_mul_epu32(A, A));
      return static_cast<int>(_mm256_extract_epi64(A, 0) - 12);
    }")
  string(REPLACE ";" " " _ceal_avx512_flags_sp "${CEAL_SIMD_AVX512_FLAGS}")
  ceal_simd_probe(CEAL_SIMD_PROBE_AVX512 "${_ceal_avx512_flags_sp}" "
    #include <immintrin.h>
    int main() {
      __m512i A = _mm512_set1_epi64(3);
      A = _mm512_mullo_epi64(A, A);
      __mmask16 M = _mm512_cmpge_epu32_mask(A, _mm512_set1_epi32(1));
      return M == 0xffff ? 0 : 1;
    }")
  if(CEAL_SIMD_PROBE_AVX2)
    set(CEAL_SIMD_HAVE_AVX2 TRUE)
  endif()
  if(CEAL_SIMD_PROBE_AVX512)
    set(CEAL_SIMD_HAVE_AVX512 TRUE)
  endif()
endif()

set(_ceal_simd_variants "scalar")
foreach(v AVX2 AVX512)
  if(CEAL_SIMD_HAVE_${v})
    string(TOLOWER ${v} _vl)
    list(APPEND _ceal_simd_variants ${_vl})
  endif()
endforeach()
message(STATUS "CEAL SIMD kernel variants: ${_ceal_simd_variants}")
