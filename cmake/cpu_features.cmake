# cpu_features.cmake - intentionally defines nothing.
#
# The only ISA-specific code, the checksum sweep in
# src/support/simd/Simd.cpp, is cloned per ISA level by the compiler
# (target_clones) and bound by the loader, so the build needs no probes,
# flags or options. perfbench/CMakeLists.txt still includes this file,
# which is why it exists.
