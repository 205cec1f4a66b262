#pragma once

/// \file codegen.hpp
/// Code-generation attributes shared by the hot kernels: FRLFI_RESTRICT
/// and the wider-vector clone policy (FRLFI_TARGET_CLONES).

#if defined(__GNUC__) || defined(__clang__)
#define FRLFI_RESTRICT __restrict__
#else
#define FRLFI_RESTRICT
#endif

// Runtime-dispatched wider-vector clones, for kernels whose result cannot
// depend on the vector width:
//  * float loops that are pure elementwise/saxpy chains, the ordered
//    GEMMs among them (gemm_bias_rows_ordered, gemm_tn's ordered kernel),
//    whose register strips run each element's chain in increasing k.
//    AVX2 vmulps/vaddps are IEEE-identical per lane to the SSE baseline
//    and the build keeps ISO fp-contract (no FMA fusing), so for
//    reduction-free loops the vector width cannot change a single result
//    bit;
//  * integer-only kernels (shifts, adds, XORs, compares), which are exact
//    at any width: Rng::bernoulli_hits' lane walk.
// Cloning preserves the library's cross-machine bit-reproducibility while
// roughly doubling hot-loop throughput on AVX2 parts. Float kernels with
// reductions (packed narrow dots, the transposed GEMMs' dot kernels,
// gemv_bias) must NOT be cloned: their reduction-tree shape follows the
// vector width. The one exception is a sum whose value only feeds a bound
// that holds for every tree (SgdOptimizer's clip-norm screen).
// Disabled under ThreadSanitizer: target_clones emits IFUNC
// resolvers that run before the TSan runtime initializes, crashing any
// binary that links a cloned kernel at load time (dispatch is identical
// either way, so sanitizer builds just lose the wider vectors).
#if defined(__SANITIZE_THREAD__)
#define FRLFI_NO_TARGET_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FRLFI_NO_TARGET_CLONES 1
#endif
#endif
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__AVX2__) && !defined(FRLFI_NO_TARGET_CLONES)
#define FRLFI_TARGET_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define FRLFI_TARGET_CLONES
#endif
