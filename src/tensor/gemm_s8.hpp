#pragma once

/// \file gemm_s8.hpp
/// Int8 GEMM/GEMV kernels for the quantized inference plane: int8 weights
/// times int8 activations accumulated in int32, the compute substrate
/// under the layers' quant-source infer paths (see nn/layer.hpp).
///
/// Numeric contract. Integer accumulation is exact and associative: unlike
/// the float kernels in gemm.hpp, *any* summation order of the int32
/// products yields the same bits, so the SIMD kernels here are
/// bit-identical to their scalar references by arithmetic, not by ordering
/// discipline. The scalar `*_ref` kernels (strictly increasing k order)
/// are nevertheless retained as the golden references the equivalence
/// tests lock the vectorized kernels against, mirroring the float plane.
///
/// Overflow contract. Operands are deployed int8 words: clean images hold
/// values in [-127, 127] (Int8Quantizer's symmetric clamp) and corrupted
/// words may reach -128, so |product| <= 128*128 = 16384 and an int32
/// accumulator is exact for any k <= 2^17 — far beyond every policy shape
/// in the tree (the largest k is the drone FC1's 48). Callers must keep
/// k below that bound.

#include <cstddef>
#include <cstdint>

namespace frlfi {

/// y (m) = W (m x n) · x (n) in int32. y is overwritten. SIMD-reduced
/// (exact, see file header); gemv_s8_ref is the golden reference.
void gemv_s8(const std::int8_t* w, const std::int8_t* x, std::int32_t* y,
             std::size_t m, std::size_t n);

/// Scalar golden reference for gemv_s8: per output row, products summed in
/// strictly increasing column order.
void gemv_s8_ref(const std::int8_t* w, const std::int8_t* x, std::int32_t* y,
                 std::size_t m, std::size_t n);

/// C (m x n) = A (m x k) · B (k x n) in int32. C is overwritten. Wide n
/// runs the saxpy-form row kernel; narrow n (< 16 columns) packs Bᵀ and
/// runs per-output dots — both exact, so both match gemm_s8_ref
/// bit-for-bit at every shape (no width threshold in the numeric contract,
/// unlike the float plane).
void gemm_s8(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
             std::size_t m, std::size_t k, std::size_t n);

/// Scalar golden reference for gemm_s8: per output element, products
/// summed in strictly increasing k order.
void gemm_s8_ref(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                 std::size_t m, std::size_t k, std::size_t n);

}  // namespace frlfi
