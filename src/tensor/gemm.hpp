#pragma once

/// \file gemm.hpp
/// Row-major float GEMM/GEMV kernels: the compute substrate under `Dense`
/// and the im2col path of `Conv2D`.
///
/// All kernels take raw pointers into row-major storage and make two
/// ordering guarantees that the rest of the library leans on:
///  * for each output element, the k-reduction of `gemm_bias_rows`,
///    `gemv_bias` and `gemv_t_accumulate` runs in strictly increasing k
///    order, so the GEMM-backed layer paths are bit-identical to the naive
///    reference loops they replaced (padding contributes exact +0.0f
///    terms);
///  * register tiling never reorders that per-element chain, only the
///    traversal of independent output elements.
/// Two deliberate exceptions trade exact ordering for throughput (always
/// deterministic for a given shape, just not reference-ordered):
///  * gemm_bias_rows with n < kGemmNarrowN switches to a packed SIMD
///    dot-product kernel (the saxpy form degenerates to scalar loop
///    overhead there);
///  * `gemm_nt_accumulate`, and `gemm_tn` with n < kGemmNarrowN <= k, use
///    SIMD reductions.

#include <cstddef>

#include "core/codegen.hpp"  // FRLFI_RESTRICT, FRLFI_TARGET_CLONES

namespace frlfi {

/// Output width below which gemm_bias_rows leaves the ordered chain for
/// the packed (reassociating) narrow kernel. Conv2D::infer reads it to
/// run its direct batch kernel only where forward() runs the ordered one.
inline constexpr std::size_t kGemmNarrowN = 8;

/// C (m x n) = row-bias + A·B: c[i][j] = bias[i] + sum_p a[i][p]·b[p][j],
/// the accumulator seeded from bias[i] before the k-chain — the exact
/// summation order of the naive convolution loops. C is overwritten.
/// Fused form used by Conv2D::forward (m and k must be >= 1).
void gemm_bias_rows(const float* a, const float* b, const float* bias,
                    float* c, std::size_t m, std::size_t k, std::size_t n);

/// gemm_bias_rows that always runs the ordered kernel, even below the
/// narrow-n threshold where gemm_bias_rows would switch to the packed
/// (reassociating) dot kernel. Groups of rows by one vector-width column
/// strip keep their bias-seeded increasing-p chains in registers and
/// write C once; a width below the strip runs as one strip. Reduction-free,
/// so it carries the wider-vector clones (core/codegen.hpp). Used by
/// Dense's batch-inner GEMM (n = B) at every width >= 2, so its
/// per-element chain is gemv_bias's and a sample's result cannot depend
/// on how many samples share its batch. m and k must be >= 1.
void gemm_bias_rows_ordered(const float* a, const float* b, const float* bias,
                            float* c, std::size_t m, std::size_t k,
                            std::size_t n);

/// C (m x n) += A (m x k) · Bᵀ where B is stored (n x k). Both operand
/// rows are contiguous, so the k-reduction vectorizes as a dot product.
void gemm_nt_accumulate(const float* a, const float* b, float* c,
                        std::size_t m, std::size_t k, std::size_t n);

/// C (m x n) = Aᵀ · B where A is stored (k x m) and B is (k x n). For
/// n >= kGemmNarrowN or k < kGemmNarrowN each element is the ordered chain
/// +0.0f + a[0][i]·b[0][j] + a[1][i]·b[1][j] + ... in increasing p.
void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n);

/// y (n) += alpha · x (n): the BLAS saxpy. Reduction-free elementwise
/// chain, so it carries the wider-vector clones; alpha == 1.0f multiplies
/// exactly, which is what lets the federated row-sum accumulate rows in
/// agent order bit-identically to the scalar reference loop.
void axpy(float alpha, const float* x, float* y, std::size_t n);

/// y (m) = bias (m) + W (m x n) · x (n), with the accumulator seeded from
/// bias[i] before the dot product — the exact summation order of the naive
/// Dense/Conv forward loops, kept for bit-reproducibility.
void gemv_bias(const float* w, const float* x, const float* bias, float* y,
               std::size_t m, std::size_t n);

/// y (n) += Wᵀ · g where W is stored (m x n) and g is (m). Row-major
/// friendly form of the Dense input-gradient product.
void gemv_t_accumulate(const float* w, const float* g, float* y, std::size_t m,
                       std::size_t n);

/// A (m x n) += g (m) · xᵀ (n): rank-1 update for Dense weight gradients.
void ger_accumulate(const float* g, const float* x, float* a, std::size_t m,
                    std::size_t n);

}  // namespace frlfi
