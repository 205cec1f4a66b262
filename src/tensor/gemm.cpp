#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

namespace frlfi {
namespace {

// Block sizes sized for typical L1/L2: a kBlockK x kBlockJ panel of B
// (~256 KiB upper bound at floats) plus a kBlockI x kBlockK panel of A.
// The policy-network matrices here are small enough to fit in one block;
// the blocking exists so campaign-scale batched shapes keep streaming.
constexpr std::size_t kBlockI = 64;
constexpr std::size_t kBlockK = 256;
constexpr std::size_t kBlockJ = 512;

// Narrow-output kernel for n < kGemmNarrowN: with only a few columns the
// saxpy form degenerates to scalar loop overhead, so pack Bᵀ (n rows of k
// contiguous floats, rebuilt in a reused thread-local scratch) and compute
// each output as a SIMD dot product. The `reduction` vectorizes the k-chain
// as a tree, so this path may differ from the reference order in the last
// ulps — the one place gemm_bias_rows trades exact ordering for
// throughput (see the header contract).

inline void accumulate_narrow(const float* FRLFI_RESTRICT a,
                              const float* FRLFI_RESTRICT b,
                              float* FRLFI_RESTRICT c, std::size_t m,
                              std::size_t k, std::size_t n) {
  thread_local std::vector<float> scratch;
  scratch.resize(n * k);
  float* FRLFI_RESTRICT bt = scratch.data();
  for (std::size_t p = 0; p < k; ++p)
    for (std::size_t j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
  for (std::size_t i = 0; i < m; ++i) {
    const float* FRLFI_RESTRICT arow = a + i * k;
    float* FRLFI_RESTRICT crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* FRLFI_RESTRICT brow = bt + j * k;
      float acc = 0.0f;
#pragma omp simd reduction(+ : acc)  // frlfi-lint: allow(R4) fixed-ISA portable build pins the tree shape; locked vs naive golden refs by test_gemm
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

// Wide-output kernel: six accumulator rows share every load of the b-row,
// streamed across j under `omp simd`. GCC vectorizes the j loop without
// reassociating the per-element k-chain, so for each c[i][j] the reduction
// runs in strictly increasing p order — bit-identical to the naive loops.
inline void saxpy_rows6(const float* FRLFI_RESTRICT a,
                        const float* FRLFI_RESTRICT b, float* FRLFI_RESTRICT c,
                        std::size_t i0, std::size_t imax, std::size_t p0,
                        std::size_t pmax, std::size_t j0, std::size_t jlen,
                        std::size_t k, std::size_t n) {
  std::size_t i = i0;
  for (; i + 6 <= imax; i += 6) {
    const float* FRLFI_RESTRICT a0 = a + (i + 0) * k;
    const float* FRLFI_RESTRICT a1 = a + (i + 1) * k;
    const float* FRLFI_RESTRICT a2 = a + (i + 2) * k;
    const float* FRLFI_RESTRICT a3 = a + (i + 3) * k;
    const float* FRLFI_RESTRICT a4 = a + (i + 4) * k;
    const float* FRLFI_RESTRICT a5 = a + (i + 5) * k;
    float* FRLFI_RESTRICT c0 = c + (i + 0) * n + j0;
    float* FRLFI_RESTRICT c1 = c + (i + 1) * n + j0;
    float* FRLFI_RESTRICT c2 = c + (i + 2) * n + j0;
    float* FRLFI_RESTRICT c3 = c + (i + 3) * n + j0;
    float* FRLFI_RESTRICT c4 = c + (i + 4) * n + j0;
    float* FRLFI_RESTRICT c5 = c + (i + 5) * n + j0;
    for (std::size_t p = p0; p < pmax; ++p) {
      const float av0 = a0[p], av1 = a1[p], av2 = a2[p];
      const float av3 = a3[p], av4 = a4[p], av5 = a5[p];
      const float* FRLFI_RESTRICT brow = b + p * n + j0;
#pragma omp simd
      for (std::size_t j = 0; j < jlen; ++j) {
        const float bv = brow[j];
        c0[j] += av0 * bv;
        c1[j] += av1 * bv;
        c2[j] += av2 * bv;
        c3[j] += av3 * bv;
        c4[j] += av4 * bv;
        c5[j] += av5 * bv;
      }
    }
  }
  for (; i < imax; ++i) {
    float* FRLFI_RESTRICT crow = c + i * n + j0;
    const float* FRLFI_RESTRICT arow = a + i * k;
    for (std::size_t p = p0; p < pmax; ++p) {
      const float av = arow[p];
      const float* FRLFI_RESTRICT brow = b + p * n + j0;
#pragma omp simd
      for (std::size_t j = 0; j < jlen; ++j) crow[j] += av * brow[j];
    }
  }
}

// Out-of-line so the saxpy loops inline into each target clone and the
// whole wide-GEMM path gets the AVX2 codegen (see FRLFI_TARGET_CLONES:
// every loop in here is an ordered saxpy chain, so the clones are
// bit-identical).
FRLFI_TARGET_CLONES
void accumulate_blocked_from(const float* FRLFI_RESTRICT a,
                             const float* FRLFI_RESTRICT b,
                             float* FRLFI_RESTRICT c, std::size_t m,
                             std::size_t k, std::size_t n,
                             std::size_t p_begin) {
  for (std::size_t i0 = 0; i0 < m; i0 += kBlockI) {
    const std::size_t imax = std::min(i0 + kBlockI, m);
    for (std::size_t p0 = p_begin; p0 < k; p0 += kBlockK) {
      const std::size_t pmax = std::min(p0 + kBlockK, k);
      for (std::size_t j0 = 0; j0 < n; j0 += kBlockJ) {
        const std::size_t jlen = std::min(j0 + kBlockJ, n) - j0;
        saxpy_rows6(a, b, c, i0, imax, p0, pmax, j0, jlen, k, n);
      }
    }
  }
}

}  // namespace

void gemm_bias_rows(const float* a, const float* b, const float* bias,
                    float* c, std::size_t m, std::size_t k, std::size_t n) {
  if (n < kGemmNarrowN) {
    for (std::size_t i = 0; i < m; ++i) {
      const float bi = bias[i];
      float* FRLFI_RESTRICT crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] = bi;
    }
    accumulate_narrow(a, b, c, m, k, n);
    return;
  }
  gemm_bias_rows_ordered(a, b, bias, c, m, k, n);
}

FRLFI_TARGET_CLONES
void gemm_bias_rows_ordered(const float* a, const float* b, const float* bias,
                            float* c, std::size_t m, std::size_t k,
                            std::size_t n) {
  // Seed with the p = 0 term fused onto the bias (one write pass instead of
  // a bias fill followed by a read-modify-write), then accumulate the rest.
  for (std::size_t i = 0; i < m; ++i) {
    const float bi = bias[i];
    const float av = a[i * k];
    const float* FRLFI_RESTRICT brow = b;
    float* FRLFI_RESTRICT crow = c + i * n;
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j) crow[j] = bi + av * brow[j];
  }
  if (k > 1) accumulate_blocked_from(a, b, c, m, k, n, 1);
}

// gemm_nt_accumulate starts on a 32-byte boundary, so where its short
// inner loops fall relative to the core's 32-byte fetch windows depends on
// its own code only, not on the size of the functions above it in this
// file.
__attribute__((aligned(32)))
void gemm_nt_accumulate(const float* a, const float* b, float* c,
                        std::size_t m, std::size_t k, std::size_t n) {
  // Narrow-k path (mirrors the forward's packed narrow kernel): with only a
  // few reduction terms the per-output SIMD dot degenerates to loop
  // overhead, so unpack Bᵀ back to (k x n) once and stream saxpy rows —
  // contiguous j-vectorization with the k-chain in increasing p order.
  if (k < kGemmNarrowN && n >= kGemmNarrowN) {
    thread_local std::vector<float> scratch;
    scratch.resize(k * n);
    float* FRLFI_RESTRICT bn = scratch.data();
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p = 0; p < k; ++p) bn[p * n + j] = b[j * k + p];
    for (std::size_t i = 0; i < m; ++i) {
      const float* FRLFI_RESTRICT arow = a + i * k;
      float* FRLFI_RESTRICT crow = c + i * n;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        const float* FRLFI_RESTRICT brow = bn + p * n;
#pragma omp simd
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* FRLFI_RESTRICT arow = a + i * k;
    float* FRLFI_RESTRICT crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* FRLFI_RESTRICT brow = b + j * k;
      float acc = 0.0f;
#pragma omp simd reduction(+ : acc)  // frlfi-lint: allow(R4) fixed-ISA portable build pins the tree shape; locked vs naive golden refs by test_gemm
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

namespace {

// gemm_tn for n < kGemmNarrowN <= k: the j-vectorized saxpy degenerates
// when a row of C holds only a few elements, so pack both operands
// k-contiguous (Aᵀ is stored (k x m), B is (k x n)) and compute each
// output as a SIMD dot — the same shape of fix as gemm_bias_rows's packed
// narrow kernel. Its reduction tree follows the vector width, so it stays
// out of the clones.
void gemm_tn_narrow(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  thread_local std::vector<float> scratch;
  scratch.resize((m + n) * k);
  float* FRLFI_RESTRICT at = scratch.data();
  float* FRLFI_RESTRICT bt = scratch.data() + m * k;
  for (std::size_t p = 0; p < k; ++p) {
    const float* FRLFI_RESTRICT arow = a + p * m;
    for (std::size_t i = 0; i < m; ++i) at[i * k + p] = arow[i];
    const float* FRLFI_RESTRICT brow = b + p * n;
    for (std::size_t j = 0; j < n; ++j) bt[j * k + p] = brow[j];
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* FRLFI_RESTRICT arow = at + i * k;
    float* FRLFI_RESTRICT crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* FRLFI_RESTRICT brow = bt + j * k;
      float acc = 0.0f;
#pragma omp simd reduction(+ : acc)  // frlfi-lint: allow(R4) fixed-ISA portable build pins the tree shape; locked vs naive golden refs by test_gemm
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

// gemm_tn's ordered kernel: every element's k-chain starts at +0.0f and
// runs in increasing p. C is walked in 8-column strips; four rows of a
// strip keep their accumulators in registers over the whole chain, so C
// is written once instead of reloaded and stored per p. Reduction-free,
// so the clones are bit-identical (core/codegen.hpp).
FRLFI_TARGET_CLONES
void gemm_tn_ordered(const float* FRLFI_RESTRICT a,
                     const float* FRLFI_RESTRICT b, float* FRLFI_RESTRICT c,
                     std::size_t m, std::size_t k, std::size_t n) {
  constexpr std::size_t kCols = 8;
  std::size_t j0 = 0;
  for (; j0 + kCols <= n; j0 += kCols) {
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      float acc0[kCols] = {}, acc1[kCols] = {}, acc2[kCols] = {},
            acc3[kCols] = {};
      for (std::size_t p = 0; p < k; ++p) {
        const float* FRLFI_RESTRICT arow = a + p * m + i;
        const float a0 = arow[0], a1 = arow[1], a2 = arow[2], a3 = arow[3];
        const float* FRLFI_RESTRICT brow = b + p * n + j0;
#pragma omp simd
        for (std::size_t l = 0; l < kCols; ++l) {
          acc0[l] += a0 * brow[l];
          acc1[l] += a1 * brow[l];
          acc2[l] += a2 * brow[l];
          acc3[l] += a3 * brow[l];
        }
      }
      for (std::size_t l = 0; l < kCols; ++l) {
        c[(i + 0) * n + j0 + l] = acc0[l];
        c[(i + 1) * n + j0 + l] = acc1[l];
        c[(i + 2) * n + j0 + l] = acc2[l];
        c[(i + 3) * n + j0 + l] = acc3[l];
      }
    }
    for (; i < m; ++i) {
      float acc[kCols] = {};
      for (std::size_t p = 0; p < k; ++p) {
        const float av = a[p * m + i];
        const float* FRLFI_RESTRICT brow = b + p * n + j0;
#pragma omp simd
        for (std::size_t l = 0; l < kCols; ++l) acc[l] += av * brow[l];
      }
      for (std::size_t l = 0; l < kCols; ++l) c[i * n + j0 + l] = acc[l];
    }
  }
  if (j0 == n) return;
  // The last n % 8 columns.
  const std::size_t jlen = n - j0;
  for (std::size_t i = 0; i < m; ++i) {
    float acc[kCols] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[p * m + i];
      const float* FRLFI_RESTRICT brow = b + p * n + j0;
      for (std::size_t l = 0; l < jlen; ++l) acc[l] += av * brow[l];
    }
    for (std::size_t l = 0; l < jlen; ++l) c[i * n + j0 + l] = acc[l];
  }
}

}  // namespace

void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n) {
  if (n < kGemmNarrowN && k >= kGemmNarrowN)
    gemm_tn_narrow(a, b, c, m, k, n);
  else
    gemm_tn_ordered(a, b, c, m, k, n);
}

FRLFI_TARGET_CLONES
void axpy(float alpha, const float* x, float* y, std::size_t n) {
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j) y[j] += alpha * x[j];
}

void gemv_bias(const float* w, const float* x, const float* bias, float* y,
               std::size_t m, std::size_t n) {
  // Eight rows at a time: each row keeps its own bias-seeded chain in
  // increasing j order, so only independent chains share the pipeline and
  // no sum is reassociated. A lone row's chain is bound by the add latency.
  // No aligned(32): with and without it, frlbench infer_campaign read the
  // same over 20 alternating pairs (per-pair median ratios 0.95 and 1.03)
  // and grid_train over 8 (0.99), on a 4-thread x86-64 host.
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const float* FRLFI_RESTRICT w0 = w + i * n;
    float a0 = bias[i + 0], a1 = bias[i + 1], a2 = bias[i + 2],
          a3 = bias[i + 3], a4 = bias[i + 4], a5 = bias[i + 5],
          a6 = bias[i + 6], a7 = bias[i + 7];
    for (std::size_t j = 0; j < n; ++j) {
      const float xj = x[j];
      a0 += w0[0 * n + j] * xj;
      a1 += w0[1 * n + j] * xj;
      a2 += w0[2 * n + j] * xj;
      a3 += w0[3 * n + j] * xj;
      a4 += w0[4 * n + j] * xj;
      a5 += w0[5 * n + j] * xj;
      a6 += w0[6 * n + j] * xj;
      a7 += w0[7 * n + j] * xj;
    }
    y[i + 0] = a0;
    y[i + 1] = a1;
    y[i + 2] = a2;
    y[i + 3] = a3;
    y[i + 4] = a4;
    y[i + 5] = a5;
    y[i + 6] = a6;
    y[i + 7] = a7;
  }
  for (; i < m; ++i) {
    const float* FRLFI_RESTRICT wrow = w + i * n;
    float acc = bias[i];
    for (std::size_t j = 0; j < n; ++j) acc += wrow[j] * x[j];
    y[i] = acc;
  }
}

FRLFI_TARGET_CLONES
void gemv_t_accumulate(const float* w, const float* g, float* y, std::size_t m,
                       std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float gi = g[i];
    const float* FRLFI_RESTRICT wrow = w + i * n;
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j) y[j] += gi * wrow[j];
  }
}

FRLFI_TARGET_CLONES
void ger_accumulate(const float* g, const float* x, float* a, std::size_t m,
                    std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float gi = g[i];
    float* FRLFI_RESTRICT arow = a + i * n;
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j) arow[j] += gi * x[j];
  }
}

}  // namespace frlfi
