#include "tensor/gemm.hpp"

#include <cstring>
#include <vector>

namespace frlfi {
namespace {

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

// gemm_bias_rows_ordered's strips: kStripRows rows of C by kStrip columns
// (one AVX-512 vector; two AVX2 or four SSE vectors). Each strip's
// accumulators are seeded from bias[i], run the whole increasing-p chain in
// registers and are written once.
constexpr std::size_t kStrip = 16;
constexpr std::size_t kStripRows = 4;
typedef float StripVec __attribute__((vector_size(kStrip * sizeof(float))));

// One column strip: row p of B is read at b + p * ld for p < bsplit and at
// btail + (p - bsplit) * ld after; row i of C is written at c + i * ld for
// i < csplit and at ctail + (i - csplit) * ld after. Every read and write
// is a whole StripVec.
struct Strip {
  const float* b;
  const float* btail;
  std::size_t bsplit;
  float* c;
  float* ctail;
  std::size_t csplit;
  std::size_t ld;
};

// Rows i .. i+R-1 of one strip. Reduction-free: per lane the chain is
// bias[i], then + a[i][p]·b[p][j] for p = 0, 1, ..., k-1.
template <std::size_t R>
[[gnu::always_inline]] inline void ordered_strip(
    const float* FRLFI_RESTRICT a, const float* FRLFI_RESTRICT bias,
    const Strip& s, std::size_t i, std::size_t k) {
  StripVec acc[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t l = 0; l < kStrip; ++l) acc[r][l] = bias[i + r];
  for (std::size_t p = 0; p < k; ++p) {
    const float* brow =
        p < s.bsplit ? s.b + p * s.ld : s.btail + (p - s.bsplit) * s.ld;
    StripVec bv;
    std::memcpy(&bv, brow, sizeof bv);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) acc[r] += a[(i + r) * k + p] * bv;
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    float* crow = i + r < s.csplit ? s.c + (i + r) * s.ld
                                   : s.ctail + (i + r - s.csplit) * s.ld;
    std::memcpy(crow, &acc[r], sizeof acc[r]);
  }
}

// Every row of one strip, in increasing i: kStripRows groups, then the rest.
[[gnu::always_inline]] inline void ordered_strip_rows(
    const float* FRLFI_RESTRICT a, const float* FRLFI_RESTRICT bias,
    const Strip& s, std::size_t m, std::size_t k) {
  std::size_t i = 0;
  for (; i + kStripRows <= m; i += kStripRows)
    ordered_strip<kStripRows>(a, bias, s, i, k);
  switch (m - i) {
    case 3:
      ordered_strip<3>(a, bias, s, i, k);
      break;
    case 2:
      ordered_strip<2>(a, bias, s, i, k);
      break;
    case 1:
      ordered_strip<1>(a, bias, s, i, k);
      break;
    default:
      break;
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

// The last n % kStrip columns run first, as one more strip over the same
// rows of B and C: its vector loads and stores run on past the live
// columns into the rows below. Rows are stored in increasing i, so what a
// row's store spills into is a later row's own strip (n < kStrip) or whole
// strips (n > kStrip), and both are stored afterwards. Only the last rows,
// whose loads or stores would leave B or C, go through two small tails:
// the end of B copied into zeros, and a C tile copied out once. So every
// width below kStrip is a single strip, and no operand is repacked.
FRLFI_TARGET_CLONES
void gemm_bias_rows_ordered(const float* a, const float* b, const float* bias,
                            float* c, std::size_t m, std::size_t k,
                            std::size_t n) {
  const std::size_t live = n % kStrip;
  if (live != 0) {
    const std::size_t j0 = n - live;
    // First of `rows` rows whose kStrip floats at row * n + j0 run past the
    // matrix end. From there to the end is under 2 * kStrip floats.
    const auto first_past_end = [&](std::size_t rows) {
      return rows * n >= j0 + kStrip ? (rows * n - j0 - kStrip) / n + 1 : 0;
    };
    const std::size_t bsplit = first_past_end(k), csplit = first_past_end(m);
    alignas(64) float btail[2 * kStrip] = {};
    alignas(64) float ctail[2 * kStrip];
    std::memcpy(btail, b + bsplit * n + j0,
                ((k - bsplit) * n - j0) * sizeof(float));
    ordered_strip_rows(a, bias,
                       Strip{b + j0, btail, bsplit, c + j0, ctail, csplit, n},
                       m, k);
    std::memcpy(c + csplit * n + j0, ctail,
                ((m - csplit) * n - j0) * sizeof(float));
  }
  for (std::size_t j0 = 0; j0 + kStrip <= n; j0 += kStrip)
    ordered_strip_rows(
        a, bias, Strip{b + j0, nullptr, k, c + j0, nullptr, m, n}, m, k);
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
