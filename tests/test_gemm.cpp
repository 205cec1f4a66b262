#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

std::vector<float> random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  std::vector<float> m(rows * cols);
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

// Textbook triple loop, the semantic reference for every kernel.
std::vector<float> reference_product(const std::vector<float>& a,
                                     const std::vector<float>& b,
                                     std::size_t m, std::size_t k,
                                     std::size_t n) {
  std::vector<float> c(m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t j = 0; j < n; ++j)
        c[i * n + j] += a[i * k + p] * b[p * n + j];
  return c;
}

void expect_near(const std::vector<float>& got, const std::vector<float>& want,
                 float tol = 1e-5f) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], tol) << "element " << i;
}

TEST(Gemm, BiasRowsMatchesReferenceAcrossSizes) {
  Rng rng(7);
  // Sizes straddle the blocking thresholds (64/256/512) in both directions
  // and the narrow-n packed-dot threshold (n < 8).
  const std::size_t cases[][3] = {
      {1, 1, 1},   {3, 5, 7},    {16, 48, 3},    {17, 33, 9},
      {6, 48, 50}, {64, 64, 64}, {65, 257, 513}, {2, 300, 600}};
  for (const auto& d : cases) {
    const std::size_t m = d[0], k = d[1], n = d[2];
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    const auto bias = random_matrix(m, 1, rng);
    auto want = reference_product(a, b, m, k, n);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) want[i * n + j] += bias[i];
    std::vector<float> got(m * n, 42.0f);  // must be overwritten
    gemm_bias_rows(a.data(), b.data(), bias.data(), got.data(), m, k, n);
    expect_near(got, want);
    std::vector<float> ordered(m * n, 42.0f);
    gemm_bias_rows_ordered(a.data(), b.data(), bias.data(), ordered.data(), m,
                           k, n);
    expect_near(ordered, want);
  }
}

/// Overwrite `count` entries of `v`, at positions drawn from `rng`, with
/// the values an ordered chain must carry through exactly: NaN, ±Inf, -0
/// and subnormals of both signs.
void salt(std::vector<float>& v, std::size_t count, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min() * 1234.0f;
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            inf,
                            -inf,
                            -0.0f,
                            sub,
                            -sub,
                            std::numeric_limits<float>::min() / 2.0f};
  for (std::size_t s = 0; s < count; ++s) {
    const auto at = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(v.size())));
    v[at < v.size() ? at : v.size() - 1] = specials[s % std::size(specials)];
  }
}

TEST(Gemm, BiasRowsOrderedMatchesBiasSeededChainBitwise) {
  // Every element of gemm_bias_rows_ordered is the chain bias[i] +
  // a[i][0]·b[0][j] + a[i][1]·b[1][j] + ... in increasing p, bit for bit:
  // whole strips, ragged tail strips of every width, row groups with their
  // leftover rows, and tails whose last rows run past the end of B and C.
  // Operands carry NaN, ±Inf, -0 and subnormals; C is checked whole with
  // memcmp, and the floats after it must be untouched.
  SKIP_ON_FMA();
  Rng rng(13);
  std::vector<std::size_t> widths;
  for (std::size_t n = 1; n <= 17; ++n) widths.push_back(n);
  widths.insert(widths.end(), {31, 32, 33, 50, 63, 64, 65, 120, 513});
  constexpr std::size_t kGuard = 40;
  constexpr float kSentinel = 42.0f;
  for (const std::size_t m : {1, 2, 4, 5, 6, 7, 12, 25, 32, 65}) {
    for (const std::size_t k : {1, 10, 32, 48, 54, 257}) {
      for (const std::size_t n : widths) {
        auto a = random_matrix(m, k, rng);
        auto b = random_matrix(k, n, rng);
        auto bias = random_matrix(m, 1, rng);
        salt(a, 6, rng);
        salt(b, 6, rng);
        salt(bias, 2, rng);
        std::vector<float> want(m * n);
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j) {
            float acc = bias[i];
            for (std::size_t p = 0; p < k; ++p)
              acc += a[i * k + p] * b[p * n + j];
            want[i * n + j] = acc;
          }
        std::vector<float> got(m * n + kGuard, kSentinel);
        gemm_bias_rows_ordered(a.data(), b.data(), bias.data(), got.data(), m,
                               k, n);
        if (std::memcmp(got.data(), want.data(), m * n * sizeof(float)) != 0) {
          std::size_t e = 0;
          while (std::bit_cast<std::uint32_t>(got[e]) ==
                 std::bit_cast<std::uint32_t>(want[e]))
            ++e;
          ADD_FAILURE() << "m=" << m << " k=" << k << " n=" << n << " ("
                        << e / n << "," << e % n << "): " << got[e] << " vs "
                        << want[e];
        }
        for (std::size_t g = m * n; g < got.size(); ++g)
          ASSERT_EQ(got[g], kSentinel)
              << "m=" << m << " k=" << k << " n=" << n << " wrote past C";
      }
    }
  }
}

TEST(Gemm, NtAccumulateMatchesTransposedReference) {
  Rng rng(9);
  // Cases straddle the narrow-k packed path (k < 8): {16,3,48} is the
  // degenerate 12x2x4 drone conv2 weight-gradient shape that motivated it.
  const std::size_t cases[][3] = {
      {5, 19, 8}, {16, 3, 48}, {16, 8, 48}, {3, 2, 5}, {1, 7, 64}};
  for (const auto& d : cases) {
    const std::size_t m = d[0], k = d[1], n = d[2];
    const auto a = random_matrix(m, k, rng);
    const auto bt = random_matrix(n, k, rng);  // B stored transposed (n x k)
    std::vector<float> b(k * n);
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t j = 0; j < n; ++j) b[p * n + j] = bt[j * k + p];
    std::vector<float> c(m * n, 0.5f);  // accumulate on top
    gemm_nt_accumulate(a.data(), bt.data(), c.data(), m, k, n);
    auto want = reference_product(a, b, m, k, n);
    for (auto& v : want) v += 0.5f;
    expect_near(c, want);
  }
}

TEST(Gemm, TnMatchesTransposedReference) {
  Rng rng(10);
  // Cases straddle the narrow-n packed path (n < 8): {48,16,3} is the
  // degenerate 12x2x4 drone conv2 input-gradient shape that motivated it.
  const std::size_t cases[][3] = {
      {9, 7, 12}, {48, 16, 3}, {48, 16, 8}, {4, 3, 2}, {64, 9, 1}};
  for (const auto& d : cases) {
    const std::size_t m = d[0], k = d[1], n = d[2];
    const auto at = random_matrix(k, m, rng);  // A stored transposed (k x m)
    const auto b = random_matrix(k, n, rng);
    std::vector<float> a(m * k);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t p = 0; p < k; ++p) a[i * k + p] = at[p * m + i];
    std::vector<float> c(m * n, -3.0f);  // gemm_tn overwrites
    gemm_tn(at.data(), b.data(), c.data(), m, k, n);
    expect_near(c, reference_product(a, b, m, k, n));
  }
}

TEST(Gemm, TnOrderedMatchesZeroSeededChain) {
  // Outside the narrow-n dot path, every element of gemm_tn is the chain
  // +0.0f + a[0][i]·b[0][j] + a[1][i]·b[1][j] + ... in increasing p, bit
  // for bit: whole 8-column strips, 4-row blocks, leftover rows and
  // columns, and n < 8 with k < 8. Signed zeros pin the +0.0f seed: a
  // chain of -0 products must round to +0 as it would from a zeroed C.
  Rng rng(11);
  std::vector<std::size_t> widths{8, 9, 16, 17};
  for (std::size_t m = 1; m <= 13; ++m) {
    for (const std::size_t k : {1, 5, 12}) {
      std::vector<std::size_t> ns = widths;
      if (k < 8) ns.push_back(3);
      for (const std::size_t n : ns) {
        auto at = random_matrix(k, m, rng);  // A stored transposed (k x m)
        auto b = random_matrix(k, n, rng);
        for (std::size_t e = 0; e < at.size(); e += 3)
          at[e] = (e % 2 == 0) ? -0.0f : 0.0f;
        // Column 0 of B is all zeros, half of them negative: with A's
        // negative entries its products are -0 or +0 in a mix.
        for (std::size_t p = 0; p < k; ++p)
          b[p * n] = (p % 2 == 0) ? -0.0f : 0.0f;
        std::vector<float> c(m * n, -3.0f);  // gemm_tn overwrites
        gemm_tn(at.data(), b.data(), c.data(), m, k, n);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
              acc += at[p * m + i] * b[p * n + j];
            EXPECT_EQ(std::bit_cast<std::uint32_t>(c[i * n + j]),
                      std::bit_cast<std::uint32_t>(acc))
                << "m=" << m << " k=" << k << " n=" << n << " (" << i << ","
                << j << ")";
          }
        }
      }
    }
  }
}

TEST(Gemm, GemvVariants) {
  Rng rng(12);
  // gemv_bias is bit-identical to the ordered per-row chain at every row
  // count: whole 8-row blocks, the rows left over, and both together.
  std::vector<std::size_t> rows;
  for (std::size_t m = 1; m <= 17; ++m) rows.push_back(m);
  rows.insert(rows.end(), {32, 33});
  for (const std::size_t m : rows) {
    for (const std::size_t n : {1, 10, 32}) {
      const auto w = random_matrix(m, n, rng);
      const auto x = random_matrix(n, 1, rng);
      const auto bias = random_matrix(m, 1, rng);
      std::vector<float> yb(m, 5.0f);  // gemv_bias overwrites
      gemv_bias(w.data(), x.data(), bias.data(), yb.data(), m, n);
      for (std::size_t i = 0; i < m; ++i) {
        float acc = bias[i];
        for (std::size_t j = 0; j < n; ++j) acc += w[i * n + j] * x[j];
        EXPECT_EQ(std::bit_cast<std::uint32_t>(yb[i]),
                  std::bit_cast<std::uint32_t>(acc))
            << "m=" << m << " n=" << n << " row " << i;
      }
    }
  }

  const std::size_t m = 14, n = 23;
  const auto w = random_matrix(m, n, rng);
  const auto x = random_matrix(n, 1, rng);

  // y2 += Wᵀ g
  const auto g = random_matrix(m, 1, rng);
  std::vector<float> y2(n, 0.5f), want2(n, 0.5f);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) want2[j] += w[i * n + j] * g[i];
  gemv_t_accumulate(w.data(), g.data(), y2.data(), m, n);
  expect_near(y2, want2);

  // A += g xᵀ
  std::vector<float> acc(m * n, 0.25f), want3(m * n, 0.25f);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) want3[i * n + j] += g[i] * x[j];
  ger_accumulate(g.data(), x.data(), acc.data(), m, n);
  expect_near(acc, want3);
}

}  // namespace
}  // namespace frlfi
