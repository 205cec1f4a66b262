#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

namespace frlfi {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ShapeConstruction) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.dim(1), 3u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstruction) {
  Tensor t({3}, 2.5f);
  EXPECT_EQ(t.sum(), 7.5f);
}

TEST(Tensor, ZeroDimThrows) { EXPECT_THROW(Tensor({2, 0}), Error); }

TEST(Tensor, FromVector) {
  const Tensor t = Tensor::from_vector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.rank(), 1u);
  EXPECT_EQ(t[2], 3.0f);
}

TEST(Tensor, At2IndexingRowMajor) {
  Tensor t({2, 3});
  t.at2(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_THROW(t.at2(2, 0), Error);
  EXPECT_THROW(Tensor({2}).at2(0, 0), Error);
}

TEST(Tensor, At3IndexingChw) {
  Tensor t({2, 3, 4});
  t.at3(1, 2, 3) = 9.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 9.0f);
  EXPECT_THROW(t.at3(2, 0, 0), Error);
}

TEST(Tensor, At4Indexing) {
  Tensor t({2, 2, 2, 2});
  t.at4(1, 1, 1, 1) = 3.0f;
  EXPECT_EQ(t[15], 3.0f);
}

TEST(Tensor, BoundsCheckedAt) {
  Tensor t({2});
  EXPECT_THROW(t.at(2), Error);
  EXPECT_NO_THROW(t.at(1));
}

TEST(Tensor, ReshapePreservesDataAndChecksCount) {
  Tensor t = Tensor::from_vector({1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({2, 3});
  EXPECT_EQ(r.at2(1, 0), 4.0f);
  EXPECT_THROW(t.reshaped({4}), Error);
}

TEST(Tensor, ArithmeticOps) {
  Tensor a = Tensor::from_vector({1, 2, 3});
  Tensor b = Tensor::from_vector({10, 20, 30});
  EXPECT_EQ((a + b)[1], 22.0f);
  EXPECT_EQ((b - a)[2], 27.0f);
  EXPECT_EQ((a * 2.0f)[0], 2.0f);
  EXPECT_EQ((3.0f * a)[2], 9.0f);
  a += b;
  EXPECT_EQ(a[0], 11.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW(a -= b, Error);
  EXPECT_THROW(a.add_scaled(b, 1.0f), Error);
}

TEST(Tensor, AddScaled) {
  Tensor a = Tensor::from_vector({1, 1});
  const Tensor x = Tensor::from_vector({2, 4});
  a.add_scaled(x, 0.5f);
  EXPECT_EQ(a[0], 2.0f);
  EXPECT_EQ(a[1], 3.0f);
}

TEST(Tensor, Reductions) {
  const Tensor t = Tensor::from_vector({3, -1, 7, 0});
  EXPECT_EQ(t.sum(), 9.0f);
  EXPECT_EQ(t.min(), -1.0f);
  EXPECT_EQ(t.max(), 7.0f);
  EXPECT_EQ(t.argmax(), 2u);
  EXPECT_FLOAT_EQ(t.mean(), 2.25f);
}

TEST(Tensor, ArgmaxTieGoesToLowestIndex) {
  const Tensor t = Tensor::from_vector({5, 5, 5});
  EXPECT_EQ(t.argmax(), 0u);
}

TEST(Tensor, RandomUniformWithinBounds) {
  Rng rng(1);
  const Tensor t = Tensor::random_uniform({100}, rng, -0.5f, 0.5f);
  EXPECT_GE(t.min(), -0.5f);
  EXPECT_LT(t.max(), 0.5f);
}

TEST(Tensor, ShapeString) {
  EXPECT_EQ(Tensor({3, 18, 32}).shape_string(), "3x18x32");
  EXPECT_EQ(Tensor().shape_string(), "scalar");
}

TEST(Tensor, EqualsChecksShapeAndData) {
  Tensor a = Tensor::from_vector({1, 2});
  Tensor b = Tensor::from_vector({1, 2});
  EXPECT_TRUE(a.equals(b));
  b[1] = 3;
  EXPECT_FALSE(a.equals(b));
  EXPECT_FALSE(a.equals(a.reshaped({2, 1})));
}

}  // namespace
}  // namespace frlfi
