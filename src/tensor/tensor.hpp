#pragma once

/// \file tensor.hpp
/// A small dense float tensor: the numeric substrate for the neural-network
/// policies. Row-major storage, up to 4 dimensions (enough for the paper's
/// Conv/FC policies operating on CHW images), value semantics.

#include <cstddef>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace frlfi {

/// Dense row-major float tensor with value semantics.
class Tensor {
 public:
  /// Empty (rank-0, zero elements).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. Every dim must be > 0.
  explicit Tensor(std::vector<std::size_t> shape);

  /// Tensor of given shape with elements drawn uniformly from [lo, hi).
  static Tensor random_uniform(std::vector<std::size_t> shape, Rng& rng,
                               float lo, float hi);

  /// Shape vector.
  const std::vector<std::size_t>& shape() const { return shape_; }

  /// Rank (number of dimensions).
  std::size_t rank() const { return shape_.size(); }

  /// Size of dimension d.
  std::size_t dim(std::size_t d) const;

  /// Total element count.
  std::size_t size() const { return data_.size(); }

  /// True when the tensor holds no elements.
  bool empty() const { return data_.empty(); }

  /// Raw storage (row-major).
  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  /// Flat element access with bounds check.
  float& at(std::size_t i);
  float at(std::size_t i) const;

  /// Flat element access without bounds check (hot loops).
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access (row, col) for matrices.
  float& at2(std::size_t r, std::size_t c);
  float at2(std::size_t r, std::size_t c) const;

  /// 3-D access (channel, row, col) for CHW images.
  float& at3(std::size_t ch, std::size_t r, std::size_t c);
  float at3(std::size_t ch, std::size_t r, std::size_t c) const;

  /// 4-D access (n, channel, row, col).
  float& at4(std::size_t n, std::size_t ch, std::size_t r, std::size_t c);
  float at4(std::size_t n, std::size_t ch, std::size_t r, std::size_t c) const;

  /// Reinterpret as a new shape with the same element count.
  Tensor reshaped(std::vector<std::size_t> new_shape) const&;

  /// Rvalue overload: moves this tensor's storage into the result instead
  /// of copying it (hot-path reshapes of temporaries).
  Tensor reshaped(std::vector<std::size_t> new_shape) &&;

  /// Fill every element with v.
  void fill(float v);

  /// In-place scalar product.
  Tensor& operator*=(float s);

  /// Scalar product.
  friend Tensor operator*(Tensor lhs, float s) { return lhs *= s; }
  friend Tensor operator*(float s, Tensor rhs) { return rhs *= s; }

  /// Largest element; requires non-empty.
  float max() const;

  /// Index of the largest element; requires non-empty. Ties -> lowest
  /// index. Exactly argmax_row over the flat data — see its NaN contract.
  std::size_t argmax() const;

  /// "3x18x32"-style shape string for diagnostics.
  std::string shape_string() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;

  std::size_t checked_offset2(std::size_t r, std::size_t c) const;
  std::size_t checked_offset3(std::size_t ch, std::size_t r, std::size_t c) const;
  std::size_t checked_offset4(std::size_t n, std::size_t ch, std::size_t r,
                              std::size_t c) const;
};

/// Argmax over `row[0..n)` with Tensor::argmax's exact semantics: a
/// candidate wins only under a strict IEEE `>` against the incumbent, so
/// ties and *unordered* comparisons keep the lowest index. In particular a
/// NaN never displaces an incumbent, and a leading NaN (every comparison
/// against it is unordered) wins the whole row — the single tie/NaN rule
/// every action-selection site must share, so a fault-corrupted policy
/// picks the same action on the batched and single-sample paths. n >= 1.
std::size_t argmax_row(const float* row, std::size_t n);

}  // namespace frlfi
