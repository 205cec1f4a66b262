#pragma once

/// \file im2col.hpp
/// im2col / col2im lowering for 2-D convolution over single CHW samples.
///
/// im2col unrolls every receptive-field patch of the input into one column
/// of a (in_c*k*k) x (out_h*out_w) matrix, turning convolution into a GEMM
/// against the (out_c) x (in_c*k*k) weight matrix. Column r = (ic*k+ky)*k+kx
/// matches the row-major Conv2D weight layout (out_c, in_c, k, k) exactly,
/// so no weight repacking is needed. Out-of-bounds (padding) taps become
/// explicit 0.0f entries, which keeps the GEMM forward pass bit-identical
/// to the bounds-checked naive loops (x + 0.0f == x).

#include <cstddef>

namespace frlfi {

/// Geometry of one Conv2D application, shared by im2col and col2im.
struct ConvShape {
  std::size_t in_c = 0;    ///< input channels
  std::size_t h = 0;       ///< input height
  std::size_t w = 0;       ///< input width
  std::size_t k = 0;       ///< square kernel extent
  std::size_t stride = 0;  ///< stride (same both axes)
  std::size_t pad = 0;     ///< zero padding (same both axes)

  std::size_t out_h() const { return (h + 2 * pad - k) / stride + 1; }
  std::size_t out_w() const { return (w + 2 * pad - k) / stride + 1; }
  /// Rows of the unrolled patch matrix: in_c * k * k.
  std::size_t rows() const { return in_c * k * k; }
  /// Columns of the unrolled patch matrix: out_h * out_w.
  std::size_t cols() const { return out_h() * out_w(); }
};

/// Valid output-x range [lo, hi) for kernel tap kx: the ox for which
/// ix = ox*stride + kx - pad lands inside [0, w). Shared by the im2col
/// lowering and the direct batch-inner convolution.
void conv_valid_ox_range(const ConvShape& s, std::size_t kx, std::size_t ow,
                         std::size_t& lo, std::size_t& hi);

/// Unroll a CHW input (s.in_c * s.h * s.w floats) into `cols`
/// (s.rows() * s.cols() floats, row-major). Padding taps are written as 0.
void im2col(const float* x, const ConvShape& s, float* cols);

/// Scatter-accumulate a patch matrix back onto a CHW image: the adjoint of
/// im2col, used for the input gradient. `x` must hold s.in_c*s.h*s.w floats
/// and is accumulated into (not overwritten).
void col2im_accumulate(const float* cols, const ConvShape& s, float* x);

}  // namespace frlfi
