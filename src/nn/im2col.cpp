#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "core/error.hpp"

namespace frlfi {

// ix = ox*stride + kx - pad must land in [0, w).
void conv_valid_ox_range(const ConvShape& s, std::size_t kx, std::size_t ow,
                         std::size_t& lo, std::size_t& hi) {
  const std::ptrdiff_t off =
      static_cast<std::ptrdiff_t>(kx) - static_cast<std::ptrdiff_t>(s.pad);
  std::ptrdiff_t first = 0;
  if (off < 0) first = (-off + static_cast<std::ptrdiff_t>(s.stride) - 1) /
                       static_cast<std::ptrdiff_t>(s.stride);
  // A negative numerator means this tap never lands in the image for any
  // ox; integer division truncates toward zero (not floor), so it must be
  // rejected before dividing or ox=0 would be misclassified as valid.
  const std::ptrdiff_t last_num = static_cast<std::ptrdiff_t>(s.w) - 1 - off;
  if (last_num < 0) {
    lo = hi = 0;
    return;
  }
  std::ptrdiff_t last = last_num / static_cast<std::ptrdiff_t>(s.stride);
  last = std::min(last, static_cast<std::ptrdiff_t>(ow) - 1);
  if (last < first) {
    lo = hi = 0;
    return;
  }
  lo = static_cast<std::size_t>(first);
  hi = static_cast<std::size_t>(last) + 1;
}

void im2col(const float* x, const ConvShape& s, float* cols) {
  FRLFI_CHECK(s.in_c > 0 && s.h > 0 && s.w > 0 && s.k > 0 && s.stride > 0);
  FRLFI_CHECK_MSG(s.h + 2 * s.pad >= s.k && s.w + 2 * s.pad >= s.k,
                  "im2col: input smaller than kernel");
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t ncols = oh * ow;
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < s.in_c; ++ic) {
    const float* plane = x + ic * s.h * s.w;
    for (std::size_t ky = 0; ky < s.k; ++ky) {
      for (std::size_t kx = 0; kx < s.k; ++kx, ++r) {
        float* dst = cols + r * ncols;
        std::size_t ox_lo, ox_hi;
        conv_valid_ox_range(s, kx, ow, ox_lo, ox_hi);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          float* drow = dst + oy * ow;
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * s.stride + ky) -
              static_cast<std::ptrdiff_t>(s.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.h) ||
              ox_lo >= ox_hi) {
            std::memset(drow, 0, ow * sizeof(float));
            continue;
          }
          const float* srow = plane + static_cast<std::size_t>(iy) * s.w;
          if (ox_lo > 0) std::memset(drow, 0, ox_lo * sizeof(float));
          const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kx) -
                                     static_cast<std::ptrdiff_t>(s.pad);
          if (s.stride == 1) {
            // Contiguous run: the whole valid span is one memcpy.
            std::memcpy(drow + ox_lo,
                        srow + static_cast<std::size_t>(
                                   static_cast<std::ptrdiff_t>(ox_lo) + off),
                        (ox_hi - ox_lo) * sizeof(float));
          } else {
            for (std::size_t ox = ox_lo; ox < ox_hi; ++ox)
              drow[ox] = srow[static_cast<std::size_t>(
                  static_cast<std::ptrdiff_t>(ox * s.stride) + off)];
          }
          if (ox_hi < ow)
            std::memset(drow + ox_hi, 0, (ow - ox_hi) * sizeof(float));
        }
      }
    }
  }
}

void col2im_accumulate(const float* cols, const ConvShape& s, float* x) {
  FRLFI_CHECK(s.in_c > 0 && s.h > 0 && s.w > 0 && s.k > 0 && s.stride > 0);
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t ncols = oh * ow;
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < s.in_c; ++ic) {
    float* plane = x + ic * s.h * s.w;
    for (std::size_t ky = 0; ky < s.k; ++ky) {
      for (std::size_t kx = 0; kx < s.k; ++kx, ++r) {
        const float* src = cols + r * ncols;
        std::size_t ox_lo, ox_hi;
        conv_valid_ox_range(s, kx, ow, ox_lo, ox_hi);
        if (ox_lo >= ox_hi) continue;
        const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kx) -
                                   static_cast<std::ptrdiff_t>(s.pad);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * s.stride + ky) -
              static_cast<std::ptrdiff_t>(s.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.h)) continue;
          const float* srow = src + oy * ow;
          float* drow = plane + static_cast<std::size_t>(iy) * s.w;
          for (std::size_t ox = ox_lo; ox < ox_hi; ++ox)
            drow[static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(ox * s.stride) + off)] +=
                srow[ox];
        }
      }
    }
  }
}

}  // namespace frlfi
