#include "nn/layer.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "core/error.hpp"
#include "core/codegen.hpp"  // FRLFI_RESTRICT

namespace frlfi {

float* Tape::Arena::take(std::size_t n) {
  while (block_ < blocks_.size() && used_ + n > blocks_[block_].capacity) {
    ++block_;
    used_ = 0;
  }
  if (block_ == blocks_.size()) {
    const std::size_t capacity =
        std::max(n, std::clamp<std::size_t>(total_, 1024, 65536));
    blocks_.push_back(
        {std::make_unique_for_overwrite<float[]>(capacity), capacity});
    total_ += capacity;
  }
  float* p = blocks_[block_].data.get() + used_;
  used_ += n;
  return p;
}

void Tape::clear() {
  values_.reset();
  records_.clear();
  step_begin_.clear();
  read_begin_ = cursor_ = 0;
}

void Tape::begin_step() { step_begin_.push_back(records_.size()); }

void Tape::push(const Tensor& x, const float* data, std::size_t size) {
  FRLFI_CHECK_MSG(!step_begin_.empty(), "tape: record before begin_step");
  FRLFI_CHECK_MSG(x.rank() <= kMaxRank && size <= UINT32_MAX,
                  "tape: cannot record " << x.shape_string());
  Record& r = records_.emplace_back();
  r.data_ = data;
  r.size_ = static_cast<std::uint32_t>(size);
  r.rank_ = static_cast<std::uint32_t>(x.rank());
  for (std::size_t d = 0; d < x.rank(); ++d) {
    FRLFI_CHECK(x.dim(d) <= UINT32_MAX);
    r.dims_[d] = static_cast<std::uint32_t>(x.dim(d));
  }
}

float* Tape::record_floats(const Tensor& x, std::size_t n) {
  float* v = values_.take(n);
  push(x, v, n);
  return v;
}

void Tape::record(const Tensor& x) {
  std::copy(x.data().begin(), x.data().end(), record_floats(x, x.size()));
}

void Tape::record_shape(const Tensor& x) { push(x, nullptr, 0); }

void Tape::rewind(std::size_t step) {
  FRLFI_CHECK_MSG(step < steps(),
                  "tape: step " << step << " of " << steps() << " recorded");
  read_begin_ = step_begin_[step];
  cursor_ = step + 1 < steps() ? step_begin_[step + 1] : records_.size();
}

Tape::Record Tape::pop() {
  FRLFI_CHECK_MSG(cursor_ > read_begin_, "tape: no record left in the step");
  return records_[--cursor_];
}

Tensor Layer::forward(const Tensor& input, Tape& tape) {
  tape.record(input);
  return forward(input);
}

Tensor Layer::backward(const Tensor& grad_output, Tape& tape, bool) {
  const Tape::Record& r = tape.pop();
  Tensor input(r.shape());
  std::copy_n(r.values(), r.size(), input.data().begin());
  forward(input);
  return backward(grad_output);
}

Tensor TapedLayer::forward(const Tensor& input) {
  last_.clear();
  last_.begin_step();
  return forward(input, last_);
}

Tensor TapedLayer::backward(const Tensor& grad_output) {
  FRLFI_CHECK_MSG(last_.steps() == 1, name() << ": backward before forward");
  last_.rewind(0);
  return backward(grad_output, last_, /*need_input_grad=*/true);
}

Tensor Layer::infer(Tensor input, std::size_t batch, const ParamSource& src) {
  FRLFI_CHECK_MSG(src.own() || parameters().empty(),
                  name() << ": weight views need an infer override");
  const Tensor major = batch_to_major(input, batch);
  const std::size_t sample_size = major.size() / batch;
  Tensor sample(std::vector<std::size_t>(major.shape().begin() + 1,
                                         major.shape().end()));
  Tensor out;
  for (std::size_t b = 0; b < batch; ++b) {
    std::copy_n(major.data().begin() +
                    static_cast<std::ptrdiff_t>(b * sample_size),
                sample_size, sample.data().begin());
    Tensor y = forward(sample);
    if (b == 0) {
      std::vector<std::size_t> out_shape{batch};
      out_shape.insert(out_shape.end(), y.shape().begin(), y.shape().end());
      out = Tensor(std::move(out_shape));
    }
    std::copy_n(y.data().begin(), y.size(),
                out.data().begin() + static_cast<std::ptrdiff_t>(b * y.size()));
  }
  return batch_to_inner(out, batch);
}

namespace {

// (rows x cols) -> (cols x rows) transpose. The interior runs on 4x4
// micro-blocks lowered to vector shuffles through GCC's portable vector
// extensions (the scalar fallback tiles the same way); edges finish
// scalar. Pure data movement, so codegen differences cannot change a bit.
#if defined(__GNUC__)
typedef float v4sf __attribute__((vector_size(16)));
typedef int v4si __attribute__((vector_size(16)));

inline v4sf load4(const float* p) {
  v4sf v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4sf v) { std::memcpy(p, &v, sizeof v); }

void transpose_tiled(const float* FRLFI_RESTRICT src, float* FRLFI_RESTRICT dst,
                     std::size_t rows, std::size_t cols) {
  const std::size_t rfull = rows - rows % 4;
  const std::size_t cfull = cols - cols % 4;
  // c0 outer / r0 inner: each group of 4 destination rows is produced
  // front-to-back in one sweep, so every destination cache line is written
  // exactly once while the 4-column source window stays cache-resident.
  for (std::size_t c0 = 0; c0 < cfull; c0 += 4) {
    for (std::size_t r0 = 0; r0 < rfull; r0 += 4) {
      const v4sf a0 = load4(src + (r0 + 0) * cols + c0);
      const v4sf a1 = load4(src + (r0 + 1) * cols + c0);
      const v4sf a2 = load4(src + (r0 + 2) * cols + c0);
      const v4sf a3 = load4(src + (r0 + 3) * cols + c0);
      const v4sf t0 = __builtin_shuffle(a0, a1, (v4si){0, 4, 1, 5});
      const v4sf t1 = __builtin_shuffle(a0, a1, (v4si){2, 6, 3, 7});
      const v4sf t2 = __builtin_shuffle(a2, a3, (v4si){0, 4, 1, 5});
      const v4sf t3 = __builtin_shuffle(a2, a3, (v4si){2, 6, 3, 7});
      store4(dst + (c0 + 0) * rows + r0,
             __builtin_shuffle(t0, t2, (v4si){0, 1, 4, 5}));
      store4(dst + (c0 + 1) * rows + r0,
             __builtin_shuffle(t0, t2, (v4si){2, 3, 6, 7}));
      store4(dst + (c0 + 2) * rows + r0,
             __builtin_shuffle(t1, t3, (v4si){0, 1, 4, 5}));
      store4(dst + (c0 + 3) * rows + r0,
             __builtin_shuffle(t1, t3, (v4si){2, 3, 6, 7}));
    }
    for (std::size_t r = rfull; r < rows; ++r)
      for (std::size_t c = c0; c < c0 + 4; ++c)
        dst[c * rows + r] = src[r * cols + c];
  }
  for (std::size_t c = cfull; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) dst[c * rows + r] = src[r * cols + c];
}
#else
constexpr std::size_t kTransposeTile = 32;

void transpose_tiled(const float* FRLFI_RESTRICT src, float* FRLFI_RESTRICT dst,
                     std::size_t rows, std::size_t cols) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
    const std::size_t rmax = std::min(r0 + kTransposeTile, rows);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
      const std::size_t cmax = std::min(c0 + kTransposeTile, cols);
      for (std::size_t r = r0; r < rmax; ++r)
        for (std::size_t c = c0; c < cmax; ++c)
          dst[c * rows + r] = src[r * cols + c];
    }
  }
}
#endif

}  // namespace

Tensor batch_to_inner(const Tensor& batch_major, std::size_t batch) {
  FRLFI_CHECK(batch >= 1 && batch_major.rank() >= 2 &&
              batch_major.dim(0) == batch);
  const std::size_t features = batch_major.size() / batch;
  std::vector<std::size_t> shape(batch_major.shape().begin() + 1,
                                 batch_major.shape().end());
  shape.push_back(batch);
  Tensor out(std::move(shape));
  transpose_tiled(batch_major.data().data(), out.data().data(), batch,
                  features);
  return out;
}

Tensor batch_to_major(const Tensor& batch_inner, std::size_t batch) {
  FRLFI_CHECK(batch >= 1 && batch_inner.rank() >= 2 &&
              batch_inner.dim(batch_inner.rank() - 1) == batch);
  const std::size_t features = batch_inner.size() / batch;
  std::vector<std::size_t> shape{batch};
  shape.insert(shape.end(), batch_inner.shape().begin(),
               batch_inner.shape().end() - 1);
  Tensor out(std::move(shape));
  transpose_tiled(batch_inner.data().data(), out.data().data(), features,
                  batch);
  return out;
}

}  // namespace frlfi
