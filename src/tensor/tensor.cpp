#include "tensor/tensor.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/error.hpp"

namespace frlfi {
namespace {

std::size_t shape_elements(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) {
    FRLFI_CHECK_MSG(d > 0, "tensor dimension must be positive");
    n *= d;
  }
  return shape.empty() ? 0 : n;
}

}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_elements(shape_), 0.0f) {}

Tensor::Tensor(std::vector<std::size_t> shape, float fill_value)
    : shape_(std::move(shape)), data_(shape_elements(shape_), fill_value) {}

Tensor Tensor::from_vector(const std::vector<float>& values) {
  FRLFI_CHECK(!values.empty());
  Tensor t({values.size()});
  t.data_ = values;
  return t;
}

Tensor Tensor::random_uniform(std::vector<std::size_t> shape, Rng& rng,
                              float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

std::size_t Tensor::dim(std::size_t d) const {
  FRLFI_CHECK_MSG(d < shape_.size(), "dim " << d << " of rank " << rank());
  return shape_[d];
}

float& Tensor::at(std::size_t i) {
  FRLFI_CHECK_MSG(i < data_.size(), "index " << i << " of size " << size());
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  FRLFI_CHECK_MSG(i < data_.size(), "index " << i << " of size " << size());
  return data_[i];
}

std::size_t Tensor::checked_offset2(std::size_t r, std::size_t c) const {
  FRLFI_CHECK_MSG(rank() == 2, "at2 on rank-" << rank() << " tensor");
  FRLFI_CHECK(r < shape_[0] && c < shape_[1]);
  return r * shape_[1] + c;
}

std::size_t Tensor::checked_offset3(std::size_t ch, std::size_t r,
                                    std::size_t c) const {
  FRLFI_CHECK_MSG(rank() == 3, "at3 on rank-" << rank() << " tensor");
  FRLFI_CHECK(ch < shape_[0] && r < shape_[1] && c < shape_[2]);
  return (ch * shape_[1] + r) * shape_[2] + c;
}

std::size_t Tensor::checked_offset4(std::size_t n, std::size_t ch, std::size_t r,
                                    std::size_t c) const {
  FRLFI_CHECK_MSG(rank() == 4, "at4 on rank-" << rank() << " tensor");
  FRLFI_CHECK(n < shape_[0] && ch < shape_[1] && r < shape_[2] && c < shape_[3]);
  return ((n * shape_[1] + ch) * shape_[2] + r) * shape_[3] + c;
}

float& Tensor::at2(std::size_t r, std::size_t c) {
  return data_[checked_offset2(r, c)];
}
float Tensor::at2(std::size_t r, std::size_t c) const {
  return data_[checked_offset2(r, c)];
}
float& Tensor::at3(std::size_t ch, std::size_t r, std::size_t c) {
  return data_[checked_offset3(ch, r, c)];
}
float Tensor::at3(std::size_t ch, std::size_t r, std::size_t c) const {
  return data_[checked_offset3(ch, r, c)];
}
float& Tensor::at4(std::size_t n, std::size_t ch, std::size_t r, std::size_t c) {
  return data_[checked_offset4(n, ch, r, c)];
}
float Tensor::at4(std::size_t n, std::size_t ch, std::size_t r,
                  std::size_t c) const {
  return data_[checked_offset4(n, ch, r, c)];
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const& {
  const std::size_t n = shape_elements(new_shape);
  FRLFI_CHECK_MSG(n == size(), "reshape " << shape_string() << " to "
                                          << n << " elements");
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) && {
  const std::size_t n = shape_elements(new_shape);
  FRLFI_CHECK_MSG(n == size(), "reshape " << shape_string() << " to "
                                          << n << " elements");
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = std::move(data_);
  shape_.clear();
  return t;
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor& Tensor::operator+=(const Tensor& rhs) {
  FRLFI_CHECK_MSG(shape_ == rhs.shape_, "shape mismatch " << shape_string()
                                                          << " vs "
                                                          << rhs.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  FRLFI_CHECK_MSG(shape_ == rhs.shape_, "shape mismatch " << shape_string()
                                                          << " vs "
                                                          << rhs.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

void Tensor::add_scaled(const Tensor& x, float a) {
  FRLFI_CHECK_MSG(shape_ == x.shape_, "shape mismatch " << shape_string()
                                                        << " vs "
                                                        << x.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += a * x.data_[i];
}

float Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0f);
}

float Tensor::min() const {
  FRLFI_CHECK(!empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  FRLFI_CHECK(!empty());
  return *std::max_element(data_.begin(), data_.end());
}

std::size_t argmax_row(const float* row, std::size_t n) {
  FRLFI_CHECK(n >= 1);
  // Strict-> scan, the std::max_element(<) rule written out: NaN candidates
  // compare unordered and never win; a NaN incumbent is never displaced.
  std::size_t best = 0;
  for (std::size_t j = 1; j < n; ++j)
    if (row[j] > row[best]) best = j;
  return best;
}

std::size_t Tensor::argmax() const {
  FRLFI_CHECK(!empty());
  return argmax_row(data_.data(), size());
}

float Tensor::mean() const {
  if (empty()) return 0.0f;
  return sum() / static_cast<float>(size());
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < shape_.size(); ++i)
    os << (i ? "x" : "") << shape_[i];
  if (shape_.empty()) os << "scalar";
  return os.str();
}

bool Tensor::equals(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

}  // namespace frlfi
