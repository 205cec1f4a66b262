#include "numeric/fixed_point.hpp"

#include <cmath>
#include <sstream>

#include "core/error.hpp"

namespace frlfi {

double FixedPointFormat::max_value() const {
  return (std::pow(2.0, integer_bits + fraction_bits) - 1.0) /
         std::pow(2.0, fraction_bits);
}

double FixedPointFormat::min_value() const { return -std::pow(2.0, integer_bits); }

std::string FixedPointFormat::name() const {
  std::ostringstream os;
  os << "Q(1," << integer_bits << "," << fraction_bits << ")";
  return os.str();
}

FixedPointCodec::FixedPointCodec(FixedPointFormat format) : format_(format) {
  const int bits = format_.word_bits();
  FRLFI_CHECK_MSG(bits >= 2 && bits <= 32,
                  "fixed-point word length " << bits << " out of [2,32]");
  FRLFI_CHECK(format_.integer_bits >= 0 && format_.fraction_bits >= 0);
  mask_ = bits == 32 ? 0xFFFFFFFFu : ((1u << bits) - 1u);
  sign_bit_ = 1u << (bits - 1);
  scale_ = std::pow(2.0, format_.fraction_bits);
  lo_ = format_.min_value();
  hi_ = format_.max_value();
}

std::uint32_t FixedPointCodec::encode(double value) const {
  const double lo = lo_;
  const double hi = hi_;
  double v = value;
  if (std::isnan(v)) v = 0.0;
  if (v < lo) v = lo;
  if (v > hi) v = hi;
  const auto fixed = static_cast<std::int64_t>(std::llround(v * scale_));
  // Two's complement within word_bits().
  return static_cast<std::uint32_t>(fixed) & mask_;
}

double FixedPointCodec::decode(std::uint32_t raw) const {
  std::uint32_t w = raw & mask_;
  std::int64_t v = w;
  if (w & sign_bit_) v -= static_cast<std::int64_t>(mask_) + 1;  // sign extend
  return static_cast<double>(v) / scale_;
}

std::uint32_t FixedPointCodec::flip_bit(std::uint32_t raw, int bit) const {
  FRLFI_CHECK_MSG(bit >= 0 && bit < format_.word_bits(),
                  "bit " << bit << " outside " << format_.name());
  return (raw ^ (1u << bit)) & mask_;
}

}  // namespace frlfi
