#pragma once

/// \file fixed_point.hpp
/// Runtime-parameterized signed fixed-point codec Q(sign, integer, fraction).
///
/// The paper's data-type study (§IV-B.3) compares Q(1,4,11), Q(1,7,8) and
/// Q(1,10,5) — all 16-bit words — and finds that formats with unnecessarily
/// wide integer range are *more* vulnerable to bit flips because a flipped
/// high bit produces a larger value deviation. This codec encodes floats
/// into two's-complement integer words so the fault injector can flip bits
/// in the exact representation the hardware would hold.

#include <cstdint>
#include <string>

namespace frlfi {

/// A Q(sign, integer_bits, fraction_bits) fixed-point format.
/// Total word length = sign + integer_bits + fraction_bits (max 32).
struct FixedPointFormat {
  int integer_bits = 7;
  int fraction_bits = 8;

  /// Total bits including the sign bit.
  int word_bits() const { return 1 + integer_bits + fraction_bits; }

  /// Largest representable value: (2^(i+f) - 1) / 2^f.
  double max_value() const;

  /// Smallest (most negative) representable value: -2^i.
  double min_value() const;

  /// "Q(1,7,8)"-style display name.
  std::string name() const;

  /// The three formats studied in the paper.
  static FixedPointFormat q1_4_11() { return {4, 11}; }
  static FixedPointFormat q1_7_8() { return {7, 8}; }
  static FixedPointFormat q1_10_5() { return {10, 5}; }
};

/// Encoder/decoder between float and the two's-complement raw word of a
/// FixedPointFormat. Raw words are stored right-aligned in int32_t with the
/// sign bit at position word_bits()-1.
class FixedPointCodec {
 public:
  /// Construct a codec for the given format. Word length must be in [2,32].
  explicit FixedPointCodec(FixedPointFormat format);

  /// The format this codec implements.
  const FixedPointFormat& format() const { return format_; }

  /// Encode with saturation and round-to-nearest. Result is the raw
  /// two's-complement word, right-aligned (upper bits zero).
  std::uint32_t encode(double value) const;

  /// The word_bits() low bits set: the mask that keeps a raw word inside
  /// the format.
  std::uint32_t word_mask() const { return mask_; }

  /// Decode a raw word back to double. Bits above word_bits() are ignored.
  double decode(std::uint32_t raw) const;

  /// Flip bit `bit` (0 = LSB) of the raw word; bit must be < word_bits().
  std::uint32_t flip_bit(std::uint32_t raw, int bit) const;

 private:
  FixedPointFormat format_;
  std::uint32_t mask_;      // word_bits() low bits set
  std::uint32_t sign_bit_;  // 1 << (word_bits()-1)
  double scale_;            // 2^fraction_bits
  double lo_;               // format_.min_value(), cached: encode() runs
  double hi_;               // per-weight in the fault injector's hot loop
};

}  // namespace frlfi
