// Storage precisions and the half-precision block-floating-point codec.
//
// The paper's sustained numbers live on memory bandwidth: "performance for
// single precision is slightly higher due to the decreased bandwidth", and
// EDRAM-vs-DDR residency is worth 16 points of efficiency.  Production
// solver stacks of the QCDOC era (and QUDA after it) push the same lever
// further with a 16-bit "block floating point" spinor format: one shared
// exponent per site block plus a signed 16-bit mantissa per word, so a
// spinor costs ~2.25 bytes/word of traffic instead of 8.  Arithmetic still
// runs on the 64-bit FPU; only the *stored* values are rounded to the
// representable set, which is exactly what the hardware's narrow load/store
// path would do.
#pragma once

#include <cstdint>
#include <span>

namespace qcdoc::lattice {

/// Storage width of a field (arithmetic is always performed in double; the
/// precision governs what survives a store and how many bytes move).
enum class Precision : int {
  kDouble = 0,  ///< 8 bytes/word, lossless
  kSingle = 1,  ///< 4 bytes/word, IEEE float rounding on store
  kHalf = 2,    ///< 2 bytes/word mantissa + shared exponent per block
};

inline constexpr int kNumPrecisions = 3;

inline constexpr int precision_index(Precision p) {
  return static_cast<int>(p);
}

const char* precision_name(Precision p);

/// Predicted memory traffic per stored word.  Half carries a signed 16-bit
/// mantissa per word plus one 32-bit shared exponent per 16-word block
/// (2 + 4/16 = 2.25 bytes/word amortized).
inline constexpr double bytes_per_double(Precision p) {
  switch (p) {
    case Precision::kSingle:
      return 4.0;
    case Precision::kHalf:
      return 2.25;
    case Precision::kDouble:
    default:
      return 8.0;
  }
}

// --- block-floating-point codec --------------------------------------------
//
// A block of N doubles is encoded as one shared base-2 exponent e (chosen
// from the largest magnitude in the block) plus one signed 16-bit mantissa
// per word: v ~= m * 2^(e - 15), m in [-32767, 32767].  Guarantees:
//
//   - round trip:    |decode(encode(v)) - v| <= max|block| * 2^-15
//   - exact zeros:   an all-zero block encodes and decodes to exact zeros
//   - scaling:       encode(2^k * block) has mantissas bit-identical to
//                    encode(block) with exponent e + k (no re-rounding), so
//                    quantization commutes with power-of-two scaling
//   - overflow:      the block maximum itself rounds to +-32768 in corner
//                    cases; the codec clamps to +-32767 (documented bound
//                    above already covers the clamp)
//   - denormals:     exponents below DBL_MIN_EXP decode through ldexp and
//                    flush to the nearest representable (possibly 0) without
//                    UB
//
// frexp/ldexp/llround arithmetic defines the codec's bits; the blocks a
// solve produces take an inline path that reproduces them without libm
// (precision.cpp).

/// Encode `block` into `mant` (same length); returns the shared exponent.
std::int32_t block_float_encode(std::span<const double> block,
                                std::span<std::int16_t> mant);

/// Decode mantissas + shared exponent back into doubles.
void block_float_decode(std::int32_t exponent,
                        std::span<const std::int16_t> mant,
                        std::span<double> out);

/// Round-trip a block through the 16-bit representation in place: the
/// values become exactly what a half-precision store would preserve.
void block_float_quantize(std::span<double> block);

/// Quantize `data` in place at the given storage precision, in blocks of
/// `block_words` (a site's worth for lattice fields).  kDouble is a no-op;
/// kSingle rounds each word through IEEE float.
void quantize_in_place(std::span<double> data, Precision p, int block_words);

}  // namespace qcdoc::lattice
