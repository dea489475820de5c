#include "lattice/precision.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace qcdoc::lattice {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kSingle:
      return "single";
    case Precision::kHalf:
      return "half";
    case Precision::kDouble:
    default:
      return "double";
  }
}

namespace {

// The inline path encodes with a multiply by 2^(15 - e) and decodes with a
// multiply by 2^(e - 15); each rounds exactly as ldexp does while its scale
// is a normal double.  For a shared exponent in [kMinInlineExp,
// kMaxInlineExp] the decode scale is normal, and so is the encode scale of
// every exponent encode produces (frexp never yields more than 1024).
// Every other exponent takes the libm path.
constexpr int kMinInlineExp = -1022 + 15;
constexpr int kMaxInlineExp = 1023 + 15;

/// 2^k for a k in the normal range [-1022, 1023], built from its bits.
double pow2(int k) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
}

// The libm path handles every block, and serves those the inline path
// leaves: all-zero blocks, NaN and +-inf words, and exponents whose scale
// leaves the normal range.  It is the definition the inline path
// reproduces bit for bit.
std::int32_t encode_libm(std::span<const double> block,
                         std::span<std::int16_t> mant) {
  double amax = 0;
  for (const double v : block) amax = std::max(amax, std::abs(v));
  if (amax == 0.0) {
    for (auto& m : mant) m = 0;
    return 0;
  }
  int e = 0;
  (void)std::frexp(amax, &e);  // amax = f * 2^e, f in [0.5, 1)
  for (std::size_t i = 0; i < block.size(); ++i) {
    // ldexp keeps the scaling exact even for denormal-adjacent exponents.
    long long m = std::llround(std::ldexp(block[i], 15 - e));
    if (m > 32767) m = 32767;    // overflow clamp: |f| ~ 1 rounds to 32768
    if (m < -32767) m = -32767;  // keep the code symmetric
    mant[i] = static_cast<std::int16_t>(m);
  }
  return e;
}

void decode_libm(std::int32_t exponent, std::span<const std::int16_t> mant,
                 std::span<double> out) {
  for (std::size_t i = 0; i < mant.size(); ++i) {
    out[i] = std::ldexp(static_cast<double>(mant[i]), exponent - 15);
  }
}

}  // namespace

std::int32_t block_float_encode(std::span<const double> block,
                                std::span<std::int16_t> mant) {
  assert(block.size() == mant.size());
  double amax = 0;
  bool finite = true;
  for (const double v : block) {
    const double a = std::abs(v);
    amax = std::max(amax, a);
    finite &= a <= std::numeric_limits<double>::max();
  }
  // frexp's exponent of a normal amax; a zero or denormal amax reads -1022
  // and takes the libm path with the non-finite blocks.
  const int e = static_cast<int>(std::bit_cast<std::uint64_t>(amax) >> 52) -
                1022;
  if (!finite || e < kMinInlineExp) return encode_libm(block, mant);
  const double scale = pow2(15 - e);
  for (std::size_t i = 0; i < block.size(); ++i) {
    // |x| < 2^15, so the truncation is defined and x - t is exact; the two
    // compares turn it into llround's round-half-away-from-zero.
    const double x = block[i] * scale;
    const int t = static_cast<int>(x);
    const double f = x - t;
    const int m = t + (f >= 0.5) - (f <= -0.5);
    mant[i] = static_cast<std::int16_t>(std::clamp(m, -32767, 32767));
  }
  return e;
}

void block_float_decode(std::int32_t exponent,
                        std::span<const std::int16_t> mant,
                        std::span<double> out) {
  assert(mant.size() == out.size());
  if (exponent < kMinInlineExp || exponent > kMaxInlineExp) {
    decode_libm(exponent, mant, out);
    return;
  }
  // |m| * 2^(e-15) >= 2^-1022 for m != 0, so the product never lands in the
  // denormal range: it is exact, or +-inf exactly where ldexp overflows.
  const double scale = pow2(exponent - 15);
  for (std::size_t i = 0; i < mant.size(); ++i) {
    out[i] = static_cast<double>(mant[i]) * scale;
  }
}

void block_float_quantize(std::span<double> block) {
  // One shared exponent for the whole span; callers pass one site block.
  std::int16_t mant_buf[256];
  assert(block.size() <= 256);
  std::span<std::int16_t> mant(mant_buf, block.size());
  const std::int32_t e = block_float_encode(block, mant);
  block_float_decode(e, mant, block);
}

void quantize_in_place(std::span<double> data, Precision p, int block_words) {
  switch (p) {
    case Precision::kDouble:
      return;
    case Precision::kSingle:
      for (double& v : data) v = static_cast<double>(static_cast<float>(v));
      return;
    case Precision::kHalf: {
      assert(block_words > 0);
      const auto bw = static_cast<std::size_t>(block_words);
      for (std::size_t off = 0; off < data.size(); off += bw) {
        block_float_quantize(
            data.subspan(off, std::min(bw, data.size() - off)));
      }
      return;
    }
  }
}

}  // namespace qcdoc::lattice
