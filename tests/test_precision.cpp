// Property tests for the half-precision block-floating-point codec: the
// documented guarantees in lattice/precision.h (round-trip bound, exact
// zeros, power-of-two scaling, overflow clamp, denormal-adjacent blocks),
// a seeded fuzz loop over random blocks, and a bit-for-bit comparison of
// the codec's inline path against its frexp/ldexp/llround definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "lattice/precision.h"

namespace qcdoc::lattice {
namespace {

constexpr double kUlp15 = 1.0 / 32768.0;  // 2^-15

double max_abs(const std::vector<double>& v) {
  double m = 0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

std::vector<double> quantized(std::vector<double> v) {
  block_float_quantize(std::span<double>(v));
  return v;
}

TEST(BlockFloat, RoundTripWithinDocumentedBound) {
  std::vector<double> block = {1.0,   -0.25,  3.14159, -2.71828,
                               1e-3,  -0.999, 0.5,     4.0};
  const double amax = max_abs(block);
  const std::vector<double> q = quantized(block);
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_LE(std::fabs(q[i] - block[i]), amax * kUlp15)
        << "word " << i << " of mixed-magnitude block";
  }
}

TEST(BlockFloat, AllZeroBlockIsExact) {
  std::vector<double> block(24, 0.0);
  std::vector<std::int16_t> mant(block.size());
  const std::int32_t e = block_float_encode(block, mant);
  for (std::int16_t m : mant) EXPECT_EQ(m, 0);
  std::vector<double> out(block.size(), 42.0);
  block_float_decode(e, mant, out);
  for (double v : out) EXPECT_EQ(v, 0.0);
}

TEST(BlockFloat, QuantizationIsIdempotent) {
  std::vector<double> block = {0.7, -1.3, 2.6, -0.001, 5.5, 0.0};
  const std::vector<double> once = quantized(block);
  const std::vector<double> twice = quantized(once);
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(twice[i], once[i]) << "word " << i;
  }
}

TEST(BlockFloat, CommutesWithPowerOfTwoScaling) {
  // encode(2^k * block) must reuse the same mantissas with exponent e + k:
  // quantize then scale equals scale then quantize, bit for bit.
  const std::vector<double> block = {0.9, -0.33, 0.125, 1.75, -1.0, 0.01};
  for (int k : {-12, -3, 1, 7, 30}) {
    const double s = std::ldexp(1.0, k);
    std::vector<double> scaled = block;
    for (double& v : scaled) v *= s;

    std::vector<std::int16_t> mant_a(block.size()), mant_b(block.size());
    const std::int32_t ea =
        block_float_encode(std::span<const double>(block), mant_a);
    const std::int32_t eb =
        block_float_encode(std::span<const double>(scaled), mant_b);
    EXPECT_EQ(eb, ea + k) << "k = " << k;
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(mant_b[i], mant_a[i]) << "k = " << k << ", word " << i;
    }

    const std::vector<double> qa = quantized(block);
    const std::vector<double> qb = quantized(scaled);
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(qb[i], qa[i] * s) << "k = " << k << ", word " << i;
    }
  }
}

TEST(BlockFloat, OverflowCornerClampsToMaxMantissa) {
  // frexp puts the block max at mantissa ~0.999...; scaling by 2^15 and
  // rounding can land on exactly 32768, one past the int16 range.  The
  // value just below 1.0 exercises that corner: llround(0.99998... * 2^15)
  // rounds up to 32768 and must clamp to 32767.
  const double top = std::nextafter(1.0, 0.0);
  std::vector<double> block = {top, -top, 0.5};
  std::vector<std::int16_t> mant(block.size());
  const std::int32_t e =
      block_float_encode(std::span<const double>(block), mant);
  EXPECT_EQ(mant[0], 32767);
  EXPECT_EQ(mant[1], -32767);
  std::vector<double> out(block.size());
  block_float_decode(e, mant, out);
  EXPECT_LE(std::fabs(out[0] - top), top * kUlp15);
  EXPECT_LE(std::fabs(out[1] + top), top * kUlp15);
}

TEST(BlockFloat, HugeMagnitudesSurvive) {
  const double big = std::ldexp(1.0, 1000);
  std::vector<double> block = {big, -big / 2, big / 4};
  const std::vector<double> q = quantized(block);
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_LE(std::fabs(q[i] - block[i]), big * kUlp15) << "word " << i;
    EXPECT_TRUE(std::isfinite(q[i]));
  }
}

TEST(BlockFloat, DenormalAdjacentBlocksFlushSafely) {
  // Blocks whose max sits near DBL_MIN: mantissa * 2^(e-15) pushes into
  // (or below) the denormal range.  The codec must stay finite, within the
  // documented bound, and never produce UB garbage.
  const double tiny = std::numeric_limits<double>::min();  // 2^-1022
  for (double scale : {1.0, 1.0 / 16.0, kUlp15, kUlp15 * kUlp15}) {
    std::vector<double> block = {tiny * scale, -tiny * scale / 2.0,
                                 tiny * scale / 3.0, 0.0};
    const double amax = max_abs(block);
    const std::vector<double> q = quantized(block);
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_TRUE(std::isfinite(q[i]));
      EXPECT_LE(std::fabs(q[i] - block[i]), amax * kUlp15)
          << "scale " << scale << ", word " << i;
    }
    EXPECT_EQ(q[3], 0.0);
  }
}

TEST(BlockFloat, PreservesOrderWithinBlock) {
  // Shared-exponent rounding is monotone: if a <= b then q(a) <= q(b)
  // (mantissas come from the same llround of a scaled value).
  Rng rng(314159);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> block(16);
    for (double& v : block) v = 20.0 * (rng.next_double() - 0.5);
    std::vector<double> sorted = block;
    std::sort(sorted.begin(), sorted.end());
    const std::vector<double> q = quantized(sorted);
    for (std::size_t i = 1; i < q.size(); ++i) {
      EXPECT_LE(q[i - 1], q[i]) << "rep " << rep << ", word " << i;
    }
  }
}

TEST(BlockFloat, FuzzRoundTripBound) {
  // Random blocks across wildly different scales; every word must satisfy
  // the documented round-trip bound and quantization must be idempotent.
  Rng rng(20260809);
  for (int rep = 0; rep < 500; ++rep) {
    const std::size_t n = 1 + rng.next_below(64);
    const int scale_exp = static_cast<int>(rng.next_below(601)) - 300;
    std::vector<double> block(n);
    for (double& v : block) {
      v = std::ldexp(rng.next_gaussian(), scale_exp);
      if (rng.next_bool(0.05)) v = 0.0;  // sprinkle exact zeros
    }
    const double amax = max_abs(block);
    const std::vector<double> q = quantized(block);
    const std::vector<double> q2 = quantized(q);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(std::fabs(q[i] - block[i]), amax * kUlp15)
          << "rep " << rep << ", word " << i;
      ASSERT_EQ(q2[i], q[i]) << "rep " << rep << ", word " << i;
    }
  }
}

// The codec's definition: frexp picks the shared exponent, ldexp scales and
// llround rounds half away from zero.  The library's inline path must give
// these bits for every block.
std::int32_t libm_encode(std::span<const double> block,
                         std::span<std::int16_t> mant) {
  double amax = 0;
  for (const double v : block) amax = std::max(amax, std::abs(v));
  if (amax == 0.0) {
    for (auto& m : mant) m = 0;
    return 0;
  }
  int e = 0;
  (void)std::frexp(amax, &e);
  for (std::size_t i = 0; i < block.size(); ++i) {
    long long m = std::llround(std::ldexp(block[i], 15 - e));
    if (m > 32767) m = 32767;
    if (m < -32767) m = -32767;
    mant[i] = static_cast<std::int16_t>(m);
  }
  return e;
}

void libm_decode(std::int32_t exponent, std::span<const std::int16_t> mant,
                 std::span<double> out) {
  for (std::size_t i = 0; i < mant.size(); ++i) {
    out[i] = std::ldexp(static_cast<double>(mant[i]), exponent - 15);
  }
}

// Whether 2^k is a normal double.  The inline path encodes a finite,
// nonzero block when both 2^(15-e) and 2^(e-15) are, and decodes when
// 2^(e-15) is.
bool normal_pow2(int k) { return std::isnormal(std::ldexp(1.0, k)); }

/// A block exponent: mostly solver-like, plus the whole double range and
/// both ends of the inline path's exponent window.
int fuzz_exponent(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return static_cast<int>(rng.next_below(61)) - 30;
    case 1:
      return static_cast<int>(rng.next_below(2100)) - 1075;
    case 2:
      return static_cast<int>(rng.next_below(81)) - 1050;
    default:
      return static_cast<int>(rng.next_below(31)) + 994;
  }
}

/// One word of a block whose largest words sit near 2^e.
double fuzz_word(Rng& rng, int e) {
  const double sign = rng.next_bool(0.5) ? 1.0 : -1.0;
  const auto kind = rng.next_below(64);
  if (kind == 0) return std::bit_cast<double>(rng.next_u64());  // any bits
  if (kind == 1) {
    return rng.next_bool(0.5) ? std::numeric_limits<double>::quiet_NaN()
                              : sign * std::numeric_limits<double>::infinity();
  }
  if (kind < 6) return sign * 0.0;
  if (kind < 14) {
    // An exact tie (j + 1/2) * 2^(e-15), j in [-32767, 32767]: half the ties
    // have an even j, where round-half-even and llround disagree.
    const double j = static_cast<double>(rng.next_below(65535)) - 32767.0;
    return std::ldexp(j + 0.5, e - 15);
  }
  if (kind < 16) {
    // Just under 2^e: scales to just under 2^15 and rounds onto the clamp.
    return sign * std::nextafter(std::ldexp(1.0, e), 0.0);
  }
  if (kind < 24) {
    const int drop = 16 + static_cast<int>(rng.next_below(60));
    return std::ldexp(rng.next_gaussian(), e - drop);  // a mantissa near 0
  }
  return std::ldexp(2.0 * rng.next_double() - 1.0, e);
}

TEST(BlockFloat, InlineCodecMatchesLibmReference) {
  // Bit-for-bit agreement of encode, decode, quantize and
  // quantize_in_place(kHalf) with the frexp/ldexp/llround definition, over
  // blocks the inline path serves and blocks it hands to libm.
  Rng rng(20261020);
  int inline_blocks = 0, libm_blocks = 0;
  int inline_decodes = 0, libm_decodes = 0;
  for (int rep = 0; rep < 200000; ++rep) {
    const std::size_t n = 1 + rng.next_below(24);
    const int e_target = fuzz_exponent(rng);
    std::vector<double> block(n);
    for (double& v : block) v = fuzz_word(rng, e_target);

    std::vector<std::int16_t> want_mant(n), got_mant(n);
    const std::int32_t want_e = libm_encode(block, want_mant);
    const std::int32_t got_e = block_float_encode(block, got_mant);
    ASSERT_EQ(got_e, want_e) << "rep " << rep;
    ASSERT_EQ(std::memcmp(got_mant.data(), want_mant.data(), n * 2), 0)
        << "mantissas differ, rep " << rep;

    const bool finite = std::all_of(block.begin(), block.end(),
                                    [](double v) { return std::isfinite(v); });
    const bool zero = std::all_of(block.begin(), block.end(),
                                  [](double v) { return v == 0.0; });
    if (finite && !zero && normal_pow2(15 - want_e) &&
        normal_pow2(want_e - 15)) {
      ++inline_blocks;
    } else {
      ++libm_blocks;
    }

    std::vector<double> want(n), got(n);
    libm_decode(want_e, want_mant, want);
    block_float_decode(want_e, want_mant, got);
    ASSERT_EQ(std::memcmp(got.data(), want.data(), n * 8), 0)
        << "decode differs, rep " << rep;

    std::vector<double> q = block;
    block_float_quantize(q);
    ASSERT_EQ(std::memcmp(q.data(), want.data(), n * 8), 0)
        << "block_float_quantize differs, rep " << rep;
    std::vector<double> qp = block;
    quantize_in_place(qp, Precision::kHalf, static_cast<int>(n));
    ASSERT_EQ(std::memcmp(qp.data(), want.data(), n * 8), 0)
        << "quantize_in_place differs, rep " << rep;

    // Decode also takes exponents no encode produces, up to overflow to inf.
    const auto e_any = static_cast<std::int32_t>(rng.next_below(2201)) - 1100;
    libm_decode(e_any, want_mant, want);
    block_float_decode(e_any, want_mant, got);
    ASSERT_EQ(std::memcmp(got.data(), want.data(), n * 8), 0)
        << "decode at exponent " << e_any << " differs, rep " << rep;
    if (normal_pow2(e_any - 15)) {
      ++inline_decodes;
    } else {
      ++libm_decodes;
    }
  }
  EXPECT_GT(inline_blocks, 10000);
  EXPECT_GT(libm_blocks, 10000);
  EXPECT_GT(inline_decodes, 10000);
  EXPECT_GT(libm_decodes, 10000);
}

TEST(QuantizeInPlace, DoubleIsIdentitySingleRoundsHalfBlocks) {
  Rng rng(77);
  std::vector<double> data(48);
  for (double& v : data) v = rng.next_gaussian();

  std::vector<double> d = data;
  quantize_in_place(std::span<double>(d), Precision::kDouble, 24);
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(d[i], data[i]);

  std::vector<double> s = data;
  quantize_in_place(std::span<double>(s), Precision::kSingle, 24);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(s[i], static_cast<double>(static_cast<float>(data[i])));
  }

  // Half must quantize per block_words block: block 0 and block 1 get
  // independent shared exponents, matching a manual per-block quantize.
  std::vector<double> h = data;
  quantize_in_place(std::span<double>(h), Precision::kHalf, 24);
  std::vector<double> manual = data;
  block_float_quantize(std::span<double>(manual).subspan(0, 24));
  block_float_quantize(std::span<double>(manual).subspan(24, 24));
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(h[i], manual[i]) << "word " << i;
  }
}

TEST(Precision, TrafficWidthsAndNames) {
  EXPECT_EQ(bytes_per_double(Precision::kDouble), 8.0);
  EXPECT_EQ(bytes_per_double(Precision::kSingle), 4.0);
  EXPECT_EQ(bytes_per_double(Precision::kHalf), 2.25);
  EXPECT_STREQ(precision_name(Precision::kDouble), "double");
  EXPECT_STREQ(precision_name(Precision::kSingle), "single");
  EXPECT_STREQ(precision_name(Precision::kHalf), "half");
}

}  // namespace
}  // namespace qcdoc::lattice
