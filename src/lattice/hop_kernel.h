// The one Wilson hopping kernel (private to src/lattice).  It serves the
// Wilson operator, and through it clover and twisted mass, and every
// four-dimensional slice of the domain-wall operator.
//
// A RankView points at one rank's spinors, links and halo buffers, with
// strides.  A Wilson field's sites are one spinor apart and its face sites
// one wire half spinor apart.  Slice s5 of a domain-wall field starts s5
// spinors into each site; its sites are Ls spinors apart and its face
// sites Ls half spinors apart.  The projector sign is a template
// parameter: +1 is Dslash, -1 is Dslash^+ (every hop's projector swapped),
// which the domain-wall dagger runs.
//
// Everything here has internal linkage: each including file compiles its
// own copy, so Wilson runs code compiled and inlined for wilson.cpp alone.
// GCC's inlining choices decide the kernel's speed; see add_hops.
//
// The functional kernels cost host time only: the machine time of a Dirac
// application comes from its pack_profile()/site_profile().  They must
// still produce every output bit the reference helpers (project,
// reconstruct, operator*(U, v), adj_mul) do, so they repeat those helpers'
// operations in the same order -- the zero accumulator starts and the
// multiplications by the projector's 0/+-1/+-i entries included, since
// those can decide the sign of a zero.  tests/test_dirac.cpp rebuilds the
// reference Wilson and domain-wall loops and compares.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "lattice/gauge.h"

namespace qcdoc::lattice {
namespace {

/// Wire words per face-site half spinor: 12 doubles, 12 packed floats (6
/// words), or 12 block-float mantissas + shared exponent (4 words).
int halo_words(Precision p) {
  switch (p) {
    case Precision::kSingle:
      return 6;
    case Precision::kHalf:
      return 4;
    case Precision::kDouble:
    default:
      return 12;
  }
}

/// A complex number as two plain doubles.  The product is std::complex
/// <double>'s formula, (ar*br - ai*bi, ar*bi + ai*br); std::complex also
/// recomputes a product whose parts both come out NaN (C99 Annex G), which
/// this type skips.  NaN propagates through every later + and *, so a
/// kernel result without NaN equals the std::complex result bit for bit;
/// a result with NaN is recomputed in std::complex arithmetic.
struct RawComplex {
  double re = 0;
  double im = 0;
  double real() const { return re; }
  double imag() const { return im; }
};
RawComplex operator*(RawComplex a, RawComplex b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}
RawComplex& operator+=(RawComplex& a, RawComplex b) {
  a.re += b.re;
  a.im += b.im;
  return a;
}
RawComplex operator+(RawComplex a, RawComplex b) { return a += b; }
RawComplex conj(RawComplex a) { return {a.re, -a.im}; }

template <typename C>
using ColorOf = std::array<C, 3>;
template <typename C>
using HalfOf = std::array<ColorOf<C>, 2>;
template <typename C>
using SpinorOf = std::array<ColorOf<C>, kSpins>;

/// Complex k of interleaved (re, im) storage.
template <typename C>
C element(const double* p, int k) {
  return C{p[2 * k], p[2 * k + 1]};
}

template <typename C>
C as(const Complex& z) {
  return C{z.real(), z.imag()};
}

template <typename C, std::size_t N>
bool has_nan(const std::array<ColorOf<C>, N>& x) {
  for (const auto& v : x) {
    for (const C& z : v) {
      if (std::isnan(z.real()) || std::isnan(z.imag())) return true;
    }
  }
  return false;
}

/// Offset of U_mu(site) in GaugeField storage: 4 x 18 doubles per site.
std::size_t link_offset(int site, int mu) {
  return (static_cast<std::size_t>(site) * kNd + static_cast<std::size_t>(mu)) *
         kDoublesPerSu3;
}

template <typename C>
void store_spinor_of(double* p, const SpinorOf<C>& acc) {
  for (int sp = 0; sp < kSpins; ++sp) {
    for (int c = 0; c < 3; ++c) {
      p[2 * (3 * sp + c)] = acc[sp][c].real();
      p[2 * (3 * sp + c) + 1] = acc[sp][c].imag();
    }
  }
}

/// project(Mu, Sign, load_spinor(psi)).
template <typename C, int Mu, int Sign>
HalfOf<C> project_at(const double* psi) {
  constexpr SpinProjector e = kSpinProjectors[Mu][Sign > 0 ? 0 : 1];
  HalfOf<C> h;
  for (int c = 0; c < 3; ++c) {
    h[0][c] = element<C>(psi, c) + as<C>(e.c0) * element<C>(psi, 3 * e.j0 + c);
    h[1][c] =
        element<C>(psi, 3 + c) + as<C>(e.c1) * element<C>(psi, 3 * e.j1 + c);
  }
  return h;
}

/// acc += reconstruct(Mu, Sign, h).
template <typename C, int Mu, int Sign>
void add_reconstructed(SpinorOf<C>& acc, const HalfOf<C>& h) {
  constexpr SpinProjector e = kSpinProjectors[Mu][Sign > 0 ? 0 : 1];
  for (int c = 0; c < 3; ++c) {
    acc[0][c] += h[0][c];
    acc[1][c] += h[1][c];
    acc[2][c] += as<C>(e.r2) * h[e.k2][c];
    acc[3][c] += as<C>(e.r3) * h[e.k3][c];
  }
}

/// The high-face half spinor U_mu^+(x) (1 + Sign gamma_mu) psi(x), as the
/// sender pre-multiplies it for the +mu neighbour.
template <typename C, int Mu, int Sign>
HalfOf<C> backward_half(const double* psi, const double* u) {
  const HalfOf<C> h = project_at<C, Mu, -Sign>(psi);
  return {su3_adj_mul(u, h[0]), su3_adj_mul(u, h[1])};
}

/// Writes a half spinor to the wire: 12 doubles, 12 floats, or 12
/// block-float mantissas plus the shared exponent.
template <typename C>
void pack_half(double* dst, const HalfOf<C>& h, Precision prec) {
  double v[kDoublesPerHalfSpinor];
  for (int sp = 0; sp < 2; ++sp) {
    for (int c = 0; c < 3; ++c) {
      v[2 * (3 * sp + c)] = h[sp][c].real();
      v[2 * (3 * sp + c) + 1] = h[sp][c].imag();
    }
  }
  if (prec == Precision::kDouble) {
    std::memcpy(dst, v, sizeof(v));
    return;
  }
  if (prec == Precision::kHalf) {
    std::int16_t mant[12];
    const std::int32_t e = block_float_encode(std::span<const double>(v, 12),
                                              std::span<std::int16_t>(mant, 12));
    unsigned char raw[32] = {};
    std::memcpy(raw, mant, sizeof(mant));
    std::memcpy(raw + sizeof(mant), &e, sizeof(e));
    std::memcpy(dst, raw, sizeof(raw));
    return;
  }
  float tmp[12];
  for (int k = 0; k < 12; ++k) tmp[k] = static_cast<float>(v[k]);
  std::memcpy(dst, tmp, sizeof(tmp));
}

/// Reads a half spinor off the wire.
template <typename C>
HalfOf<C> unpack_half(const double* src, Precision prec) {
  double v[kDoublesPerHalfSpinor];
  if (prec == Precision::kDouble) {
    std::memcpy(v, src, sizeof(v));
  } else if (prec == Precision::kHalf) {
    unsigned char raw[32];
    std::memcpy(raw, src, sizeof(raw));
    std::int16_t mant[12];
    std::int32_t e = 0;
    std::memcpy(mant, raw, sizeof(mant));
    std::memcpy(&e, raw + sizeof(mant), sizeof(e));
    block_float_decode(e, std::span<const std::int16_t>(mant, 12),
                       std::span<double>(v, 12));
  } else {
    float tmp[12];
    std::memcpy(tmp, src, sizeof(tmp));
    for (int k = 0; k < 12; ++k) v[k] = tmp[k];
  }
  HalfOf<C> h;
  for (int c = 0; c < 3; ++c) {
    h[0][c] = element<C>(v, c);
    h[1][c] = element<C>(v, 3 + c);
  }
  return h;
}

/// One rank's storage (one slice of it, for a domain-wall field), fetched
/// once per kernel call.
struct RankView {
  const LocalGeometry* local = nullptr;
  const double* psi = nullptr;  ///< the slice's spinor at site 0
  const double* links = nullptr;
  /// send_buf / recv_buf(mu, +1) and (mu, -1), advanced to the slice.
  std::array<std::array<double*, 2>, kNd> send{};
  std::array<std::array<const double*, 2>, kNd> recv{};
  Precision prec = Precision::kDouble;
  /// Doubles from one site's spinor to the next, and from one face site's
  /// wire half spinor to the next.
  std::size_t site_stride = 0;
  std::size_t face_stride = 0;
};

/// Rank r's view of `in`, `slice` spinors into each site.  A site holds
/// site_doubles() / 24 spinors (Wilson 1, domain wall Ls), and a halo slot
/// holds one wire half spinor per spinor.
RankView rank_view(const DistField& in, const GaugeField& gauge,
                   HaloSet& halos, int r, int slice, Precision prec) {
  const auto sl = static_cast<std::size_t>(slice);
  const std::size_t wire = static_cast<std::size_t>(halo_words(prec)) * sl;
  RankView v;
  v.local = &in.geometry().local();
  v.psi = in.data(r).data() + sl * kDoublesPerSpinor;
  v.links = gauge.field().data(r).data();
  for (int mu = 0; mu < kNd; ++mu) {
    const auto m = static_cast<std::size_t>(mu);
    v.send[m] = {halos.send_buf(r, mu, +1).data() + wire,
                 halos.send_buf(r, mu, -1).data() + wire};
    v.recv[m] = {halos.recv_buf(r, mu, +1).data() + wire,
                 halos.recv_buf(r, mu, -1).data() + wire};
  }
  v.prec = prec;
  v.site_stride = static_cast<std::size_t>(in.site_doubles());
  v.face_stride = static_cast<std::size_t>(halos.halo_doubles());
  return v;
}

const double* spinor_at(const RankView& v, int site) {
  return v.psi + static_cast<std::size_t>(site) * v.site_stride;
}

/// Halo slot `slot` of the +mu (side 0) or -mu (side 1) receive buffer.
const double* halo_at(const RankView& v, int mu, int side, int slot) {
  return v.recv[static_cast<std::size_t>(mu)][static_cast<std::size_t>(side)] +
         static_cast<std::size_t>(slot) * v.face_stride;
}

/// Both hops along Mu into acc: U_mu(x) (1 - Sign gamma_mu) psi(x+mu),
/// then U_mu^+(x-mu) (1 + Sign gamma_mu) psi(x-mu).  Kept out of line:
/// with all eight hops inlined into the site loop, Wilson's dslash ran
/// 12-26% slower (DESIGN.md, "Lattice host kernels").
template <typename C, int Mu, int Sign>
[[gnu::noinline]] void add_hops(SpinorOf<C>& acc, int s, const RankView& v) {
  const auto fwd = v.local->neighbor(s, Mu, +1);
  const HalfOf<C> h =
      fwd.local ? project_at<C, Mu, Sign>(spinor_at(v, fwd.index))
                : unpack_half<C>(halo_at(v, Mu, 0, fwd.index), v.prec);
  const double* u = v.links + link_offset(s, Mu);
  add_reconstructed<C, Mu, Sign>(acc, {su3_mul(u, h[0]), su3_mul(u, h[1])});

  // Off-node, the sender has already applied U^+.
  const auto bwd = v.local->neighbor(s, Mu, -1);
  const HalfOf<C> g =
      bwd.local ? backward_half<C, Mu, Sign>(
                      spinor_at(v, bwd.index),
                      v.links + link_offset(bwd.index, Mu))
                : unpack_half<C>(halo_at(v, Mu, 1, bwd.index), v.prec);
  add_reconstructed<C, Mu, -Sign>(acc, g);
}

/// Dslash psi at site s (Sign -1: Dslash^+ psi).
template <typename C, int Sign>
SpinorOf<C> hopping_site(int s, const RankView& v) {
  SpinorOf<C> acc{};
  add_hops<C, 0, Sign>(acc, s, v);
  add_hops<C, 1, Sign>(acc, s, v);
  add_hops<C, 2, Sign>(acc, s, v);
  add_hops<C, 3, Sign>(acc, s, v);
  return acc;
}

/// Stores hopping_site's 24 doubles at dst, recomputed in std::complex
/// arithmetic when the plain-double result holds a NaN.
template <int Sign>
void store_hop(double* dst, int s, const RankView& v) {
  const SpinorOf<RawComplex> acc = hopping_site<RawComplex, Sign>(s, v);
  if (has_nan(acc)) {
    store_spinor_of(dst, hopping_site<Complex, Sign>(s, v));
  } else {
    store_spinor_of(dst, acc);
  }
}

/// Packs the two faces of dimension Mu.
template <int Mu, int Sign>
void pack_dim(const RankView& v) {
  // Low face -> the -mu neighbour's +mu halo: plain projection; the
  // receiver applies its own U_mu(x).
  const auto low = v.local->face_layer_sites(Mu, +1, 0);
  for (std::size_t t = 0; t < low.size(); ++t) {
    const double* p = spinor_at(v, low[t]);
    double* dst = v.send[Mu][0] + t * v.face_stride;
    const HalfOf<RawComplex> h = project_at<RawComplex, Mu, Sign>(p);
    if (has_nan(h)) {
      pack_half(dst, project_at<Complex, Mu, Sign>(p), v.prec);
    } else {
      pack_half(dst, h, v.prec);
    }
  }
  // High face -> the +mu neighbour's -mu halo: U^+ applied at the sender,
  // so the receiver needs no gauge halo.
  const auto high = v.local->face_layer_sites(Mu, -1, 0);
  for (std::size_t t = 0; t < high.size(); ++t) {
    const double* p = spinor_at(v, high[t]);
    const double* u = v.links + link_offset(high[t], Mu);
    double* dst = v.send[Mu][1] + t * v.face_stride;
    const HalfOf<RawComplex> h = backward_half<RawComplex, Mu, Sign>(p, u);
    if (has_nan(h)) {
      pack_half(dst, backward_half<Complex, Mu, Sign>(p, u), v.prec);
    } else {
      pack_half(dst, h, v.prec);
    }
  }
}

/// Packs the eight faces of v into its send buffers.
template <int Sign>
void pack_rank(const RankView& v) {
  pack_dim<0, Sign>(v);
  pack_dim<1, Sign>(v);
  pack_dim<2, Sign>(v);
  pack_dim<3, Sign>(v);
}

}  // namespace
}  // namespace qcdoc::lattice
