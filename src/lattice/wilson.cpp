#include "lattice/wilson.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

namespace qcdoc::lattice {
namespace {

/// Halo words per face site: half spinors travel as 12 doubles, 12 packed
/// floats (6 words), or 12 block-float mantissas + shared exponent (4 words).
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

// --- hopping-kernel arithmetic ----------------------------------------------
//
// The functional kernels cost host time only: the machine time of a Dirac
// application comes from pack_profile()/site_profile().  They must still
// produce every output bit the reference helpers (project, reconstruct,
// operator*(U, v), adj_mul) do, so they repeat those helpers' operations
// in the same order -- the zero accumulator starts and the multiplications
// by the projector's 0/+-1/+-i entries included, since those can decide the
// sign of a zero.  tests/test_dirac.cpp rebuilds the reference loop and
// compares.

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

/// Offsets into field storage: 24 doubles per spinor, 4 x 18 per site of
/// links (GaugeField's layout).
std::size_t spinor_offset(int site) {
  return static_cast<std::size_t>(site) * kDoublesPerSpinor;
}
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

/// The high-face half spinor U_mu^+(x) (1 + gamma_mu) psi(x), as the
/// sender pre-multiplies it for the +mu neighbour.
template <typename C, int Mu>
HalfOf<C> backward_half(const double* psi, const double* u) {
  const HalfOf<C> h = project_at<C, Mu, -1>(psi);
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

/// One rank's storage, fetched once per kernel call.
struct RankView {
  const LocalGeometry* local = nullptr;
  const double* psi = nullptr;
  const double* links = nullptr;
  /// recv_buf(mu, +1) and recv_buf(mu, -1); packing leaves them unset.
  std::array<std::array<const double*, 2>, kNd> halo{};
  Precision prec = Precision::kDouble;
  std::size_t halo_words = 0;
};

/// Both hops along Mu into acc: U_mu(x) (1 - gamma_mu) psi(x+mu), then
/// U_mu^+(x-mu) (1 + gamma_mu) psi(x-mu).
template <typename C, int Mu>
void add_hops(SpinorOf<C>& acc, int s, const RankView& v) {
  const auto fwd = v.local->neighbor(s, Mu, +1);
  const HalfOf<C> h =
      fwd.local
          ? project_at<C, Mu, +1>(v.psi + spinor_offset(fwd.index))
          : unpack_half<C>(v.halo[Mu][0] + static_cast<std::size_t>(
                                               fwd.index) * v.halo_words,
                           v.prec);
  const double* u = v.links + link_offset(s, Mu);
  add_reconstructed<C, Mu, +1>(acc, {su3_mul(u, h[0]), su3_mul(u, h[1])});

  // Off-node, the sender has already applied U^+.
  const auto bwd = v.local->neighbor(s, Mu, -1);
  const HalfOf<C> g =
      bwd.local
          ? backward_half<C, Mu>(v.psi + spinor_offset(bwd.index),
                                 v.links + link_offset(bwd.index, Mu))
          : unpack_half<C>(v.halo[Mu][1] + static_cast<std::size_t>(
                                               bwd.index) * v.halo_words,
                           v.prec);
  add_reconstructed<C, Mu, -1>(acc, g);
}

/// Dslash psi at site s.
template <typename C>
SpinorOf<C> hopping_site(int s, const RankView& v) {
  SpinorOf<C> acc{};
  add_hops<C, 0>(acc, s, v);
  add_hops<C, 1>(acc, s, v);
  add_hops<C, 2>(acc, s, v);
  add_hops<C, 3>(acc, s, v);
  return acc;
}

/// Packs the two faces of dimension Mu into send_low / send_high.
template <int Mu>
void pack_dim(const RankView& v, double* send_low, double* send_high) {
  // Low face -> the -mu neighbour's +mu halo: plain projection; the
  // receiver applies its own U_mu(x).
  const auto low = v.local->face_layer_sites(Mu, +1, 0);
  for (std::size_t t = 0; t < low.size(); ++t) {
    const double* p = v.psi + spinor_offset(low[t]);
    double* dst = send_low + t * v.halo_words;
    const HalfOf<RawComplex> h = project_at<RawComplex, Mu, +1>(p);
    if (has_nan(h)) {
      pack_half(dst, project_at<Complex, Mu, +1>(p), v.prec);
    } else {
      pack_half(dst, h, v.prec);
    }
  }
  // High face -> the +mu neighbour's -mu halo: U^+ applied at the sender,
  // so the receiver needs no gauge halo.
  const auto high = v.local->face_layer_sites(Mu, -1, 0);
  for (std::size_t t = 0; t < high.size(); ++t) {
    const double* p = v.psi + spinor_offset(high[t]);
    const double* u = v.links + link_offset(high[t], Mu);
    double* dst = send_high + t * v.halo_words;
    const HalfOf<RawComplex> h = backward_half<RawComplex, Mu>(p, u);
    if (has_nan(h)) {
      pack_half(dst, backward_half<Complex, Mu>(p, u), v.prec);
    } else {
      pack_half(dst, h, v.prec);
    }
  }
}

/// Fold the legacy single_precision flag into the precision enum (and keep
/// the flag consistent so either spelling reads true).
WilsonParams normalize(WilsonParams p) {
  if (p.single_precision && p.precision == Precision::kDouble) {
    p.precision = Precision::kSingle;
  }
  p.single_precision = p.precision == Precision::kSingle;
  return p;
}

}  // namespace

WilsonDirac::WilsonDirac(FieldOps* ops, const GlobalGeometry* geom,
                         GaugeField* gauge, WilsonParams params)
    : DiracOperator(ops, geom),
      gauge_(gauge),
      params_(normalize(params)),
      halos_(&ops->comm(), geom, halo_doubles(), 1, 1, "wilson.halo") {}

void WilsonDirac::pack_faces(const DistField& in) {
  RankView v;
  v.local = &geom_->local();
  v.prec = params_.precision;
  v.halo_words = static_cast<std::size_t>(halo_words(v.prec));
  for (int r = 0; r < in.ranks(); ++r) {
    v.psi = in.data(r).data();
    v.links = gauge_->field().data(r).data();
    const auto send = [&](int mu, int dir) {
      return halos_.send_buf(r, mu, dir).data();
    };
    pack_dim<0>(v, send(0, +1), send(0, -1));
    pack_dim<1>(v, send(1, +1), send(1, -1));
    pack_dim<2>(v, send(2, +1), send(2, -1));
    pack_dim<3>(v, send(3, +1), send(3, -1));
  }
}

void WilsonDirac::compute_sites(DistField& out, const DistField& in,
                                int parity) {
  RankView v;
  v.local = &geom_->local();
  v.prec = params_.precision;
  v.halo_words = static_cast<std::size_t>(halo_words(v.prec));
  for (int r = 0; r < in.ranks(); ++r) {
    v.psi = in.data(r).data();
    v.links = gauge_->field().data(r).data();
    for (int mu = 0; mu < kNd; ++mu) {
      const auto m = static_cast<std::size_t>(mu);
      v.halo[m][0] = halos_.recv_buf(r, mu, +1).data();
      v.halo[m][1] = halos_.recv_buf(r, mu, -1).data();
    }
    double* res = out.data(r).data();
    for (int s = 0; s < v.local->volume(); ++s) {
      if (parity >= 0 && geom_->parity(r, s) != parity) continue;
      const SpinorOf<RawComplex> acc = hopping_site<RawComplex>(s, v);
      if (has_nan(acc)) {
        store_spinor_of(res + spinor_offset(s), hopping_site<Complex>(s, v));
      } else {
        store_spinor_of(res + spinor_offset(s), acc);
      }
    }
  }
}

cpu::KernelProfile WilsonDirac::pack_profile() const {
  const auto& local = geom_->local();
  const double bf = bytes_per_double(params_.precision) / 8.0;
  cpu::KernelProfile p;
  p.name = "wilson.pack";
  for (int mu = 0; mu < kNd; ++mu) {
    const double f = local.face_volume(mu);
    // Low face: projection (12 adds); high face: projection + 2 U^+ matvecs.
    p.other_flops += f * (12 + 12);
    p.fmadd_flops += f * 120;
    p.other_flops += f * 12;
    p.load_bytes += f * (2 * 192 + 144) * bf;
    p.store_bytes += f * 2 * 96 * bf;
  }
  p.edram_bytes = p.load_bytes + p.store_bytes;  // faces stream from EDRAM
  p.streams = 2;
  p.overhead_cycles = 200;
  return p;
}

cpu::KernelProfile WilsonDirac::site_profile(
    memsys::Region fermion_region) const {
  const auto& local = geom_->local();
  const double v = local.volume();
  const double bf = bytes_per_double(params_.precision) / 8.0;
  cpu::KernelProfile p;
  p.name = "wilson.site";
  // Per site: 16 SU(3) half-spinor matvecs (960 fmadd-flops), projections
  // and accumulations (360 isolated flops) -- the canonical 1320 flops.
  p.fmadd_flops = v * 960;
  p.other_flops = v * 360;
  double gauge_loads = 0;
  double spinor_bytes = 0;
  for (int mu = 0; mu < kNd; ++mu) {
    const double f = local.face_volume(mu);
    // Forward: U at x (always local) + neighbour spinor (full if local,
    // half from the halo).  Backward: U and spinor at x-mu when local, a
    // pre-multiplied half spinor otherwise.
    gauge_loads += v * 144 + (v - f) * 144;
    spinor_bytes += (v - f) * 192 + f * 96;  // forward
    spinor_bytes += (v - f) * 192 + f * 96;  // backward
  }
  spinor_bytes += v * 192;  // result store
  p.load_bytes = (gauge_loads + spinor_bytes - v * 192) * bf;
  p.store_bytes = v * 192 * bf;
  // Traffic splits by where the fields actually live: spinor scratch
  // vectors are the first to spill out of EDRAM.
  const bool gauge_ddr =
      gauge_->field().body_region() == memsys::Region::kDdr;
  if (gauge_ddr) {
    p.ddr_bytes += gauge_loads * bf;
  } else {
    p.edram_bytes += gauge_loads * bf;
  }
  if (fermion_region == memsys::Region::kDdr) {
    p.ddr_bytes += spinor_bytes * bf;
  } else {
    p.edram_bytes += spinor_bytes * bf;
  }
  p.streams = 4;
  p.overhead_cycles = v * 12;  // loop control and address generation
  return p;
}

void WilsonDirac::exchange_and_compute(DistField& out, DistField& in,
                                       int parity) {
  auto& bsp = ops_->bsp();
  const auto& cpu = ops_->cpu();

  pack_faces(in);  // functional
  const auto pack = pack_profile();
  bsp.compute(cpu.kernel_cycles(pack));

  auto site = site_profile(in.body_region());
  if (parity >= 0) site = site.scaled(0.5);
  const double site_cycles = cpu.kernel_cycles(site);
  if (params_.overlap_comm && parity < 0) {
    // Interior sites do not touch halos: their compute hides the exchange.
    const auto& ext = geom_->local().extent();
    double interior = 1;
    for (int mu = 0; mu < kNd; ++mu) {
      const int e = ext[static_cast<std::size_t>(mu)];
      interior *= std::max(e - 2, 0);
    }
    const double frac = interior / geom_->local().volume();
    bsp.overlap(site_cycles * frac, [&] { halos_.post_all_shifts(); });
    compute_sites(out, in, parity);
    bsp.compute(site_cycles * (1.0 - frac));
  } else {
    halos_.post_all_shifts();
    bsp.communicate();
    compute_sites(out, in, parity);
    bsp.compute(site_cycles);
  }
  ops_->account_kernel(pack, geom_->ranks(), params_.precision);
  ops_->account_kernel(site, geom_->ranks(), params_.precision);
}

void WilsonDirac::dslash(DistField& out, DistField& in) {
  exchange_and_compute(out, in, -1);
}

void WilsonDirac::dslash_parity(DistField& out, DistField& in, int parity) {
  exchange_and_compute(out, in, parity);
}

void WilsonDirac::apply(DistField& out, DistField& in) {
  dslash(out, in);
  // out = in - kappa * out
  ops_->xpay(in, -params_.kappa, out);
}

void WilsonDirac::apply_gamma5(DistField& f) {
  // gamma_5 = diag(+,+,-,-): negate spin components 2 and 3.
  const int n = f.geometry().local().volume();
  for (int r = 0; r < f.ranks(); ++r) {
    for (int s = 0; s < n; ++s) {
      double* p = f.site(r, s);
      for (int k = 12; k < 24; ++k) p[k] = -p[k];
    }
  }
}

void WilsonDirac::apply_dag(DistField& out, DistField& in) {
  // M^dagger = gamma_5 M gamma_5 (and gamma_5 costs only sign flips, which
  // the assembly folds into the kernels -- no extra machine time).
  apply_gamma5(in);
  apply(out, in);
  apply_gamma5(in);  // restore the caller's field
  apply_gamma5(out);
}

double WilsonDirac::flops_per_apply() const {
  const double xpay =
      2.0 * geom_->local().volume() * kDoublesPerSpinor;
  return pack_profile().flops() + site_profile().flops() + xpay;
}

}  // namespace qcdoc::lattice
