#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include "lattice/clover.h"
#include "lattice/dwf.h"
#include "lattice/staggered.h"
#include "lattice/wilson.h"
#include "lattice_fixture.h"

namespace qcdoc::lattice {
namespace {

using testing::LatticeRig;
using testing::fill_by_global_site;
using testing::fill_gauge_by_global_site;
using testing::gather_global;

/// Complex inner product <a, b> over gathered global arrays (consecutive
/// (re, im) pairs).
Complex global_cdot(const std::vector<double>& a, const std::vector<double>& b) {
  Complex sum = 0;
  for (std::size_t i = 0; i + 1 < a.size(); i += 2) {
    sum += std::conj(Complex(a[i], a[i + 1])) * Complex(b[i], b[i + 1]);
  }
  return sum;
}

double global_max_diff(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// --- Wilson -----------------------------------------------------------------

TEST(Wilson, FreeFieldConstantSpinorGivesEightPsi) {
  // Unit gauge, constant psi: Dslash psi = sum_mu [(1-g)+(1+g)] psi = 8 psi.
  LatticeRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge, WilsonParams{});
  DistField in = op.make_field("in");
  DistField out = op.make_field("out");
  for (int r = 0; r < in.ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      double* p = in.site(r, s);
      for (int k = 0; k < 24; ++k) p[k] = 0.5 + 0.25 * k;
    }
  }
  op.dslash(out, in);
  for (int r = 0; r < out.ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      const double* pi = in.site(r, s);
      const double* po = out.site(r, s);
      for (int k = 0; k < 24; ++k) {
        ASSERT_NEAR(po[k], 8.0 * pi[k], 1e-11);
      }
    }
  }
}

TEST(Wilson, MultiNodeMatchesSingleNode) {
  // The decisive halo test: the same global problem on 1 node and on 16
  // nodes must produce identical results.
  const Coord4 global{4, 4, 4, 4};
  LatticeRig one({1, 1, 1, 1, 1, 1}, global);
  LatticeRig many({2, 2, 2, 2, 1, 1}, global);

  auto run = [&](LatticeRig& rig) {
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    fill_gauge_by_global_site(*rig.geom, gauge, 0xbeef);
    WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                   WilsonParams{.kappa = 0.124});
    DistField in = op.make_field("in");
    DistField out = op.make_field("out");
    fill_by_global_site(*rig.geom, in);
    op.apply(out, in);
    return gather_global(*rig.geom, out);
  };
  const auto a = run(one);
  const auto b = run(many);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_LT(global_max_diff(a, b), 1e-12);
}

TEST(Wilson, Gamma5Hermiticity) {
  // <phi, M psi> == <M^dagger phi, psi> with M^dagger = g5 M g5.
  LatticeRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(3);
  gauge.randomize(rng);
  WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                 WilsonParams{.kappa = 0.21});
  DistField psi = op.make_field("psi");
  DistField phi = op.make_field("phi");
  DistField mpsi = op.make_field("mpsi");
  DistField mdphi = op.make_field("mdphi");
  fill_by_global_site(*rig.geom, psi);
  // A different deterministic fill for phi.
  for (int r = 0; r < phi.ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      const Coord4 g = rig.geom->global_coords(r, s);
      double* p = phi.site(r, s);
      for (int k = 0; k < 24; ++k) {
        p[k] = std::cos(0.3 * g[0] + 0.7 * g[1] - 0.2 * g[2] + g[3] + k);
      }
    }
  }
  op.apply(mpsi, psi);
  op.apply_dag(mdphi, phi);
  const Complex lhs = global_cdot(gather_global(*rig.geom, phi),
                                  gather_global(*rig.geom, mpsi));
  const Complex rhs = global_cdot(gather_global(*rig.geom, mdphi),
                                  gather_global(*rig.geom, psi));
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9 * std::abs(lhs));
}

TEST(Wilson, SinglePrecisionCommTracksDouble) {
  const Coord4 global{4, 4, 4, 4};
  LatticeRig rig_d({2, 2, 1, 1, 1, 1}, global);
  LatticeRig rig_s({2, 2, 1, 1, 1, 1}, global);
  auto run = [&](LatticeRig& rig, bool single) {
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    fill_gauge_by_global_site(*rig.geom, gauge, 0xf00d);
    WilsonParams params;
    params.precision = single ? Precision::kSingle : Precision::kDouble;
    WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge, params);
    DistField in = op.make_field("in");
    DistField out = op.make_field("out");
    fill_by_global_site(*rig.geom, in);
    op.dslash(out, in);
    return gather_global(*rig.geom, out);
  };
  const auto d = run(rig_d, false);
  const auto s = run(rig_s, true);
  // Face data went through floats: small but nonzero truncation.
  const double diff = global_max_diff(d, s);
  EXPECT_GT(diff, 0.0);
  EXPECT_LT(diff, 1e-5);
}

TEST(Wilson, ProfileMatchesCanonicalFlops) {
  LatticeRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge, WilsonParams{});
  const auto site = op.site_profile();
  const double v = rig.geom->local().volume();
  EXPECT_DOUBLE_EQ(site.flops(), 1320.0 * v);  // the canonical count
}

TEST(Wilson, OverlapModeProducesSameResultFaster) {
  const Coord4 global{8, 8, 4, 4};
  LatticeRig rig_a({2, 2, 1, 1, 1, 1}, global);
  LatticeRig rig_b({2, 2, 1, 1, 1, 1}, global);
  auto run = [&](LatticeRig& rig, bool overlap, Cycle* cycles) {
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    fill_gauge_by_global_site(*rig.geom, gauge, 0xaaaa);
    WilsonParams params;
    params.overlap_comm = overlap;
    WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge, params);
    DistField in = op.make_field("in");
    DistField out = op.make_field("out");
    fill_by_global_site(*rig.geom, in);
    const Cycle t0 = rig.bsp->now();
    op.dslash(out, in);
    *cycles = rig.bsp->now() - t0;
    return gather_global(*rig.geom, out);
  };
  Cycle seq = 0, ovl = 0;
  const auto a = run(rig_a, false, &seq);
  const auto b = run(rig_b, true, &ovl);
  EXPECT_LT(global_max_diff(a, b), 1e-12);
  EXPECT_LT(ovl, seq);
}

// --- Wilson kernel vs the reference hop loop --------------------------------
//
// The Wilson kernel's host arithmetic may be rewritten for speed, but every
// output bit must stay what the reference helpers give.  The reference is
// the original hop loop, rebuilt from project / reconstruct / operator* /
// adj_mul with neighbours computed from coordinates: an off-node hop reads
// the neighbouring rank's site and sends its half spinor through the
// operator's wire format, as the halo exchange does.

/// A half spinor after a trip through the halo wire format.
HalfSpinor through_wire(const HalfSpinor& h, Precision prec) {
  double v[kDoublesPerHalfSpinor];
  store_half_spinor(v, h);
  if (prec == Precision::kSingle) {
    for (double& x : v) x = static_cast<float>(x);
  } else if (prec == Precision::kHalf) {
    std::int16_t mant[kDoublesPerHalfSpinor];
    const std::int32_t e = block_float_encode(v, mant);
    block_float_decode(e, mant, v);
  }
  return load_half_spinor(v);
}

/// out = Dslash in on the sites of `parity` (-1: every site).
void reference_dslash(const GlobalGeometry& geom, const GaugeField& gauge,
                      const DistField& in, DistField& out, Precision prec,
                      int parity) {
  const LocalGeometry& local = geom.local();
  for (int r = 0; r < in.ranks(); ++r) {
    for (int s = 0; s < local.volume(); ++s) {
      const Coord4 g = geom.global_coords(r, s);
      if (parity >= 0 && ((g[0] + g[1] + g[2] + g[3]) & 1) != parity) continue;
      const Coord4 x = local.coords(s);
      Spinor acc;
      for (int mu = 0; mu < kNd; ++mu) {
        const auto m = static_cast<std::size_t>(mu);
        const auto hop = [&](int d) {
          Coord4 y = g;
          y[m] += d;
          return geom.owner(y);
        };
        // Forward hop: U_mu(x) (1 - gamma_mu) psi(x+mu).
        const auto [rf, sf] = hop(+1);
        HalfSpinor h = project(mu, +1, load_spinor(in.site(rf, sf)));
        if (x[m] + 1 == local.extent()[m]) h = through_wire(h, prec);
        const Su3Matrix u = gauge.link(r, s, mu);
        HalfSpinor uh;
        uh[0] = u * h[0];
        uh[1] = u * h[1];
        acc += reconstruct(mu, +1, uh);
        // Backward hop: U_mu^+(x-mu) (1 + gamma_mu) psi(x-mu), with U^+
        // applied by the sender when x-mu is off-node.
        const auto [rb, sb] = hop(-1);
        HalfSpinor hb = project(mu, -1, load_spinor(in.site(rb, sb)));
        const Su3Matrix ub = gauge.link(rb, sb, mu);
        hb[0] = adj_mul(ub, hb[0]);
        hb[1] = adj_mul(ub, hb[1]);
        if (x[m] == 0) hb = through_wire(hb, prec);
        acc += reconstruct(mu, -1, hb);
      }
      store_spinor(out.site(r, s), acc);
    }
  }
}

/// Byte equality of two fields; NaN components need only both be NaN when
/// `nan_equal` (their payload bits depend on operand order the compiler
/// picks, not on the source).
::testing::AssertionResult same_bits(const DistField& a, const DistField& b,
                                     bool nan_equal = false) {
  for (int r = 0; r < a.ranks(); ++r) {
    const auto da = a.data(r);
    const auto db = b.data(r);
    for (std::size_t k = 0; k < da.size(); ++k) {
      if (std::memcmp(&da[k], &db[k], sizeof(double)) == 0) continue;
      if (nan_equal && std::isnan(da[k]) && std::isnan(db[k])) continue;
      return ::testing::AssertionFailure()
             << "rank " << r << " word " << k << ": " << da[k] << " vs "
             << db[k];
    }
  }
  return ::testing::AssertionSuccess();
}

void fill_gaussian(DistField& f, Rng& rng) {
  for (int r = 0; r < f.ranks(); ++r) {
    for (double& x : f.data(r)) x = rng.next_gaussian();
  }
}

/// Every entry point of the operator against the reference: dslash,
/// dslash_parity (the other parity keeps what `out` held), apply and
/// apply_dag (M^+ = g5 M g5).
void expect_matches_reference(LatticeRig& rig, GaugeField& gauge,
                              WilsonDirac& op, DistField& in,
                              bool nan_equal) {
  const Precision prec = op.params().precision;
  const double kappa = op.params().kappa;
  DistField out = op.make_field("out");
  DistField ref = op.make_field("ref");
  Rng rng(17);

  op.dslash(out, in);
  reference_dslash(*rig.geom, gauge, in, ref, prec, -1);
  EXPECT_TRUE(same_bits(out, ref, nan_equal)) << "dslash";

  for (int parity : {0, 1}) {
    fill_gaussian(out, rng);
    rig.ops->copy(out, ref);
    op.dslash_parity(out, in, parity);
    reference_dslash(*rig.geom, gauge, in, ref, prec, parity);
    EXPECT_TRUE(same_bits(out, ref, nan_equal)) << "dslash_parity " << parity;
  }

  op.apply(out, in);
  reference_dslash(*rig.geom, gauge, in, ref, prec, -1);
  rig.ops->xpay(in, -kappa, ref);
  EXPECT_TRUE(same_bits(out, ref, nan_equal)) << "apply";

  op.apply_dag(out, in);
  WilsonDirac::apply_gamma5(in);
  reference_dslash(*rig.geom, gauge, in, ref, prec, -1);
  rig.ops->xpay(in, -kappa, ref);
  WilsonDirac::apply_gamma5(in);
  WilsonDirac::apply_gamma5(ref);
  EXPECT_TRUE(same_bits(out, ref, nan_equal)) << "apply_dag";
}

/// (2x2x2x2 nodes rather than one, storage precision, overlap_comm).
using KernelCase = std::tuple<bool, Precision, bool>;

class WilsonKernelOracle : public ::testing::TestWithParam<KernelCase> {};

TEST_P(WilsonKernelOracle, MatchesReferenceHopLoopBitForBit) {
  const auto [partitioned, precision, overlap_comm] = GetParam();
  // Local {2, 3, 2, 4} when partitioned: ranks of both origin parities,
  // sites with and without off-node neighbours.
  LatticeRig rig(partitioned ? std::array<int, 6>{2, 2, 2, 2, 1, 1}
                             : std::array<int, 6>{1, 1, 1, 1, 1, 1},
                 {4, 6, 4, 8});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(0x0dac1e);
  gauge.randomize(rng);
  WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                 WilsonParams{.kappa = 0.124,
                              .overlap_comm = overlap_comm,
                              .precision = precision});
  DistField in = op.make_field("in");
  fill_gaussian(in, rng);
  expect_matches_reference(rig, gauge, op, in, false);
  // The first apply of every CG started from x = 0.
  in.zero();
  expect_matches_reference(rig, gauge, op, in, false);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, WilsonKernelOracle,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(Precision::kDouble, Precision::kSingle,
                                         Precision::kHalf),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      const Precision p = std::get<1>(info.param);
      const char* prec = p == Precision::kDouble   ? "Double"
                         : p == Precision::kSingle ? "Single"
                                                   : "Half";
      return std::string(std::get<0>(info.param) ? "Nodes16" : "Node1") +
             prec + (std::get<2>(info.param) ? "Overlap" : "Sequential");
    });

TEST(WilsonKernelOracle, NonFiniteInputMatchesReference) {
  // (inf, inf) components make complex products whose parts both come out
  // NaN, which std::complex recomputes to recover the infinities.
  LatticeRig rig({1, 1, 1, 1, 1, 1}, {4, 4, 4, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(0x1bf);
  gauge.randomize(rng);
  WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                 WilsonParams{.kappa = 0.124});
  DistField in = op.make_field("in");
  fill_gaussian(in, rng);
  const double inf = std::numeric_limits<double>::infinity();
  for (int s : {0, 21, 170}) {
    double* p = in.site(0, s);
    p[0] = p[1] = inf;    // spin 0, colour 0
    p[20] = p[21] = -inf;  // spin 3, colour 1
  }
  expect_matches_reference(rig, gauge, op, in, true);
}

// --- Clover -----------------------------------------------------------------

TEST(Clover, UnitGaugeReducesToWilson) {
  // F = 0 for a free field, so A = 1 and M_clover = M_wilson.
  const Coord4 global{4, 4, 4, 4};
  LatticeRig rig_c({2, 2, 1, 1, 1, 1}, global);
  LatticeRig rig_w({2, 2, 1, 1, 1, 1}, global);
  GaugeField gauge_c(rig_c.comm.get(), rig_c.geom.get());
  GaugeField gauge_w(rig_w.comm.get(), rig_w.geom.get());
  gauge_c.set_unit();
  gauge_w.set_unit();
  CloverDirac clover(rig_c.ops.get(), rig_c.geom.get(), &gauge_c,
                     CloverParams{.kappa = 0.124, .csw = 1.3});
  WilsonDirac wilson(rig_w.ops.get(), rig_w.geom.get(), &gauge_w,
                     WilsonParams{.kappa = 0.124});
  DistField in_c = clover.make_field("in");
  DistField out_c = clover.make_field("out");
  DistField in_w = wilson.make_field("in");
  DistField out_w = wilson.make_field("out");
  fill_by_global_site(*rig_c.geom, in_c);
  fill_by_global_site(*rig_w.geom, in_w);
  clover.apply(out_c, in_c);
  wilson.apply(out_w, in_w);
  EXPECT_LT(global_max_diff(gather_global(*rig_c.geom, out_c),
                            gather_global(*rig_w.geom, out_w)),
            1e-11);
}

TEST(Clover, CloverTermIsHermitian) {
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 4, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(8);
  gauge.randomize_near_unit(rng, 0.2);
  CloverDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                 CloverParams{.kappa = 0.1, .csw = 1.0});
  DistField psi = op.make_field("psi");
  DistField phi = op.make_field("phi");
  DistField apsi = op.make_field("apsi");
  DistField aphi = op.make_field("aphi");
  fill_by_global_site(*rig.geom, psi);
  for (int r = 0; r < phi.ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      double* p = phi.site(r, s);
      for (int k = 0; k < 24; ++k) p[k] = std::sin(1.0 + 0.37 * s + k);
    }
  }
  op.apply_clover_term(apsi, psi);
  op.apply_clover_term(aphi, phi);
  const Complex lhs = global_cdot(gather_global(*rig.geom, phi),
                                  gather_global(*rig.geom, apsi));
  const Complex rhs = global_cdot(gather_global(*rig.geom, aphi),
                                  gather_global(*rig.geom, psi));
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-10 * (1.0 + std::abs(lhs)));
}

TEST(Clover, MultiNodeMatchesSingleNode) {
  const Coord4 global{4, 4, 4, 4};
  LatticeRig one({1, 1, 1, 1, 1, 1}, global);
  LatticeRig many({2, 2, 2, 2, 1, 1}, global);
  auto run = [&](LatticeRig& rig) {
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    fill_gauge_by_global_site(*rig.geom, gauge, 0xc1c1);
    CloverDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                   CloverParams{.kappa = 0.124, .csw = 1.0});
    DistField in = op.make_field("in");
    DistField out = op.make_field("out");
    fill_by_global_site(*rig.geom, in);
    op.apply(out, in);
    return gather_global(*rig.geom, out);
  };
  EXPECT_LT(global_max_diff(run(one), run(many)), 1e-11);
}

TEST(Clover, Gamma5Hermiticity) {
  LatticeRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(9);
  gauge.randomize(rng);
  CloverDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                 CloverParams{.kappa = 0.15, .csw = 1.7});
  DistField psi = op.make_field("psi");
  DistField phi = op.make_field("phi");
  DistField mpsi = op.make_field("mpsi");
  DistField mdphi = op.make_field("mdphi");
  fill_by_global_site(*rig.geom, psi);
  for (int r = 0; r < phi.ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      double* p = phi.site(r, s);
      for (int k = 0; k < 24; ++k) p[k] = std::cos(0.11 * s * k + k);
    }
  }
  op.apply(mpsi, psi);
  op.apply_dag(mdphi, phi);
  const Complex lhs = global_cdot(gather_global(*rig.geom, phi),
                                  gather_global(*rig.geom, mpsi));
  const Complex rhs = global_cdot(gather_global(*rig.geom, mdphi),
                                  gather_global(*rig.geom, psi));
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9 * (1.0 + std::abs(lhs)));
}

// --- ASQTAD staggered -------------------------------------------------------

TEST(Asqtad, UnitGaugeSmearedLinksAreNormalized) {
  // c1 + 6*c3 = 5/8 + 6/16 = 1: a free field keeps V = 1, W = naik * 1.
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {8, 4, 4, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  AsqtadDirac op(rig.ops.get(), rig.geom.get(), &gauge, AsqtadParams{});
  const Su3Matrix v = op.fat_link(0, 0, 1);
  const Su3Matrix one = Su3Matrix::identity();
  for (std::size_t k = 0; k < 9; ++k) {
    EXPECT_NEAR(std::abs(v.m[k] - one.m[k]), 0.0, 1e-13);
  }
  const Su3Matrix w = op.long_link(0, 0, 2);
  EXPECT_NEAR(std::abs(w.at(0, 0) - Complex(-1.0 / 24.0)), 0.0, 1e-13);
}

TEST(Asqtad, FreeFieldConstantVectorIsAnnihilated) {
  // D is a lattice derivative: it kills constant fields.
  LatticeRig rig({2, 2, 1, 1, 1, 1}, {8, 8, 4, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  AsqtadDirac op(rig.ops.get(), rig.geom.get(), &gauge, AsqtadParams{});
  DistField in = op.make_field("in");
  DistField out = op.make_field("out");
  for (int r = 0; r < in.ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      double* p = in.site(r, s);
      for (int k = 0; k < 6; ++k) p[k] = 1.0 + 0.1 * k;
    }
  }
  op.dslash(out, in);
  for (int r = 0; r < out.ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      const double* p = out.site(r, s);
      for (int k = 0; k < 6; ++k) ASSERT_NEAR(p[k], 0.0, 1e-12);
    }
  }
}

TEST(Asqtad, MultiNodeMatchesSingleNode) {
  const Coord4 global{6, 6, 6, 6};
  LatticeRig one({1, 1, 1, 1, 1, 1}, global);
  LatticeRig many({2, 2, 2, 2, 1, 1}, global);
  auto run = [&](LatticeRig& rig) {
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    fill_gauge_by_global_site(*rig.geom, gauge, 0x57a6);
    AsqtadDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                   AsqtadParams{.mass = 0.07});
    DistField in = op.make_field("in");
    DistField out = op.make_field("out");
    fill_by_global_site(*rig.geom, in);
    op.apply(out, in);
    return gather_global(*rig.geom, out);
  };
  EXPECT_LT(global_max_diff(run(one), run(many)), 1e-11);
}

TEST(Asqtad, HoppingTermIsAntiHermitian) {
  LatticeRig rig({2, 2, 1, 1, 1, 1}, {8, 8, 4, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(10);
  gauge.randomize(rng);
  AsqtadDirac op(rig.ops.get(), rig.geom.get(), &gauge, AsqtadParams{});
  DistField psi = op.make_field("psi");
  DistField phi = op.make_field("phi");
  DistField dpsi = op.make_field("dpsi");
  DistField dphi = op.make_field("dphi");
  fill_by_global_site(*rig.geom, psi);
  for (int r = 0; r < phi.ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      double* p = phi.site(r, s);
      for (int k = 0; k < 6; ++k) p[k] = std::sin(0.7 * s + 1.3 * k);
    }
  }
  op.dslash(dpsi, psi);
  op.dslash(dphi, phi);
  const Complex lhs = global_cdot(gather_global(*rig.geom, phi),
                                  gather_global(*rig.geom, dpsi));
  const Complex rhs = global_cdot(gather_global(*rig.geom, dphi),
                                  gather_global(*rig.geom, psi));
  // <phi, D psi> = -conj(<psi, D phi>) = -<D phi, psi>
  EXPECT_NEAR(std::abs(lhs + rhs), 0.0, 1e-9 * (1.0 + std::abs(lhs)));
}

// --- Domain wall ------------------------------------------------------------

TEST(Dwf, MultiNodeMatchesSingleNode) {
  const Coord4 global{4, 4, 2, 2};
  LatticeRig one({1, 1, 1, 1, 1, 1}, global);
  LatticeRig many({2, 2, 1, 1, 1, 1}, global);
  auto run = [&](LatticeRig& rig) {
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    fill_gauge_by_global_site(*rig.geom, gauge, 0xd3f);
    DwfDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                DwfParams{.ls = 4, .kappa5 = 0.17, .mf = 0.05});
    DistField in = op.make_field("in");
    DistField out = op.make_field("out");
    fill_by_global_site(*rig.geom, in);
    op.apply(out, in);
    return gather_global(*rig.geom, out);
  };
  EXPECT_LT(global_max_diff(run(one), run(many)), 1e-11);
}

TEST(Dwf, DaggerIsTrueAdjoint) {
  LatticeRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(11);
  gauge.randomize(rng);
  DwfDirac op(rig.ops.get(), rig.geom.get(), &gauge,
              DwfParams{.ls = 6, .kappa5 = 0.2, .mf = 0.1});
  DistField psi = op.make_field("psi");
  DistField phi = op.make_field("phi");
  DistField mpsi = op.make_field("mpsi");
  DistField mdphi = op.make_field("mdphi");
  fill_by_global_site(*rig.geom, psi);
  for (int r = 0; r < phi.ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      double* p = phi.site(r, s);
      for (int k = 0; k < phi.site_doubles(); ++k) {
        p[k] = std::cos(0.05 * s + 0.21 * k);
      }
    }
  }
  op.apply(mpsi, psi);
  op.apply_dag(mdphi, phi);
  const Complex lhs = global_cdot(gather_global(*rig.geom, phi),
                                  gather_global(*rig.geom, mpsi));
  const Complex rhs = global_cdot(gather_global(*rig.geom, mdphi),
                                  gather_global(*rig.geom, psi));
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9 * (1.0 + std::abs(lhs)));
}

TEST(Dwf, GaugeReuseRaisesArithmeticIntensity) {
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 4, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  DwfDirac dwf8(rig.ops.get(), rig.geom.get(), &gauge, DwfParams{.ls = 8});
  DwfDirac dwf16(rig.ops.get(), rig.geom.get(), &gauge, DwfParams{.ls = 16});
  const auto p8 = dwf8.site_profile();
  const auto p16 = dwf16.site_profile();
  const double intensity8 = p8.flops() / (p8.load_bytes + p8.store_bytes);
  const double intensity16 = p16.flops() / (p16.load_bytes + p16.store_bytes);
  EXPECT_GT(intensity16, intensity8);
}

// --- Domain-wall kernel vs the reference slice loop -------------------------
//
// DwfDirac runs every slice on the Wilson hop kernel.  The reference is the
// operator's original loop: per slice, the 4-D hop from project /
// reconstruct / operator* / adj_mul (projectors swapped for the dagger),
// with neighbours from coordinates and off-node half spinors sent through
// the wire format, then the 5-D chiral couplings.

/// out = M in, or M^+ in when `dagger`.
void reference_dwf(const GlobalGeometry& geom, const GaugeField& gauge,
                   const DistField& in, DistField& out, const DwfParams& p,
                   bool dagger) {
  const LocalGeometry& local = geom.local();
  const int ls = p.ls;
  const int sf = dagger ? -1 : +1;  // forward 4-D projector sign
  const auto slice = [&](int r, int s, int s5) {
    return load_spinor(in.site(r, s) + s5 * kDoublesPerSpinor);
  };
  const auto add_chiral = [](Spinor& acc, const Spinor& psi, int sign,
                             double coeff) {
    const int lo = sign > 0 ? 0 : 2;
    for (int sp = lo; sp < lo + 2; ++sp) {
      for (int c = 0; c < 3; ++c) acc[sp][c] += coeff * psi[sp][c];
    }
  };
  for (int r = 0; r < in.ranks(); ++r) {
    for (int s = 0; s < local.volume(); ++s) {
      const Coord4 g = geom.global_coords(r, s);
      const Coord4 x = local.coords(s);
      for (int s5 = 0; s5 < ls; ++s5) {
        Spinor hop;
        for (int mu = 0; mu < kNd; ++mu) {
          const auto m = static_cast<std::size_t>(mu);
          const auto step = [&](int d) {
            Coord4 y = g;
            y[m] += d;
            return geom.owner(y);
          };
          const auto [rf, sfwd] = step(+1);
          HalfSpinor h = project(mu, sf, slice(rf, sfwd, s5));
          if (x[m] + 1 == local.extent()[m]) {
            h = through_wire(h, Precision::kDouble);
          }
          const Su3Matrix u = gauge.link(r, s, mu);
          HalfSpinor uh;
          uh[0] = u * h[0];
          uh[1] = u * h[1];
          hop += reconstruct(mu, sf, uh);

          const auto [rb, sb] = step(-1);
          HalfSpinor hb = project(mu, -sf, slice(rb, sb, s5));
          const Su3Matrix ub = gauge.link(rb, sb, mu);
          hb[0] = adj_mul(ub, hb[0]);
          hb[1] = adj_mul(ub, hb[1]);
          if (x[m] == 0) hb = through_wire(hb, Precision::kDouble);
          hop += reconstruct(mu, -sf, hb);
        }

        Spinor res = slice(r, s, s5);
        res += Complex(-p.kappa5, 0.0) * hop;
        // Non-dagger couples P- to s+1 and P+ to s-1; dagger swaps.
        const int up_sign = dagger ? +1 : -1;
        const int down_sign = dagger ? -1 : +1;
        add_chiral(res, slice(r, s, s5 + 1 < ls ? s5 + 1 : 0), up_sign,
                   s5 + 1 < ls ? -1.0 : p.mf);
        add_chiral(res, slice(r, s, s5 > 0 ? s5 - 1 : ls - 1), down_sign,
                   s5 > 0 ? -1.0 : p.mf);
        store_spinor(out.site(r, s) + s5 * kDoublesPerSpinor, res);
      }
    }
  }
}

/// apply and apply_dag against the reference.
void expect_dwf_matches_reference(LatticeRig& rig, GaugeField& gauge,
                                  DwfDirac& op, DistField& in,
                                  bool nan_equal) {
  DistField out = op.make_field("out");
  DistField ref = op.make_field("ref");
  op.apply(out, in);
  reference_dwf(*rig.geom, gauge, in, ref, op.params(), false);
  EXPECT_TRUE(same_bits(out, ref, nan_equal)) << "apply";
  op.apply_dag(out, in);
  reference_dwf(*rig.geom, gauge, in, ref, op.params(), true);
  EXPECT_TRUE(same_bits(out, ref, nan_equal)) << "apply_dag";
}

/// (2x2x2x2 nodes rather than one, overlap_comm, Ls).
using DwfKernelCase = std::tuple<bool, bool, int>;

class DwfKernelOracle : public ::testing::TestWithParam<DwfKernelCase> {};

TEST_P(DwfKernelOracle, MatchesReferenceSliceLoopBitForBit) {
  const auto [partitioned, overlap_comm, ls] = GetParam();
  // Local {2, 3, 2, 4} when partitioned, as in WilsonKernelOracle.
  LatticeRig rig(partitioned ? std::array<int, 6>{2, 2, 2, 2, 1, 1}
                             : std::array<int, 6>{1, 1, 1, 1, 1, 1},
                 {4, 6, 4, 8});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(0xd0a11);
  gauge.randomize(rng);
  DwfDirac op(rig.ops.get(), rig.geom.get(), &gauge,
              DwfParams{.ls = ls,
                        .kappa5 = 0.17,
                        .mf = 0.05,
                        .overlap_comm = overlap_comm});
  DistField in = op.make_field("in");
  fill_gaussian(in, rng);
  expect_dwf_matches_reference(rig, gauge, op, in, false);
  in.zero();
  expect_dwf_matches_reference(rig, gauge, op, in, false);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, DwfKernelOracle,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(2, 5)),
    [](const ::testing::TestParamInfo<DwfKernelCase>& info) {
      return std::string(std::get<0>(info.param) ? "Nodes16" : "Node1") +
             "Ls" + std::to_string(std::get<2>(info.param)) +
             (std::get<1>(info.param) ? "Overlap" : "Sequential");
    });

TEST(DwfKernelOracle, NonFiniteInputMatchesReference) {
  LatticeRig rig({2, 2, 2, 2, 1, 1}, {4, 4, 4, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(0x1bf5);
  gauge.randomize(rng);
  DwfDirac op(rig.ops.get(), rig.geom.get(), &gauge, DwfParams{.ls = 3});
  DistField in = op.make_field("in");
  fill_gaussian(in, rng);
  const double inf = std::numeric_limits<double>::infinity();
  // Sites on and off the faces, in different slices.
  for (const auto& [r, s, s5] : {std::array<int, 3>{0, 0, 0},
                                 std::array<int, 3>{3, 5, 1},
                                 std::array<int, 3>{9, 15, 2}}) {
    double* p = in.site(r, s) + s5 * kDoublesPerSpinor;
    p[0] = p[1] = inf;     // spin 0, colour 0
    p[20] = p[21] = -inf;  // spin 3, colour 1
  }
  expect_dwf_matches_reference(rig, gauge, op, in, true);
}

}  // namespace
}  // namespace qcdoc::lattice

namespace qcdoc::lattice {
namespace {

// The ultimate partitioning test: QCD on a 6-D machine folded down to a
// 4-D logical torus (the paper's reason for building six dimensions) must
// reproduce the single-node answer exactly.
TEST(Wilson, FoldedSixDimensionalMachineMatchesSingleNode) {
  const Coord4 global{4, 4, 4, 8};

  // Reference: one node.
  LatticeRig one({1, 1, 1, 1, 1, 1}, global);
  GaugeField gauge1(one.comm.get(), one.geom.get());
  testing::fill_gauge_by_global_site(*one.geom, gauge1, 0xf01d);
  WilsonDirac op1(one.ops.get(), one.geom.get(), &gauge1,
                  WilsonParams{.kappa = 0.124});
  DistField in1 = op1.make_field("in");
  DistField out1 = op1.make_field("out");
  fill_by_global_site(*one.geom, in1);
  op1.apply(out1, in1);
  const auto ref = gather_global(*one.geom, out1);

  // A full 2^6 hypercube (the paper's motherboard!) folded to 2x2x2x8.
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 2, 2, 2};
  machine::Machine m(cfg);
  m.power_on();
  const torus::Partition folded = torus::fold_to_4d(m.topology());
  ASSERT_TRUE(folded.is_true_torus());
  ASSERT_EQ(folded.logical_shape().extent[3], 8);
  comms::Communicator comm(&m, &folded);
  GlobalGeometry geom(&folded, global);
  machine::BspRunner bsp(&m);
  cpu::CpuModel cpu_model(m.mem_timing());
  FieldOps ops(&bsp, &cpu_model, &comm);
  GaugeField gauge2(&comm, &geom);
  testing::fill_gauge_by_global_site(geom, gauge2, 0xf01d);
  WilsonDirac op2(&ops, &geom, &gauge2, WilsonParams{.kappa = 0.124});
  DistField in2 = op2.make_field("in");
  DistField out2 = op2.make_field("out");
  fill_by_global_site(geom, in2);
  op2.apply(out2, in2);
  const auto folded_result = gather_global(geom, out2);

  ASSERT_EQ(ref.size(), folded_result.size());
  EXPECT_LT(global_max_diff(ref, folded_result), 1e-12);
  EXPECT_TRUE(m.mesh().verify_link_checksums());
}

// Machine-shape sweep: the same physics on every distribution.
struct ShapeCase {
  std::array<int, 6> machine;
  Coord4 global;
};

class DistributionSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(DistributionSweep, WilsonApplyIsDistributionInvariant) {
  const auto& c = GetParam();
  LatticeRig one({1, 1, 1, 1, 1, 1}, c.global);
  LatticeRig many(c.machine, c.global);
  auto run = [&](LatticeRig& rig) {
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    testing::fill_gauge_by_global_site(*rig.geom, gauge, 0xabc);
    WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                   WilsonParams{.kappa = 0.13});
    DistField in = op.make_field("in");
    DistField out = op.make_field("out");
    fill_by_global_site(*rig.geom, in);
    op.apply(out, in);
    return gather_global(*rig.geom, out);
  };
  EXPECT_LT(global_max_diff(run(one), run(many)), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistributionSweep,
    ::testing::Values(ShapeCase{{2, 1, 1, 1, 1, 1}, {4, 4, 2, 2}},
                      ShapeCase{{4, 1, 1, 1, 1, 1}, {8, 4, 2, 2}},
                      ShapeCase{{2, 2, 1, 1, 1, 1}, {4, 4, 2, 2}},
                      ShapeCase{{1, 2, 2, 1, 1, 1}, {2, 4, 4, 2}},
                      ShapeCase{{2, 2, 2, 2, 1, 1}, {4, 4, 4, 4}},
                      ShapeCase{{4, 2, 1, 2, 1, 1}, {8, 4, 2, 4}}));

// Domain-wall Ls sweep: adjoint identity must hold for every fifth-
// dimension extent.
class LsSweep : public ::testing::TestWithParam<int> {};

TEST_P(LsSweep, DwfAdjointIdentity) {
  const int ls = GetParam();
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 2, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(60 + ls);
  gauge.randomize(rng);
  DwfDirac op(rig.ops.get(), rig.geom.get(), &gauge,
              DwfParams{.ls = ls, .kappa5 = 0.19, .mf = 0.07});
  DistField psi = op.make_field("psi");
  DistField phi = op.make_field("phi");
  DistField mpsi = op.make_field("mpsi");
  DistField mdphi = op.make_field("mdphi");
  fill_by_global_site(*rig.geom, psi);
  for (int r = 0; r < phi.ranks(); ++r) {
    for (int s = 0; s < rig.geom->local().volume(); ++s) {
      double* p = phi.site(r, s);
      for (int k = 0; k < phi.site_doubles(); ++k) {
        p[k] = std::sin(0.03 * s * k + 0.5 * k);
      }
    }
  }
  op.apply(mpsi, psi);
  op.apply_dag(mdphi, phi);
  const Complex lhs = global_cdot(gather_global(*rig.geom, phi),
                                  gather_global(*rig.geom, mpsi));
  const Complex rhs = global_cdot(gather_global(*rig.geom, mdphi),
                                  gather_global(*rig.geom, psi));
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9 * (1.0 + std::abs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(LsValues, LsSweep, ::testing::Values(2, 4, 6, 8, 12));

}  // namespace
}  // namespace qcdoc::lattice
