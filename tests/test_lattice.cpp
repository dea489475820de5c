#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "lattice_fixture.h"

namespace qcdoc::lattice {
namespace {

using testing::LatticeRig;

// --- Local geometry ---------------------------------------------------------

TEST(LocalGeometry, IndexCoordRoundTrip) {
  const LocalGeometry g({4, 3, 2, 5});
  EXPECT_EQ(g.volume(), 120);
  for (int i = 0; i < g.volume(); ++i) {
    EXPECT_EQ(g.index(g.coords(i)), i);
  }
}

TEST(LocalGeometry, InteriorNeighbors) {
  const LocalGeometry g({4, 4, 4, 4});
  const int s = g.index({1, 2, 1, 2});
  const auto n = g.neighbor(s, 0, +1);
  EXPECT_TRUE(n.local);
  EXPECT_EQ(n.index, g.index({2, 2, 1, 2}));
  const auto m = g.neighbor(s, 3, -1);
  EXPECT_TRUE(m.local);
  EXPECT_EQ(m.index, g.index({1, 2, 1, 1}));
}

TEST(LocalGeometry, BoundaryNeighborsIndexHaloByLayerAndTransverse) {
  const LocalGeometry g({4, 4, 4, 4});
  const int s = g.index({3, 1, 2, 0});
  const auto n = g.neighbor(s, 0, +1);
  EXPECT_FALSE(n.local);
  // layer 0, transverse = lexicographic over (y,z,t).
  EXPECT_EQ(n.index, 0 * 64 + (1 + 4 * (2 + 4 * 0)));
  const auto b = g.neighbor(s, 3, -1);
  EXPECT_FALSE(b.local);
  EXPECT_EQ(b.index, 3 + 4 * (1 + 4 * 2));
}

TEST(LocalGeometry, Distance3NeighborsForNaik) {
  const LocalGeometry g({4, 4, 4, 4});
  const int s = g.index({2, 0, 0, 0});
  const auto n = g.neighbor(s, 0, +1, 3);
  EXPECT_FALSE(n.local);
  EXPECT_EQ(n.index / g.face_volume(0), 1);  // layer 1: 2+3-4
  const auto m = g.neighbor(s, 0, -1, 3);
  EXPECT_FALSE(m.local);
  EXPECT_EQ(m.index / g.face_volume(0), 0);  // reaches x = -1 -> layer 0
}

TEST(LocalGeometry, FaceLayerSitesMatchNeighborIndexing) {
  // The packing order must align with the halo indexing: if node A packs
  // its face sites with face_layer_sites(mu, +1, l), then B's site whose
  // (mu,+1,dist) neighbour is off-node at halo position p must correspond
  // to A's packed entry p.
  const LocalGeometry g({4, 4, 2, 2});
  for (int mu = 0; mu < 4; ++mu) {
    const auto packed = g.face_layer_sites(mu, +1, 0);
    for (int s = 0; s < g.volume(); ++s) {
      const auto n = g.neighbor(s, mu, +1);
      if (n.local) continue;
      Coord4 x = g.coords(s);
      x[static_cast<std::size_t>(mu)] = 0;
      EXPECT_EQ(packed[static_cast<std::size_t>(n.index)], g.index(x));
    }
  }
}

TEST(GeometryTables, MatchCoordinateArithmeticOnAsymmetricExtents) {
  // Local extents {3, 1, 2, 5}: extent-1 and extent-2 dims put every hop
  // along them off-node, and the 2x2x2x2 partition gives ranks of both
  // origin parities along the odd extents.  The tables must agree with the
  // coordinate arithmetic they were built to replace, kept here.
  LatticeRig rig({2, 2, 2, 2, 1, 1}, {6, 2, 4, 10});
  const GlobalGeometry& geom = *rig.geom;
  const LocalGeometry& g = geom.local();
  const Coord4 e = g.extent();
  ASSERT_EQ(e, (Coord4{3, 1, 2, 5}));
  const auto at = [](const Coord4& x, int mu) {
    return x[static_cast<std::size_t>(mu)];
  };
  const auto coords = [&](int idx) {
    Coord4 x;
    for (std::size_t m = 0; m < 4; ++m) {
      x[m] = idx % e[m];
      idx /= e[m];
    }
    return x;
  };
  const auto lex = [&](const Coord4& x) {
    return ((x[3] * e[2] + x[2]) * e[1] + x[1]) * e[0] + x[0];
  };
  const auto transverse = [&](const Coord4& x, int mu) {
    int t = 0;
    for (int nu = 3; nu >= 0; --nu) {
      if (nu != mu) t = t * at(e, nu) + at(x, nu);
    }
    return t;
  };

  for (int s = 0; s < g.volume(); ++s) {
    const Coord4 x = coords(s);
    for (int mu = 0; mu < 4; ++mu) {
      const auto m = static_cast<std::size_t>(mu);
      for (int dir : {+1, -1}) {
        for (int dist = 1; dist <= 3; ++dist) {
          const int target = x[m] + dir * dist;
          const bool local = target >= 0 && target < e[m];
          // A hop that leaves the node reaches at most one node deep.
          if (!local && dist > e[m]) continue;
          int expect = 0;
          if (local) {
            Coord4 y = x;
            y[m] = target;
            expect = lex(y);
          } else {
            const int layer = dir > 0 ? target - e[m] : -target - 1;
            expect = layer * (g.volume() / e[m]) + transverse(x, mu);
          }
          const auto n = g.neighbor(s, mu, dir, dist);
          EXPECT_EQ(n.local, local)
              << "s " << s << " mu " << mu << " dir " << dir << " dist " << dist;
          EXPECT_EQ(n.index, expect)
              << "s " << s << " mu " << mu << " dir " << dir << " dist " << dist;
        }
      }
    }
  }

  for (int mu = 0; mu < 4; ++mu) {
    const auto m = static_cast<std::size_t>(mu);
    for (int dir : {+1, -1}) {
      for (int layer = 0; layer < e[m]; ++layer) {
        const int x_mu = dir > 0 ? layer : e[m] - 1 - layer;
        std::vector<int> expect(static_cast<std::size_t>(g.volume() / e[m]));
        for (int s = 0; s < g.volume(); ++s) {
          const Coord4 x = coords(s);
          if (x[m] == x_mu) expect[static_cast<std::size_t>(transverse(x, mu))] = s;
        }
        const auto sites = g.face_layer_sites(mu, dir, layer);
        EXPECT_EQ(std::vector<int>(sites.begin(), sites.end()), expect)
            << "mu " << mu << " dir " << dir << " layer " << layer;
      }
    }
  }

  for (int r = 0; r < geom.ranks(); ++r) {
    const torus::Coord lc = geom.partition().logical_coord(r);
    for (int s = 0; s < g.volume(); ++s) {
      const Coord4 x = coords(s);
      int sum = 0;
      for (int mu = 0; mu < 4; ++mu) sum += lc.c[mu] * at(e, mu) + at(x, mu);
      EXPECT_EQ(geom.parity(r, s), sum & 1) << "rank " << r << " site " << s;
    }
  }
}

// --- Global geometry --------------------------------------------------------

TEST(GlobalGeometry, CoordinatesTileThePartition) {
  LatticeRig rig({2, 2, 2, 2, 1, 1}, {4, 4, 4, 4});
  const auto& geom = *rig.geom;
  EXPECT_EQ(geom.local().volume(), 16);  // 2^4 local
  std::set<int> global_ids;
  const auto& ge = geom.global_extent();
  for (int r = 0; r < geom.ranks(); ++r) {
    for (int s = 0; s < geom.local().volume(); ++s) {
      const Coord4 g = geom.global_coords(r, s);
      const int gid = ((g[3] * ge[2] + g[2]) * ge[1] + g[1]) * ge[0] + g[0];
      EXPECT_TRUE(global_ids.insert(gid).second) << "duplicate site";
      const auto [owner_rank, owner_idx] = geom.owner(g);
      EXPECT_EQ(owner_rank, r);
      EXPECT_EQ(owner_idx, s);
    }
  }
  EXPECT_EQ(static_cast<int>(global_ids.size()), 256);
}

TEST(GlobalGeometry, ParityAndStaggeredPhases) {
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 2, 2, 2});
  const auto& geom = *rig.geom;
  for (int r = 0; r < geom.ranks(); ++r) {
    for (int s = 0; s < geom.local().volume(); ++s) {
      EXPECT_DOUBLE_EQ(geom.staggered_phase(r, s, 0), 1.0);
      const Coord4 g = geom.global_coords(r, s);
      EXPECT_DOUBLE_EQ(geom.staggered_phase(r, s, 1),
                       (g[0] % 2) ? -1.0 : 1.0);
      EXPECT_EQ(geom.parity(r, s), (g[0] + g[1] + g[2] + g[3]) % 2);
    }
  }
}

// --- DistField + halo exchange ----------------------------------------------

TEST(HaloSet, HaloExchangeDeliversNeighborFaces) {
  LatticeRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 2, 2});
  DistField f(rig.comm.get(), rig.geom.get(), /*site=*/2, "f");
  HaloSet halos(rig.comm.get(), rig.geom.get(), /*halo=*/2, 1, 1, "f.halo");
  const auto& local = rig.geom->local();
  for (int r = 0; r < f.ranks(); ++r) {
    for (int s = 0; s < local.volume(); ++s) {
      const Coord4 g = rig.geom->global_coords(r, s);
      f.site(r, s)[0] = g[0] + 10.0 * g[1] + 100.0 * g[2] + 1000.0 * g[3];
      f.site(r, s)[1] = -f.site(r, s)[0];
    }
  }
  for (int r = 0; r < f.ranks(); ++r) {
    for (int mu = 0; mu < 2; ++mu) {  // distributed dims only
      for (int d : {+1, -1}) {
        const auto sites = local.face_layer_sites(mu, d, 0);
        auto buf = halos.send_buf(r, mu, d);
        for (std::size_t t = 0; t < sites.size(); ++t) {
          buf[2 * t] = f.site(r, sites[t])[0];
          buf[2 * t + 1] = f.site(r, sites[t])[1];
        }
      }
    }
  }
  halos.post_shift(0);
  halos.post_shift(1);
  ASSERT_TRUE(rig.m->mesh().drain());
  const auto& ge = rig.geom->global_extent();
  for (int r = 0; r < f.ranks(); ++r) {
    for (int s = 0; s < local.volume(); ++s) {
      for (int mu = 0; mu < 2; ++mu) {
        for (int d : {+1, -1}) {
          const auto n = local.neighbor(s, mu, d);
          if (n.local) continue;
          Coord4 g = rig.geom->global_coords(r, s);
          g[static_cast<std::size_t>(mu)] =
              (g[static_cast<std::size_t>(mu)] + d +
               ge[static_cast<std::size_t>(mu)]) %
              ge[static_cast<std::size_t>(mu)];
          const double expect =
              g[0] + 10.0 * g[1] + 100.0 * g[2] + 1000.0 * g[3];
          EXPECT_DOUBLE_EQ(
              halos.recv_buf(r, mu, d)[2 * static_cast<std::size_t>(n.index)],
              expect)
              << "rank " << r << " site " << s << " mu " << mu << " d " << d;
        }
      }
    }
  }
  EXPECT_TRUE(rig.m->mesh().verify_link_checksums());
}

TEST(HaloSet, NonDistributedDimUsesLocalCopy) {
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 4, 2, 2});
  HaloSet halos(rig.comm.get(), rig.geom.get(), 1, 1, 1, "f.halo");
  for (int r = 0; r < rig.geom->ranks(); ++r) {
    auto buf = halos.send_buf(r, 2, +1);
    for (std::size_t t = 0; t < buf.size(); ++t) buf[t] = 500.0 + t;
    auto buf2 = halos.send_buf(r, 2, -1);
    for (std::size_t t = 0; t < buf2.size(); ++t) buf2[t] = 700.0 + t;
  }
  halos.post_shift(2);
  ASSERT_TRUE(rig.m->mesh().drain());
  for (int r = 0; r < rig.geom->ranks(); ++r) {
    EXPECT_DOUBLE_EQ(halos.recv_buf(r, 2, +1)[0], 500.0);
    EXPECT_DOUBLE_EQ(halos.recv_buf(r, 2, -1)[0], 700.0);
  }
}

TEST(DistField, BodySpillsToDdrWhenEdramFull) {
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {8, 8, 8, 8});  // 2048 sites per node
  DistField a(rig.comm.get(), rig.geom.get(), 192, "a");
  DistField b(rig.comm.get(), rig.geom.get(), 192, "b");
  EXPECT_EQ(a.body_region(), memsys::Region::kEdram);
  EXPECT_EQ(b.body_region(), memsys::Region::kDdr);
}

// --- Gauge field ------------------------------------------------------------

TEST(GaugeField, UnitConfigurationHasPlaquetteOne) {
  LatticeRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  EXPECT_NEAR(gauge.average_plaquette(), 1.0, 1e-14);
  EXPECT_LT(gauge.max_unitarity_violation(), 1e-12);
}

TEST(GaugeField, HotConfigurationHasSmallPlaquette) {
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 2, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(77);
  gauge.randomize(rng);
  EXPECT_LT(std::abs(gauge.average_plaquette()), 0.2);
  EXPECT_LT(gauge.max_unitarity_violation(), 1e-11);
}

TEST(GaugeField, WeakFieldPlaquetteNearOne) {
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 2, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(78);
  gauge.randomize_near_unit(rng, 0.01);
  EXPECT_GT(gauge.average_plaquette(), 0.99);
}

TEST(GaugeField, HeatbathIsDeterministicAndOrdersAtStrongCoupling) {
  LatticeRig rig1({2, 1, 1, 1, 1, 1}, {4, 2, 2, 2});
  LatticeRig rig2({2, 1, 1, 1, 1, 1}, {4, 2, 2, 2});
  GaugeField g1(rig1.comm.get(), rig1.geom.get());
  GaugeField g2(rig2.comm.get(), rig2.geom.get());
  Rng r1(5), r2(5);
  g1.randomize(r1);
  g2.randomize(r2);
  for (int sweep = 0; sweep < 3; ++sweep) {
    g1.heatbath_sweep(8.0, r1);
    g2.heatbath_sweep(8.0, r2);
  }
  // Bit-identical evolution from identical seeds (paper Section 4).
  EXPECT_EQ(g1.average_plaquette(), g2.average_plaquette());
  // At beta = 8 the heatbath drives the plaquette well above disorder.
  EXPECT_GT(g1.average_plaquette(), 0.4);
  EXPECT_LT(g1.max_unitarity_violation(), 1e-11);
}

TEST(GaugeField, HeatbathAtZeroCouplingStaysDisordered) {
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 2, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(6);
  gauge.randomize(rng);
  gauge.heatbath_sweep(1e-9, rng);
  EXPECT_LT(std::abs(gauge.average_plaquette()), 0.25);
}

// --- FieldOps ---------------------------------------------------------------

TEST(FieldOps, AxpyNorm2Dot) {
  LatticeRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 2, 2});
  DistField x(rig.comm.get(), rig.geom.get(), 4, "x");
  DistField y(rig.comm.get(), rig.geom.get(), 4, "y");
  for (int r = 0; r < x.ranks(); ++r) {
    auto xs = x.data(r);
    auto ys = y.data(r);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = 1.0;
      ys[i] = 2.0;
    }
  }
  const double n = 4.0 * rig.geom->local().volume() * rig.geom->ranks();
  EXPECT_DOUBLE_EQ(rig.ops->norm2(x), n);
  EXPECT_DOUBLE_EQ(rig.ops->dot_re(x, y), 2.0 * n);
  rig.ops->axpy(3.0, x, y);  // y = 2 + 3 = 5
  EXPECT_DOUBLE_EQ(rig.ops->norm2(y), 25.0 * n);
  rig.ops->xpay(x, -0.2, y);  // y = 1 - 1 = 0
  EXPECT_NEAR(rig.ops->norm2(y), 0.0, 1e-20);
  EXPECT_GT(rig.ops->flops(), 0.0);
}

TEST(FieldOps, OperationsAdvanceMachineTime) {
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 4, 4, 4});
  DistField x(rig.comm.get(), rig.geom.get(), 24, "x");
  const Cycle t0 = rig.bsp->now();
  rig.ops->norm2(x);
  const Cycle t1 = rig.bsp->now();
  EXPECT_GT(t1, t0);
  EXPECT_GT(rig.bsp->global_cycles(), 0.0);
}

}  // namespace
}  // namespace qcdoc::lattice

namespace qcdoc::lattice {
namespace {

TEST(GaugeField, HeatbathReproducesKnownPlaquetteAtBeta5p7) {
  // The SU(3) plaquette at beta = 5.7 is a classic reference point:
  // <P> ~ 0.549 in the thermodynamic limit.  A 4^4 lattice after a few
  // dozen sweeps lands in a loose band around it -- a real physics check
  // of the whole heatbath chain.
  testing::LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 4, 4, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(57);
  gauge.randomize(rng);  // hot start
  for (int sweep = 0; sweep < 40; ++sweep) gauge.heatbath_sweep(5.7, rng);
  const double plaq = gauge.average_plaquette();
  EXPECT_GT(plaq, 0.50);
  EXPECT_LT(plaq, 0.60);
  EXPECT_LT(gauge.max_unitarity_violation(), 1e-10);
}

TEST(GaugeField, PlaquetteTracksCoupling) {
  // <P> must increase monotonically in beta (averaged over sweeps).
  testing::LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 2, 2, 2});
  double last = -1.0;
  for (double beta : {1.0, 3.0, 6.0, 12.0}) {
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    Rng rng(91);
    gauge.randomize(rng);
    for (int sweep = 0; sweep < 15; ++sweep) gauge.heatbath_sweep(beta, rng);
    const double plaq = gauge.average_plaquette();
    EXPECT_GT(plaq, last) << "beta = " << beta;
    last = plaq;
  }
}

}  // namespace
}  // namespace qcdoc::lattice

namespace qcdoc::lattice {
namespace {

TEST(GaugeField, HeatbathIsDistributionInvariant) {
  // The evolution iterates global sites in a fixed order with one RNG
  // stream, so the configuration must not depend on how the lattice is
  // spread over nodes -- bit for bit.
  auto evolve = [](std::array<int, 6> machine) {
    testing::LatticeRig rig(machine, {4, 4, 2, 2});
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    Rng rng(321);
    gauge.randomize(rng);
    gauge.heatbath_sweep(5.7, rng);
    return gauge.average_plaquette();
  };
  const double p1 = evolve({1, 1, 1, 1, 1, 1});
  const double p4 = evolve({2, 2, 1, 1, 1, 1});
  const double p16 = evolve({2, 2, 2, 2, 1, 1});
  EXPECT_EQ(p1, p4);
  EXPECT_EQ(p1, p16);
}

}  // namespace
}  // namespace qcdoc::lattice

#include "observables.h"

namespace qcdoc::lattice {
namespace {

TEST(Observables, FreeFieldLoopsAreUnity) {
  testing::LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 4, 4, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  gauge.set_unit();
  EXPECT_NEAR(wilson_loop(gauge, 1, 1), 1.0, 1e-13);
  EXPECT_NEAR(wilson_loop(gauge, 2, 3), 1.0, 1e-13);
  const Complex poly = polyakov_loop(gauge);
  EXPECT_NEAR(poly.real(), 1.0, 1e-13);
  EXPECT_NEAR(poly.imag(), 0.0, 1e-13);
}

TEST(Observables, OneByOneWilsonLoopIsThePlaquette) {
  testing::LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 4, 2, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(81);
  gauge.randomize_near_unit(rng, 0.2);
  // W(1,1) averages only the 3 spatial-temporal planes; compare against a
  // plaquette restricted the same way by checking it's in the same ballpark
  // and exactly gauge invariant below.
  const double w11 = wilson_loop(gauge, 1, 1);
  EXPECT_GT(w11, 0.5);
  EXPECT_LT(w11, 1.0);
}

TEST(Observables, GaugeInvariance) {
  // The sharpest correctness check available: transform every link with a
  // random g(x) and demand all observables unchanged to rounding.
  testing::LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 4, 2, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(82);
  gauge.randomize_near_unit(rng, 0.4);
  const double plaq = gauge.average_plaquette();
  const double w21 = wilson_loop(gauge, 2, 1);
  const double w22 = wilson_loop(gauge, 2, 2);
  const Complex poly = polyakov_loop(gauge);

  random_gauge_transform(&gauge, rng);
  EXPECT_LT(gauge.max_unitarity_violation(), 1e-11);
  EXPECT_NEAR(gauge.average_plaquette(), plaq, 1e-11);
  EXPECT_NEAR(wilson_loop(gauge, 2, 1), w21, 1e-11);
  EXPECT_NEAR(wilson_loop(gauge, 2, 2), w22, 1e-11);
  const Complex poly2 = polyakov_loop(gauge);
  EXPECT_NEAR(std::abs(poly2 - poly), 0.0, 1e-11);
}

TEST(Observables, WilsonLoopsDecayWithArea) {
  // Confinement signal: bigger loops are smaller on a disordered field.
  testing::LatticeRig rig({2, 1, 1, 1, 1, 1}, {6, 6, 4, 6});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(83);
  gauge.randomize(rng);
  for (int sweep = 0; sweep < 10; ++sweep) gauge.heatbath_sweep(5.7, rng);
  const double w11 = wilson_loop(gauge, 1, 1);
  const double w22 = wilson_loop(gauge, 2, 2);
  EXPECT_GT(w11, std::abs(w22));
  EXPECT_GT(w11, 0.0);
}

TEST(Observables, OverrelaxationPreservesThePlaquetteExactly) {
  // Microcanonical: the action is invariant, but the configuration moves.
  testing::LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 4, 2, 2});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(84);
  gauge.randomize(rng);
  for (int sweep = 0; sweep < 5; ++sweep) gauge.heatbath_sweep(3.0, rng);
  const double before = gauge.average_plaquette();
  const Su3Matrix link_before = gauge.link(0, 0, 0);
  overrelax_sweep(&gauge);
  const double after = gauge.average_plaquette();
  EXPECT_NEAR(after, before, 5e-4);  // per-link exact; sweep-level drift from
                                     // sequential staple updates is tiny
  double moved = 0;
  const Su3Matrix link_after = gauge.link(0, 0, 0);
  for (std::size_t k = 0; k < 9; ++k) {
    moved += std::abs(link_after.m[k] - link_before.m[k]);
  }
  EXPECT_GT(moved, 1e-3);  // the configuration really changed
  EXPECT_LT(gauge.max_unitarity_violation(), 1e-11);
}

TEST(Observables, MixedHeatbathOverrelaxationEquilibrates) {
  // A production-style update (1 heatbath + 2 overrelaxation per compound
  // sweep) must reach the same plaquette as pure heatbath.
  testing::LatticeRig rig({2, 1, 1, 1, 1, 1}, {4, 4, 2, 4});
  GaugeField hb(rig.comm.get(), rig.geom.get());
  GaugeField mixed(rig.comm.get(), rig.geom.get());
  Rng r1(85), r2(85);
  hb.randomize(r1);
  mixed.randomize(r2);
  for (int sweep = 0; sweep < 24; ++sweep) hb.heatbath_sweep(5.7, r1);
  for (int compound = 0; compound < 8; ++compound) {
    mixed.heatbath_sweep(5.7, r2);
    overrelax_sweep(&mixed);
    overrelax_sweep(&mixed);
  }
  EXPECT_NEAR(hb.average_plaquette(), mixed.average_plaquette(), 0.06);
}

}  // namespace
}  // namespace qcdoc::lattice
