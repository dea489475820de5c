// Multi-shift CG invariants: a >= 4-shift family converging in ONE Krylov
// sequence, the zeta-recurrence tracking true shifted residuals, the
// sigma = 0 base system bit-matching plain CG, and bit-identical results
// across engine thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "lattice/cg.h"
#include "lattice/multishift.h"
#include "lattice/wilson.h"
#include "lattice_fixture.h"

namespace qcdoc::lattice {
namespace {

using testing::LatticeRig;
using testing::fill_by_global_site;
using testing::fill_gauge_by_global_site;
using testing::gather_global;

/// True residual of the shifted normal equation:
/// |(M^+M + sigma) x - M^+ b| / |M^+ b|.
double shifted_residual(DiracOperator& op, double sigma, DistField& x,
                        DistField& b) {
  FieldOps& ops = op.ops();
  DistField tmp = op.make_field("msck.tmp");
  DistField ax = op.make_field("msck.ax");
  DistField rhs = op.make_field("msck.rhs");
  op.apply(tmp, x);
  op.apply_dag(ax, tmp);
  ops.axpy(sigma, x, ax);
  op.apply_dag(rhs, b);
  ops.axpy(-1.0, rhs, ax);  // ax = (M^+M + sigma) x - M^+ b
  return std::sqrt(ops.norm2(ax) / ops.norm2(rhs));
}

struct MsSetup {
  LatticeRig rig;
  GaugeField gauge;
  std::optional<WilsonDirac> op_;
  std::optional<DistField> b_;
  MsSetup(std::array<int, 6> extents, Coord4 global, int threads = 1)
      : rig(extents, global, threads),
        gauge(rig.comm.get(), rig.geom.get()) {
    fill_gauge_by_global_site(*rig.geom, gauge, 0x517f7);
    op_.emplace(rig.ops.get(), rig.geom.get(), &gauge,
                WilsonParams{.kappa = 0.124});
    b_.emplace(op_->make_field("b"));
    fill_by_global_site(*rig.geom, *b_);
  }
  WilsonDirac& op() { return *op_; }
  DistField& b() { return *b_; }
  std::vector<DistField> solutions(std::size_t n) {
    std::vector<DistField> x;
    x.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      x.push_back(op().make_field("x" + std::to_string(i)));
    }
    return x;
  }
};

TEST(Multishift, FourShiftsConvergeInOneSequence) {
  MsSetup s({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4});
  MultishiftParams params;
  params.shifts = {0.0, 0.05, 0.2, 0.5, 1.0};
  params.tolerance = 1e-8;
  params.max_iterations = 400;
  auto x = s.solutions(params.shifts.size());
  const MultishiftResult r = multishift_solve(s.op(), x, s.b(), params);
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(r.relative_residuals.size(), params.shifts.size());
  for (std::size_t i = 0; i < params.shifts.size(); ++i) {
    EXPECT_LT(r.relative_residuals[i], params.tolerance) << "shift " << i;
    EXPECT_LT(shifted_residual(s.op(), params.shifts[i], x[i], s.b()), 1e-6)
        << "shift " << i;
  }
  // One Krylov sequence: iterations counts shared Dirac applications, and
  // the whole family cost one base solve worth of them.
  EXPECT_LE(r.iterations, params.max_iterations);
  EXPECT_GT(r.flops, 0.0);
  EXPECT_GT(r.cycles, 0u);
}

TEST(Multishift, ZetaRecurrenceTracksTrueResiduals) {
  // Stop mid-convergence (tolerance no shift can reach in 25 iterations)
  // and compare the recurrence's claimed |r_i|/|b| against residuals
  // computed from scratch: they must agree to near machine accuracy.
  MsSetup s({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4});
  MultishiftParams params;
  params.shifts = {0.0, 0.1, 0.4, 0.9};
  params.tolerance = 1e-30;
  params.max_iterations = 25;
  auto x = s.solutions(params.shifts.size());
  const MultishiftResult r = multishift_solve(s.op(), x, s.b(), params);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 25);
  for (std::size_t i = 0; i < params.shifts.size(); ++i) {
    const double truth = shifted_residual(s.op(), params.shifts[i], x[i], s.b());
    const double claimed = r.relative_residuals[i];
    EXPECT_NEAR(claimed, truth, 1e-8 + 1e-4 * truth)
        << "shift " << i << ": recurrence drifted from the true residual";
  }
}

TEST(Multishift, SigmaZeroBitMatchesPlainCg) {
  // shifts[0] == 0 performs cg_solve's exact operator and vector sequence;
  // the base solution must match plain CG bit for bit.
  const Coord4 global{4, 4, 4, 4};
  MsSetup ms({2, 2, 1, 1, 1, 1}, global);
  MsSetup cg({2, 2, 1, 1, 1, 1}, global);

  MultishiftParams mp;
  mp.shifts = {0.0, 0.1, 0.3, 0.7};
  mp.tolerance = 1e-8;
  mp.max_iterations = 400;
  auto x = ms.solutions(mp.shifts.size());
  const MultishiftResult mr = multishift_solve(ms.op(), x, ms.b(), mp);
  EXPECT_TRUE(mr.converged);

  DistField xc = cg.op().make_field("xc");
  xc.zero();
  CgParams cp;
  cp.tolerance = 1e-8;
  cp.max_iterations = 400;
  const CgResult cr = cg_solve(cg.op(), xc, cg.b(), cp);
  EXPECT_TRUE(cr.converged);
  EXPECT_EQ(mr.iterations, cr.iterations);

  const auto a = gather_global(*ms.rig.geom, x[0]);
  const auto c = gather_global(*cg.rig.geom, xc);
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], c[i]) << "word " << i;
  }
}

TEST(Multishift, BitIdenticalAcrossEngineThreads) {
  MultishiftParams params;
  params.shifts = {0.0, 0.2, 0.8};
  params.tolerance = 1e-8;
  params.max_iterations = 400;
  std::vector<std::vector<double>> gathered;
  std::vector<Cycle> cycles;
  for (const int threads : {1, 2, 4}) {
    MsSetup s({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4}, threads);
    auto x = s.solutions(params.shifts.size());
    const MultishiftResult r = multishift_solve(s.op(), x, s.b(), params);
    EXPECT_TRUE(r.converged) << threads << " threads";
    std::vector<double> all;
    for (auto& xi : x) {
      const auto g = gather_global(*s.rig.geom, xi);
      all.insert(all.end(), g.begin(), g.end());
    }
    gathered.push_back(std::move(all));
    cycles.push_back(r.cycles);
  }
  for (std::size_t t = 1; t < gathered.size(); ++t) {
    ASSERT_EQ(gathered[t].size(), gathered[0].size());
    for (std::size_t i = 0; i < gathered[0].size(); ++i) {
      ASSERT_EQ(gathered[t][i], gathered[0][i])
          << "thread variant " << t << ", word " << i;
    }
    EXPECT_EQ(cycles[t], cycles[0]);
  }
}

}  // namespace
}  // namespace qcdoc::lattice
