// Bit-exact pins for every Krylov entry point on the small fixture (a
// 2x2 machine, 4^4 lattice): the relative-residual bits, an FNV of every
// bit of the solution, the iteration/restart/reliable-update/audit counters,
// the simulated cycles and the flop count of each solve.  The tolerance
// tests elsewhere cannot see a reordered vector update or a moved audit;
// these can.  Every audit field is set explicitly, so a changed default
// cannot move a pin.
//
// A pin moves only with an intended change to a solver's arithmetic or
// accounting.  On a mismatch the failure message prints the observed value
// in initializer form.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <ostream>
#include <vector>

#include "lattice/bicgstab.h"
#include "lattice/cg.h"
#include "lattice/eo_cg.h"
#include "lattice/mixed.h"
#include "lattice/multishift.h"
#include "lattice/staggered.h"
#include "lattice/wilson.h"
#include "lattice_fixture.h"

namespace qcdoc::lattice {
namespace {

using testing::LatticeRig;
using testing::field_fnv;
using testing::fill_by_global_site;
using testing::fill_gauge_by_global_site;

struct Pin {
  u64 residual_bits = 0;
  u64 x_fnv = 0;
  int iterations = 0;
  int restarts = 0;
  int reliable_updates = 0;
  u64 audits = 0;
  Cycle cycles = 0;
  u64 flops_bits = 0;

  friend bool operator==(const Pin&, const Pin&) = default;
};

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << std::hex << "{0x" << p.residual_bits << "ull, 0x" << p.x_fnv
            << "ull, " << std::dec << p.iterations << ", " << p.restarts
            << ", " << p.reliable_updates << ", " << p.audits << ", "
            << p.cycles << ", 0x" << std::hex << p.flops_bits << "ull}"
            << std::dec;
}

Pin pin_of(const CgResult& r, const DistField& x) {
  return Pin{std::bit_cast<u64>(r.relative_residual),
             field_fnv(x),
             r.iterations,
             r.restarts,
             r.reliable_updates,
             r.audits,
             r.cycles,
             std::bit_cast<u64>(r.flops)};
}

/// Multishift folds every shift's residual bits and every solution field
/// into one FNV each; it keeps no restart or audit counter.
Pin pin_of(const MultishiftResult& r, const std::vector<DistField>& x) {
  u64 res = sim::detail::kFnvOffset;
  for (const double v : r.relative_residuals) {
    res = sim::detail::fnv1a(res, std::bit_cast<u64>(v));
  }
  u64 fx = sim::detail::kFnvOffset;
  for (const DistField& f : x) fx = sim::detail::fnv1a(fx, field_fnv(f));
  return Pin{res, fx, r.iterations, 0, 0, 0, r.cycles,
             std::bit_cast<u64>(r.flops)};
}

/// The small Wilson fixture plus a half- or single-precision twin for the
/// mixed solvers; every entry point builds a fresh one so each solve's
/// simulated cycles start from the same machine state.
struct Fixture {
  LatticeRig rig{{2, 2, 1, 1, 1, 1}, {4, 4, 4, 4}};
  GaugeField gauge{rig.comm.get(), rig.geom.get()};
  std::optional<WilsonDirac> op_;
  std::optional<WilsonDirac> sloppy_;
  std::optional<DistField> b_;
  std::optional<DistField> x_;

  explicit Fixture(Precision sloppy = Precision::kSingle) {
    fill_gauge_by_global_site(*rig.geom, gauge, 0x901de);
    op_.emplace(rig.ops.get(), rig.geom.get(), &gauge,
                WilsonParams{.kappa = 0.124});
    sloppy_.emplace(rig.ops.get(), rig.geom.get(), &gauge,
                    WilsonParams{.kappa = 0.124, .precision = sloppy});
    b_.emplace(op_->make_field("b"));
    fill_by_global_site(*rig.geom, *b_);
    x_.emplace(op_->make_field("x"));
    x_->zero();
  }
  WilsonDirac& op() { return *op_; }
  WilsonDirac& sloppy() { return *sloppy_; }
  DistField& b() { return *b_; }
  DistField& x() { return *x_; }
  std::vector<DistField> solutions(std::size_t n) {
    std::vector<DistField> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(op().make_field("x" + std::to_string(i)));
      xs.back().zero();
    }
    return xs;
  }
};

CgParams cg_params() {
  CgParams p;
  p.tolerance = 1e-8;
  p.max_iterations = 400;
  p.fixed_iterations = 0;
  return p;
}

MultishiftParams ms_params() {
  MultishiftParams p;
  p.shifts = {0.0, 0.1, 0.5};
  p.tolerance = 1e-8;
  p.max_iterations = 400;
  return p;
}

MixedCgParams mixed_params(Precision sloppy) {
  MixedCgParams p;
  p.tolerance = 1e-8;
  p.max_outer = 100;
  p.max_inner = 100;
  p.delta = 0.1;
  p.sloppy = sloppy;
  return p;
}

/// A `clean` detector that reports corruption on its `dirty_call`-th poll
/// (1-based; the baseline audit is poll 1) and never otherwise.
std::function<bool()> dirty_on(int dirty_call) {
  return [n = 0, dirty_call]() mutable { return ++n != dirty_call; };
}

CgAuditParams cg_audit(std::function<bool()> clean) {
  CgAuditParams a;
  a.clean = std::move(clean);
  a.mem_clean = nullptr;
  a.interval = 5;
  a.max_restarts = 8;
  a.on_checkpoint = nullptr;
  a.workspace = nullptr;
  a.resume = nullptr;
  return a;
}

ResumableAuditParams<MixedCgWorkspace> mixed_audit(
    std::function<bool()> clean) {
  ResumableAuditParams<MixedCgWorkspace> a;
  a.clean = std::move(clean);
  a.mem_clean = nullptr;
  a.interval = 1;
  a.max_restarts = 8;
  a.on_checkpoint = nullptr;
  a.workspace = nullptr;
  a.resume = nullptr;
  return a;
}

TEST(SolverGolden, CgSolve) {
  Fixture f;
  const CgResult r = cg_solve(f.op(), f.x(), f.b(), cg_params());
  EXPECT_EQ(pin_of(r, f.x()), (Pin{0x3e3c56cbd328a35aull, 0x9ba499c5168c6ff8ull, 38, 0, 0, 0, 11199023, 0x417ec36000000000ull}));
}

TEST(SolverGolden, CgSolveAuditedClean) {
  Fixture f;
  const CgResult r = cg_solve_audited(f.op(), f.x(), f.b(), cg_params(),
                                      cg_audit([] { return true; }));
  EXPECT_EQ(pin_of(r, f.x()), (Pin{0x3e3c56cbd328a35aull, 0x9ba499c5168c6ff8ull, 38, 0, 0, 9, 11226959, 0x417ec36000000000ull}));
}

TEST(SolverGolden, CgSolveAuditedOneDirtyInterval) {
  Fixture f;
  const CgResult r = cg_solve_audited(f.op(), f.x(), f.b(), cg_params(),
                                      cg_audit(dirty_on(3)));
  EXPECT_EQ(pin_of(r, f.x()), (Pin{0x3e3decdc75ded737ull, 0xda5c95474d7e8544ull, 38, 1, 0, 11, 13052895, 0x4181e7a000000000ull}));
}

TEST(SolverGolden, AsqtadEoSolve) {
  // The Naik term needs local extents >= 3, so ASQTAD gets a 2-node
  // machine with 4^4 sites per node.
  LatticeRig rig({2, 1, 1, 1, 1, 1}, {8, 4, 4, 4});
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  fill_gauge_by_global_site(*rig.geom, gauge, 0x901de);
  AsqtadDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                 AsqtadParams{.mass = 0.5});
  DistField x = op.make_field("x");
  DistField b = op.make_field("b");
  x.zero();
  fill_by_global_site(*rig.geom, b);
  const CgResult r = asqtad_eo_solve(op, x, b, cg_params());
  EXPECT_EQ(pin_of(r, x), (Pin{0x3e5bb1711eb2e6c9ull, 0xbb6764d0c105cae8ull, 55, 0, 0, 0, 37717202, 0x41877b4000000000ull}));
}

TEST(SolverGolden, WilsonEoSolve) {
  Fixture f;
  const CgResult r = wilson_eo_solve(f.op(), f.x(), f.b(), cg_params());
  EXPECT_EQ(pin_of(r, f.x()), (Pin{0x3e41313ea644891cull, 0xebd5a9ee3bcf0f70ull, 18, 0, 0, 0, 7077239, 0x4171322000000000ull}));
}

TEST(SolverGolden, BicgstabSolve) {
  Fixture f;
  const CgResult r = bicgstab_solve(f.op(), f.x(), f.b(), cg_params());
  EXPECT_EQ(pin_of(r, f.x()), (Pin{0x3e38ef9b96838e4dull, 0x1ef05fc6cd3dd392ull, 14, 0, 0, 0, 4602116, 0x4167d60000000000ull}));
}

TEST(SolverGolden, MultishiftSolve) {
  Fixture f;
  const MultishiftParams p = ms_params();
  auto x = f.solutions(p.shifts.size());
  const MultishiftResult r = multishift_solve(f.op(), x, f.b(), p);
  EXPECT_EQ(pin_of(r, x), (Pin{0x3f3e5ccb90a88987ull, 0x4a8411a6b45079aull, 38, 0, 0, 0, 11409539, 0x417e5d6000000000ull}));
}

TEST(SolverGolden, MixedCgSolveSingle) {
  Fixture f(Precision::kSingle);
  const CgResult r = mixed_cg_solve(f.op(), f.sloppy(), f.x(), f.b(),
                                    mixed_params(Precision::kSingle));
  EXPECT_EQ(pin_of(r, f.x()), (Pin{0x3e1213b1506790caull, 0xd357091734a5c97ull, 44, 0, 8, 0, 13145949, 0x4184d09000000000ull}));
}

TEST(SolverGolden, MixedCgSolveHalf) {
  Fixture f(Precision::kHalf);
  const CgResult r = mixed_cg_solve(f.op(), f.sloppy(), f.x(), f.b(),
                                    mixed_params(Precision::kHalf));
  EXPECT_EQ(pin_of(r, f.x()), (Pin{0x3e12135acd527ee3ull, 0xf96748fef7f09021ull, 44, 0, 8, 0, 12627353, 0x4184d09000000000ull}));
}

TEST(SolverGolden, MixedCgSolveAuditedOneDirtyInterval) {
  Fixture f(Precision::kHalf);
  const CgResult r = mixed_cg_solve_audited(
      f.op(), f.sloppy(), f.x(), f.b(), mixed_params(Precision::kHalf),
      mixed_audit(dirty_on(2)));
  EXPECT_EQ(pin_of(r, f.x()), (Pin{0x3e12135acd527ee3ull, 0xf96748fef7f09021ull, 44, 1, 8, 11, 14120827, 0x4187253000000000ull}));
}

// --- the give-up path ---------------------------------------------------------
//
// A detector that never comes back clean: the baseline audit spends every
// restart, the first interval audit finds no restart left, and the solver
// must stop unconverged rather than loop.

constexpr int kMaxRestarts = 8;

TEST(SolverGolden, CgGivesUpOnAlwaysDirtyDetector) {
  Fixture f;
  const CgResult r = cg_solve_audited(f.op(), f.x(), f.b(), cg_params(),
                                      cg_audit([] { return false; }));
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.restarts, kMaxRestarts);
  EXPECT_EQ(r.audits, u64{kMaxRestarts + 2});
  EXPECT_EQ(r.audit_failures, u64{kMaxRestarts + 2});
}

TEST(SolverGolden, MixedCgGivesUpOnAlwaysDirtyDetector) {
  Fixture f(Precision::kHalf);
  const CgResult r = mixed_cg_solve_audited(
      f.op(), f.sloppy(), f.x(), f.b(), mixed_params(Precision::kHalf),
      mixed_audit([] { return false; }));
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.restarts, kMaxRestarts);
  EXPECT_EQ(r.audits, u64{kMaxRestarts + 2});
  EXPECT_EQ(r.audit_failures, u64{kMaxRestarts + 2});
}

}  // namespace
}  // namespace qcdoc::lattice
