#include "lattice/eo_cg.h"

#include <cmath>
#include <string>

#include "common/log.h"
#include "comms/global_sum.h"
#include "lattice/krylov.h"

namespace qcdoc::lattice {
namespace {

/// Parity-restricted streaming linear algebra.  Functional loops touch only
/// sites of `parity`; machine time is accounted as half-volume streams.
class ParityOps {
 public:
  ParityOps(FieldOps* ops, const GlobalGeometry* geom, int parity)
      : ops_(ops), geom_(geom), parity_(parity) {}

  void copy(const DistField& a, DistField& b) const {
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      double* pb = b.site(r, s);
      for (int k = 0; k < a.site_doubles(); ++k) pb[k] = pa[k];
    });
    account(a, 1, true, 0, 0);
  }

  void axpy(double alpha, const DistField& a, DistField& b) const {
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      double* pb = b.site(r, s);
      for (int k = 0; k < a.site_doubles(); ++k) pb[k] += alpha * pa[k];
    });
    account(a, 2, true, 2, 0);
  }

  void xpay(const DistField& a, double alpha, DistField& b) const {
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      double* pb = b.site(r, s);
      for (int k = 0; k < a.site_doubles(); ++k) {
        pb[k] = pa[k] + alpha * pb[k];
      }
    });
    account(a, 2, true, 2, 0);
  }

  /// b = alpha * a + beta * b.
  void lincomb(double alpha, const DistField& a, double beta,
               DistField& b) const {
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      double* pb = b.site(r, s);
      for (int k = 0; k < a.site_doubles(); ++k) {
        pb[k] = alpha * pa[k] + beta * pb[k];
      }
    });
    account(a, 2, true, 3, 0);
  }

  /// gamma_5 on this parity's sites (spin components 2,3 negate).
  void gamma5(DistField& f) const {
    for_sites(f, [&](int r, int s) {
      double* p = f.site(r, s);
      for (int k = 12; k < 24; ++k) p[k] = -p[k];
    });
  }

  /// b = m2 * a - b  (the Schur-complement assembly).
  void m2_minus(double m2, const DistField& a, DistField& b) const {
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      double* pb = b.site(r, s);
      for (int k = 0; k < a.site_doubles(); ++k) {
        pb[k] = m2 * pa[k] - pb[k];
      }
    });
    account(a, 2, true, 2, 0);
  }

  double norm2(const DistField& a) const {
    std::vector<double> partials(static_cast<std::size_t>(a.ranks()), 0.0);
    for_sites(a, [&](int r, int s) {
      const double* p = a.site(r, s);
      double acc = 0;
      for (int k = 0; k < a.site_doubles(); ++k) acc += p[k] * p[k];
      partials[static_cast<std::size_t>(r)] += acc;
    });
    account(a, 1, false, 2, 0);
    return global_sum(partials);
  }

  double dot_re(const DistField& a, const DistField& b) const {
    std::vector<double> partials(static_cast<std::size_t>(a.ranks()), 0.0);
    for_sites(a, [&](int r, int s) {
      const double* pa = a.site(r, s);
      const double* pb = b.site(r, s);
      double acc = 0;
      for (int k = 0; k < a.site_doubles(); ++k) acc += pa[k] * pb[k];
      partials[static_cast<std::size_t>(r)] += acc;
    });
    account(a, 2, false, 2, 0);
    return global_sum(partials);
  }

 private:
  template <typename Fn>
  void for_sites(const DistField& f, Fn&& fn) const {
    for (int r = 0; r < f.ranks(); ++r) {
      for (int s = 0; s < geom_->local().volume(); ++s) {
        if (geom_->parity(r, s) == parity_) fn(r, s);
      }
    }
  }

  void account(const DistField& ref, int reads, bool writes,
               double fmadd_per_double, double other_per_double) const {
    const double n = 0.5 * geom_->local().volume() * ref.site_doubles();
    cpu::KernelProfile p;
    p.name = "eo.blas";
    p.fmadd_flops = fmadd_per_double * n;
    p.other_flops = other_per_double * n;
    p.load_bytes = 8.0 * n * reads;
    p.store_bytes = writes ? 8.0 * n : 0.0;
    const double traffic = p.load_bytes + p.store_bytes;
    if (ref.body_region() == memsys::Region::kEdram) {
      p.edram_bytes = traffic;
    } else {
      p.ddr_bytes = traffic;
    }
    p.streams = reads + (writes ? 1 : 0);
    p.overhead_cycles = 32;
    ops_->account_kernel(p, 1, Precision::kDouble);
    ops_->bsp().compute(ops_->cpu().kernel_cycles(p));
  }

  double global_sum(std::vector<double>& partials) const {
    const auto result = ops_->comm().global_sum(partials);
    ops_->bsp().global_op(result.cycles);
    return result.value;
  }

  FieldOps* ops_;
  const GlobalGeometry* geom_;
  int parity_;
};

/// ASQTAD's Schur operator on even sites, A p = m^2 p_e - (D_eo D_oe p)_e:
/// two half-volume Dslash applications.
struct AsqtadSchurOp {
  AsqtadDirac& op;
  const ParityOps& even;
  DistField& tmp;
  double m2;

  void operator()(DistField& out, DistField& in) const {
    op.dslash_parity(tmp, in, /*parity=*/1);   // tmp_o = (D in)_o
    op.dslash_parity(out, tmp, /*parity=*/0);  // out_e = (D tmp)_e
    even.m2_minus(m2, in, out);                // out_e = m^2 in_e - out_e
  }
};

/// Wilson's Schur complement Mhat = 1 - kappa^2 D_eo D_oe on even sites,
/// and the normal operator Mhat^+ Mhat the even-odd CG runs on.
struct WilsonSchurOp {
  WilsonDirac& op;
  const ParityOps& even;
  DistField& tmp;
  DistField& mp;
  double k2;

  /// Mhat v (v pure-even): out_e = v_e - kappa^2 (D (D v)_odd)_e.
  void mhat(DistField& out, DistField& v) const {
    op.dslash_parity(tmp, v, /*parity=*/1);   // tmp_o = (D v)_o
    op.dslash_parity(out, tmp, /*parity=*/0); // out_e = (D tmp)_e
    even.lincomb(1.0, v, -k2, out);           // out_e = v_e - k^2 out_e
  }
  /// Mhat^+ = g5 Mhat g5 on the even sublattice.
  void mhat_dag(DistField& out, DistField& v) const {
    even.gamma5(v);
    mhat(out, v);
    even.gamma5(v);
    even.gamma5(out);
  }
  void operator()(DistField& out, DistField& in) const {
    mhat(mp, in);
    mhat_dag(out, mp);
  }
};

/// The core on the even sublattice: r holds the even right-hand side and
/// p = r (zero on odd sites, so Dslash sees pure-even fields).
template <typename Op>
CgResult even_cg(CgIteration<ParityOps, Op>& cg, const CgParams& params) {
  cg.rsq = cg.v.norm2(cg.r);
  CgResult result;
  result.converged = cg_loop(cg, result.iterations, params,
                             cg_target(params.tolerance, cg.rsq));
  return result;
}

/// Odd-site reconstruction x_o = odd_site(b_o, (D x)_o), then the
/// full-system residual |b - M x| / |b| in `result`.
template <typename Dirac, typename OddSite>
void reconstruct_odd(Dirac& op, DistField& x, DistField& b, DistField& tmp,
                     OddSite odd_site, const std::string& mx_label,
                     const CgParams& params, CgResult& result) {
  FieldOps& ops = op.ops();
  const auto& geom = op.geometry();
  op.dslash_parity(tmp, x, /*parity=*/1);  // tmp_o = (D x)_o
  for (int rk = 0; rk < x.ranks(); ++rk) {
    for (int s = 0; s < geom.local().volume(); ++s) {
      if (geom.parity(rk, s) != 1) continue;
      const double* pb = b.site(rk, s);
      const double* pt = tmp.site(rk, s);
      double* px = x.site(rk, s);
      for (int k = 0; k < x.site_doubles(); ++k) {
        px[k] = odd_site(pb[k], pt[k]);
      }
    }
  }
  // Account the reconstruction pass's stream cost.
  ParityOps(&ops, &geom, /*parity=*/1).axpy(0.0, b, x);

  DistField mx = op.make_field(mx_label);
  op.apply(mx, x);
  ops.axpy(-1.0, b, mx);
  const double full_r = ops.norm2(mx);
  const double full_b = ops.norm2(b);
  result.relative_residual = full_b > 0 ? std::sqrt(full_r / full_b) : 0.0;
  if (params.fixed_iterations > 0) {
    result.converged = result.relative_residual <= params.tolerance;
  }
}

}  // namespace

CgResult asqtad_eo_solve(AsqtadDirac& op, DistField& x, DistField& b,
                         const CgParams& params) {
  FieldOps& ops = op.ops();
  const SolveMeter meter(ops);
  const double m = op.params().mass;
  ParityOps even(&ops, &op.geometry(), /*parity=*/0);

  DistField tmp = op.make_field("eo.tmp");
  DistField r = op.make_field("eo.r");
  DistField p = op.make_field("eo.p");
  DistField ap = op.make_field("eo.ap");

  // rhs_e = m b_e - (D b)_e, materialized into r (x = 0 start).
  tmp.zero();
  r.zero();
  op.dslash_parity(r, b, /*parity=*/0);  // r_e = (D b)_e
  even.m2_minus(m, b, r);                // r_e = m b_e - (D b)_e
  p.zero();
  even.copy(r, p);

  double rsq = 0;
  CgIteration cg{even, AsqtadSchurOp{op, even, tmp, m * m}, x, r, p, ap, rsq};
  CgResult result = even_cg(cg, params);
  // x_o = (b_o - (D x)_o) / m.
  reconstruct_odd(
      op, x, b, tmp, [m](double bk, double tk) { return (bk - tk) / m; },
      "eo.mx", params, result);
  meter.finish(result);
  QCDOC_INFO << "eo-cg[asqtad]: " << result.iterations
             << " iterations, |r|/|b| = " << result.relative_residual;
  return result;
}

CgResult wilson_eo_solve(WilsonDirac& op, DistField& x, DistField& b,
                         const CgParams& params) {
  FieldOps& ops = op.ops();
  const SolveMeter meter(ops);
  const double kappa = op.params().kappa;
  ParityOps even(&ops, &op.geometry(), /*parity=*/0);

  DistField tmp = op.make_field("weo.tmp");
  DistField t2 = op.make_field("weo.t2");
  DistField r = op.make_field("weo.r");
  DistField p = op.make_field("weo.p");
  DistField ap = op.make_field("weo.ap");
  DistField mp = op.make_field("weo.mp");
  const WilsonSchurOp a{op, even, tmp, mp, kappa * kappa};

  // rhs_e = b_e + kappa (D b)_e, built into t2 (pure even).
  tmp.zero();
  t2.zero();
  op.dslash_parity(t2, b, /*parity=*/0);  // t2_e = (D b)_e
  even.lincomb(1.0, b, kappa, t2);        // t2_e = b_e + kappa t2_e
  // Normal equations on the even sublattice: r = Mhat^+ rhs (x = 0).
  r.zero();
  a.mhat_dag(r, t2);
  p.zero();
  even.copy(r, p);

  double rsq = 0;
  CgIteration cg{even, a, x, r, p, ap, rsq};
  CgResult result = even_cg(cg, params);
  // x_o = b_o + kappa (D x)_o.
  reconstruct_odd(
      op, x, b, tmp,
      [kappa](double bk, double tk) { return bk + kappa * tk; }, "weo.mx",
      params, result);
  meter.finish(result);
  QCDOC_INFO << "eo-cg[wilson]: " << result.iterations
             << " iterations, |r|/|b| = " << result.relative_residual;
  return result;
}

}  // namespace qcdoc::lattice
