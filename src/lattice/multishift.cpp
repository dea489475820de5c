#include "lattice/multishift.h"

#include <cassert>
#include <optional>

#include "common/log.h"
#include "lattice/krylov.h"

namespace qcdoc::lattice {

namespace {

/// Per-shift recurrence state (Jegerlehner zeta coefficients) plus the
/// shared step scalars -- everything a rollback must restore that cannot be
/// recomputed from the iterates.
struct ShiftScalars {
  double rsq = 0;
  double alpha_prev = 1.0;  // a_{k-1}; a_{-1} = 1 by convention
  double beta_prev = 0.0;   // b_{k-1}; b_{-1} = 0
  std::vector<double> zeta;       // zeta_k per shift
  std::vector<double> zeta_prev;  // zeta_{k-1} per shift
  std::vector<double> res2;       // |r_i|^2 = zeta_i^2 |r|^2, last update
  std::vector<char> frozen;       // shift reached tolerance; stop updating
};

MultishiftResult ms_run(DiracOperator& op, std::vector<DistField>& x,
                        DistField& b, const MultishiftParams& params,
                        const AuditParams* audit) {
  const std::size_t ns = params.shifts.size();
  assert(ns >= 1 && x.size() == ns);
  FieldOps& ops = op.ops();
  const SolveMeter meter(ops);

  const double sigma0 = params.shifts[0];

  // Working set: base vectors plus one direction per extra shift.
  DistField tmp = op.make_field("ms.tmp");
  DistField r = op.make_field("ms.r");
  DistField p = op.make_field("ms.p");
  DistField ap = op.make_field("ms.ap");
  std::vector<DistField> ps;
  ps.reserve(ns - 1);
  for (std::size_t i = 1; i < ns; ++i) {
    ps.push_back(op.make_field("ms.p" + std::to_string(i)));
  }

  // Shadow copies for the audited variant: the zeta recurrence cannot be
  // re-derived from the iterates, so a clean checkpoint snapshots the full
  // working set and a dirty audit restores it exactly.
  std::optional<std::vector<DistField>> shadow;
  if (audit) {
    std::vector<DistField> sh;
    sh.push_back(op.make_field("ms.rck"));
    sh.push_back(op.make_field("ms.pck"));
    for (std::size_t i = 1; i < ns; ++i) {
      sh.push_back(op.make_field("ms.pck" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < ns; ++i) {
      sh.push_back(op.make_field("ms.xck" + std::to_string(i)));
    }
    shadow.emplace(std::move(sh));
  }

  ShiftScalars sc;
  sc.zeta.assign(ns, 1.0);
  sc.zeta_prev.assign(ns, 1.0);
  sc.res2.assign(ns, 0.0);
  sc.frozen.assign(ns, 0);
  ShiftScalars sck;  // scalar state at the shadow checkpoint

  const auto save_shadow = [&] {
    auto& sh = *shadow;
    std::size_t k = 0;
    ops.copy(r, sh[k++]);
    ops.copy(p, sh[k++]);
    for (auto& pi : ps) ops.copy(pi, sh[k++]);
    for (auto& xi : x) ops.copy(xi, sh[k++]);
    sck = sc;
  };
  const auto restore_shadow = [&] {
    auto& sh = *shadow;
    std::size_t k = 0;
    ops.copy(sh[k++], r);
    ops.copy(sh[k++], p);
    for (auto& pi : ps) ops.copy(sh[k++], pi);
    for (auto& xi : x) ops.copy(sh[k++], xi);
    sc = sck;
  };

  // Initial residual r = M^+ b (x_i = 0); every direction starts at r.
  const auto init_residual = [&] {
    op.apply_dag(r, b);
    ops.copy(r, p);
    for (auto& pi : ps) ops.copy(r, pi);
    for (auto& xi : x) ops.zero(xi);
    sc.rsq = ops.norm2(r);
    sc.alpha_prev = 1.0;
    sc.beta_prev = 0.0;
    std::fill(sc.zeta.begin(), sc.zeta.end(), 1.0);
    std::fill(sc.zeta_prev.begin(), sc.zeta_prev.end(), 1.0);
    std::fill(sc.res2.begin(), sc.res2.end(), sc.rsq);
    std::fill(sc.frozen.begin(), sc.frozen.end(), 0);
  };
  CgCheckpoint st;  // iteration and audit counters
  std::optional<AuditPolicy> policy;
  if (audit) policy.emplace(*audit, st, save_shadow, restore_shadow);
  init_residual();
  if (policy) {
    policy->baseline(init_residual);
    save_shadow();
  }
  const double rhs_norm2 = sc.rsq;
  const double target = cg_target(params.tolerance, rhs_norm2);

  MultishiftResult result;
  const int iters = params.max_iterations;
  const int max_trips = policy ? policy->max_trips(iters) : iters;
  std::vector<double> zeta_next(ns, 1.0);
  // The base system runs cg_solve's iteration on M^+ M + sigma_0; with
  // sigma_0 == 0 its operator and vector sequence is exactly cg_solve's,
  // so x[0] bit-matches plain CG.
  CgIteration cg{ops, NormalOp{op, tmp, sigma0}, x[0], r, p, ap, sc.rsq};
  for (int trip = 0; trip < max_trips && st.iterations < iters; ++trip) {
    double alpha = 0;
    double rsq_new = 0;
    const bool stepped = cg.descend(&rsq_new, [&](double a) {
      alpha = a;
      // zeta_{k+1} per shift (scalar recurrence; shifts relative to
      // sigma_0), then x_i += alpha_i p_i.
      for (std::size_t i = 1; i < ns; ++i) {
        if (sc.frozen[i]) continue;
        const double s = params.shifts[i] - sigma0;
        const double num = sc.zeta[i] * sc.zeta_prev[i] * sc.alpha_prev;
        const double den =
            alpha * sc.beta_prev * (sc.zeta_prev[i] - sc.zeta[i]) +
            sc.zeta_prev[i] * sc.alpha_prev * (1.0 + s * alpha);
        zeta_next[i] = den != 0.0 ? num / den : 0.0;
      }
      for (std::size_t i = 1; i < ns; ++i) {
        if (sc.frozen[i]) continue;
        const double alpha_s = alpha * zeta_next[i] / sc.zeta[i];
        ops.axpy(alpha_s, ps[i - 1], x[i]);
      }
    });
    if (!stepped) break;

    // Direction updates: each live shift p_i = zeta_{k+1} r + beta_i p_i,
    // freezing shifts whose implied residual zeta^2 |r|^2 has crossed the
    // target, then the base p.
    cg.turn(rsq_new, [&](double beta) {
      sc.res2[0] = rsq_new;
      for (std::size_t i = 1; i < ns; ++i) {
        if (sc.frozen[i]) continue;
        const double ratio = zeta_next[i] / sc.zeta[i];
        const double beta_s = beta * ratio * ratio;
        ops.axpby(zeta_next[i], r, beta_s, ps[i - 1]);
        sc.res2[i] = zeta_next[i] * zeta_next[i] * rsq_new;
        sc.zeta_prev[i] = sc.zeta[i];
        sc.zeta[i] = zeta_next[i];
        if (sc.res2[i] < target) sc.frozen[i] = 1;
      }
      sc.alpha_prev = alpha;
      sc.beta_prev = beta;
    });
    ++st.iterations;

    bool all_done = rsq_new < target;
    for (std::size_t i = 1; i < ns && all_done; ++i) {
      all_done = sc.frozen[i] != 0;
    }
    // Corruption in an interval makes every iterate and every zeta since
    // the shadow copy suspect; the policy restores the full working set.
    if (policy && policy->due(all_done, st.iterations == iters) &&
        !policy->passes()) {
      if (policy->gave_up()) break;
      continue;
    }
    if (all_done) {
      result.converged = true;
      break;
    }
  }
  report_counters(st, result);

  result.relative_residuals.resize(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    result.relative_residuals[i] = relative_norm(sc.res2[i], rhs_norm2);
  }
  meter.finish(result);
  QCDOC_INFO << "multishift[" << op.name() << "]: " << params.shifts.size()
             << " shifts, " << result.iterations << " iterations, |r0|/|b| = "
             << result.relative_residuals[0]
             << (audit ? (", " + std::to_string(result.restarts) + " restarts")
                       : std::string());
  return result;
}

}  // namespace

MultishiftResult multishift_solve(DiracOperator& op, std::vector<DistField>& x,
                                  DistField& b,
                                  const MultishiftParams& params) {
  return ms_run(op, x, b, params, nullptr);
}

MultishiftResult multishift_solve_audited(DiracOperator& op,
                                          std::vector<DistField>& x,
                                          DistField& b,
                                          const MultishiftParams& params,
                                          const AuditParams& audit) {
  return ms_run(op, x, b, params, &audit);
}

}  // namespace qcdoc::lattice
