#include "lattice/multishift.h"

#include <cassert>

#include "common/log.h"
#include "lattice/krylov.h"

namespace qcdoc::lattice {

MultishiftResult multishift_solve(DiracOperator& op, std::vector<DistField>& x,
                                  DistField& b,
                                  const MultishiftParams& params) {
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

  // Initial residual r = M^+ b (x_i = 0); every direction starts at r.
  op.apply_dag(r, b);
  ops.copy(r, p);
  for (auto& pi : ps) ops.copy(r, pi);
  for (auto& xi : x) ops.zero(xi);
  double rsq = ops.norm2(r);
  const double rhs_norm2 = rsq;
  const double target = cg_target(params.tolerance, rhs_norm2);

  // Per-shift recurrence state (Jegerlehner zeta coefficients) plus the
  // shared step scalars.
  double alpha_prev = 1.0;  // a_{k-1}; a_{-1} = 1 by convention
  double beta_prev = 0.0;   // b_{k-1}; b_{-1} = 0
  std::vector<double> zeta(ns, 1.0);       // zeta_k per shift
  std::vector<double> zeta_prev(ns, 1.0);  // zeta_{k-1} per shift
  std::vector<double> zeta_next(ns, 1.0);
  std::vector<double> res2(ns, rsq);  // |r_i|^2 = zeta_i^2 |r|^2
  std::vector<char> frozen(ns, 0);    // shift reached tolerance

  MultishiftResult result;
  // The base system runs cg_solve's iteration on M^+ M + sigma_0; with
  // sigma_0 == 0 its operator and vector sequence is exactly cg_solve's,
  // so x[0] bit-matches plain CG.
  CgIteration cg{ops, NormalOp{op, tmp, sigma0}, x[0], r, p, ap, rsq};
  while (result.iterations < params.max_iterations) {
    double alpha = 0;
    double rsq_new = 0;
    const bool stepped = cg.descend(&rsq_new, [&](double a) {
      alpha = a;
      // zeta_{k+1} per shift (scalar recurrence; shifts relative to
      // sigma_0), then x_i += alpha_i p_i.
      for (std::size_t i = 1; i < ns; ++i) {
        if (frozen[i]) continue;
        const double s = params.shifts[i] - sigma0;
        const double num = zeta[i] * zeta_prev[i] * alpha_prev;
        const double den = alpha * beta_prev * (zeta_prev[i] - zeta[i]) +
                           zeta_prev[i] * alpha_prev * (1.0 + s * alpha);
        zeta_next[i] = den != 0.0 ? num / den : 0.0;
      }
      for (std::size_t i = 1; i < ns; ++i) {
        if (frozen[i]) continue;
        const double alpha_s = alpha * zeta_next[i] / zeta[i];
        ops.axpy(alpha_s, ps[i - 1], x[i]);
      }
    });
    if (!stepped) break;

    // Direction updates: each live shift p_i = zeta_{k+1} r + beta_i p_i,
    // freezing shifts whose implied residual zeta^2 |r|^2 has crossed the
    // target, then the base p.
    cg.turn(rsq_new, [&](double beta) {
      res2[0] = rsq_new;
      for (std::size_t i = 1; i < ns; ++i) {
        if (frozen[i]) continue;
        const double ratio = zeta_next[i] / zeta[i];
        const double beta_s = beta * ratio * ratio;
        ops.axpby(zeta_next[i], r, beta_s, ps[i - 1]);
        res2[i] = zeta_next[i] * zeta_next[i] * rsq_new;
        zeta_prev[i] = zeta[i];
        zeta[i] = zeta_next[i];
        if (res2[i] < target) frozen[i] = 1;
      }
      alpha_prev = alpha;
      beta_prev = beta;
    });
    ++result.iterations;

    bool all_done = rsq_new < target;
    for (std::size_t i = 1; i < ns && all_done; ++i) {
      all_done = frozen[i] != 0;
    }
    if (all_done) {
      result.converged = true;
      break;
    }
  }

  result.relative_residuals.resize(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    result.relative_residuals[i] = relative_norm(res2[i], rhs_norm2);
  }
  meter.finish(result);
  QCDOC_INFO << "multishift[" << op.name() << "]: " << params.shifts.size()
             << " shifts, " << result.iterations << " iterations, |r0|/|b| = "
             << result.relative_residuals[0];
  return result;
}

}  // namespace qcdoc::lattice
