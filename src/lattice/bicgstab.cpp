#include "lattice/bicgstab.h"

#include <cmath>

#include "common/log.h"
#include "lattice/krylov.h"

namespace qcdoc::lattice {

CgResult bicgstab_solve(DiracOperator& op, DistField& x, DistField& b,
                        const CgParams& params) {
  DistField r = op.make_field("bicg.r");
  DistField rhat = op.make_field("bicg.rhat");
  DistField p = op.make_field("bicg.p");
  DistField v = op.make_field("bicg.v");
  DistField s = op.make_field("bicg.s");
  DistField t = op.make_field("bicg.t");
  FieldOps& ops = op.ops();
  const SolveMeter meter(ops);

  // r = b - M x (x = 0 start), rhat = r.
  op.apply(r, x);
  ops.scale_copy(-1.0, r, r);
  ops.axpy(1.0, b, r);
  ops.copy(r, rhat);
  p.zero();
  v.zero();

  const double b_norm2 = ops.norm2(b);
  const double target =
      params.tolerance * params.tolerance * (b_norm2 > 0 ? b_norm2 : 1.0);

  Complex rho(1.0, 0.0), alpha(1.0, 0.0), omega(1.0, 0.0);

  CgResult result;
  const int iters = params.fixed_iterations > 0 ? params.fixed_iterations
                                                : params.max_iterations;
  for (int it = 0; it < iters; ++it) {
    const Complex rho_new = ops.cdot(rhat, r);
    if (std::abs(rho_new) == 0.0) break;
    const Complex beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    // p = r + beta (p - omega v)
    ops.caxpy(-omega, v, p);
    ops.cxpay(r, beta, p);

    op.apply(v, p);
    const Complex rhat_v = ops.cdot(rhat, v);
    if (std::abs(rhat_v) == 0.0) break;
    alpha = rho / rhat_v;

    // s = r - alpha v
    ops.copy(r, s);
    ops.caxpy(-alpha, v, s);

    op.apply(t, s);
    const Complex t_s = ops.cdot(t, s);
    const double t_t = ops.norm2(t);
    if (t_t == 0.0) break;
    omega = t_s / t_t;

    // x += alpha p + omega s;  r = s - omega t
    ops.caxpy(alpha, p, x);
    ops.caxpy(omega, s, x);
    ops.copy(s, r);
    ops.caxpy(-omega, t, r);

    const double rsq = ops.norm2(r);
    result.iterations = it + 1;
    if (params.fixed_iterations == 0 && rsq < target) {
      result.converged = true;
      break;
    }
  }

  const double final_r = ops.norm2(r);
  result.relative_residual = relative_norm(final_r, b_norm2);
  if (params.fixed_iterations > 0) {
    result.converged = result.relative_residual <= params.tolerance;
  }

  meter.finish(result);
  QCDOC_INFO << "bicgstab[" << op.name() << "]: " << result.iterations
             << " iterations, |r|/|b| = " << result.relative_residual;
  return result;
}

}  // namespace qcdoc::lattice
