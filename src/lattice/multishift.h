// Multi-shift conjugate gradient on the normal equations.
//
// Rational-approximation algorithms (RHMC, overlap/DWF 4-D effective
// operators) need x_i = (M^+M + sigma_i)^{-1} b for a whole family of
// shifts.  The shifted systems share the Krylov space of the smallest
// shift, so ONE sequence of Dirac applications serves every sigma -- the
// per-shift cost is three extra vector updates, all bandwidth the EDRAM
// can stream.  Coefficients follow the zeta recurrence of Jegerlehner
// (hep-lat/9612014): the shifted residual is r_k^sigma = zeta_k^sigma r_k,
// so every shifted system's convergence is known without forming it.
//
// With shifts[0] == 0 the base iteration performs the exact operator and
// vector-update sequence of cg_solve, so x[0] bit-matches plain CG on the
// same right-hand side.
#pragma once

#include <vector>

#include "lattice/cg.h"

namespace qcdoc::lattice {

struct MultishiftParams {
  /// Shift family sigma_i, ascending; shifts[0] is the base system whose
  /// Krylov space everything shares (smallest shift converges slowest).
  std::vector<double> shifts;
  double tolerance = 1e-8;  ///< on |r_i| / |rhs| for every shift
  int max_iterations = 500;
};

struct MultishiftResult {
  bool converged = false;  ///< every shift reached tolerance
  int iterations = 0;      ///< Dirac-application iterations (shared)
  /// |r_i| / |rhs| per shift, same order as params.shifts.
  std::vector<double> relative_residuals;

  // Fault-tolerance accounting (audited variant only).
  int restarts = 0;
  u64 audits = 0;
  u64 audit_failures = 0;
  u64 mem_checks = 0;

  // Machine-level accounting over the solve.
  double flops = 0;
  Cycle cycles = 0;
  double compute_cycles = 0;
  double comm_cycles = 0;
  double global_cycles = 0;
  TrafficByPrecision traffic{};
};

/// Solve (M^+M + sigma_i) x_i = M^+ b for all shifts in one Krylov
/// sequence.  `x` must have params.shifts.size() zero-initialized fields.
MultishiftResult multishift_solve(DiracOperator& op, std::vector<DistField>& x,
                                  DistField& b, const MultishiftParams& params);

/// Fault-tolerant variant under the same audit policy as cg_solve_audited.
/// Unlike CG -- which re-derives loop state from x -- the shifted
/// recurrence carries per-shift scalar state that cannot be recomputed
/// from the iterates, so a clean checkpoint shadow-copies the full working
/// set (base vectors, every shifted direction and solution) and a dirty
/// audit restores it exactly.  Rollback cost scales with the shift count;
/// there is no cross-process resume (mixed_cg_solve_audited and
/// cg_solve_audited have one), so no checkpoint hooks.
MultishiftResult multishift_solve_audited(DiracOperator& op,
                                          std::vector<DistField>& x,
                                          DistField& b,
                                          const MultishiftParams& params,
                                          const AuditParams& audit);

}  // namespace qcdoc::lattice
