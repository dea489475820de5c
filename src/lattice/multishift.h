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
//
// The solve is not audited.  Its per-shift zeta state cannot be re-derived
// from the iterates, so a rollback would need a shadow copy of the whole
// working set; the fault-tolerant solvers are cg_solve_audited and
// mixed_cg_solve_audited.
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

}  // namespace qcdoc::lattice
