// Reliable-update mixed-precision Krylov solvers.
//
// The iteration runs in a sloppy precision (single, or half with the
// block-float codec) whose narrow loads and stores are what the EDRAM
// bandwidth actually sees, with periodic double-precision residual
// replacement: after each inner cycle reduces the sloppy residual by
// `delta`, the true residual r = M^+b - M^+M x is recomputed in double and
// the inner correction restarts from it.  Rounding noise therefore never
// accumulates past one cycle, and the solver reaches full double-precision
// tolerances while moving a fraction of the memory traffic -- the QUDA
// recipe, which on this machine model converts directly into predicted
// EDRAM/DDR cycle savings.
#pragma once

#include "lattice/cg.h"

namespace qcdoc::lattice {

struct MixedCgParams {
  double tolerance = 1e-8;  ///< on |r| / |rhs|, in DOUBLE precision
  int max_outer = 100;      ///< reliable-update cycles
  int max_inner = 100;      ///< sloppy iterations per cycle
  /// Inner cycle ends once the sloppy residual has dropped by this factor
  /// (|r_inner|^2 <= delta^2 |r_cycle_start|^2).
  double delta = 0.1;
  Precision sloppy = Precision::kSingle;
};

/// Working fields in canonical allocation order (simulated memory is never
/// freed, so the solver allocates once; a resuming process allocates the
/// same workspace before restoring node memory from a snapshot).
struct MixedCgWorkspace {
  DistField tmp, r, ap, bp;          // double: true-residual recompute
  DistField e, rs, ps, aps, tmps;    // sloppy inner solve
  DistField xck;                     // last known-clean solution copy
  static MixedCgWorkspace make(DiracOperator& op, Precision sloppy);
};

/// Solve M^+M x = M^+b to double-precision tolerance, iterating at
/// params.sloppy precision with reliable updates.  `sloppy_op` applies the
/// same physical operator in the sloppy precision (e.g. a WilsonDirac built
/// with precision = kHalf over the same gauge field); `op` is the double
/// reference.  x must be zero-initialized.  result.iterations counts
/// sloppy inner iterations; result.reliable_updates counts double residual
/// replacements.
CgResult mixed_cg_solve(DiracOperator& op, DiracOperator& sloppy_op,
                        DistField& x, DistField& b,
                        const MixedCgParams& params);

/// Audited / crash-consistent variant under cg_solve_audited's policy,
/// with outer cycles as the audit/checkpoint grain: checkpoints carry the
/// completed cycles in CgCheckpoint::reliable_updates.
CgResult mixed_cg_solve_audited(
    DiracOperator& op, DiracOperator& sloppy_op, DistField& x, DistField& b,
    const MixedCgParams& params,
    const ResumableAuditParams<MixedCgWorkspace>& audit);

}  // namespace qcdoc::lattice
