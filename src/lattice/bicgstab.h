// BiCGStab solver for the non-Hermitian Dirac systems.
//
// The paper notes that "standard Krylov space solvers work well" for QCD;
// CG on the normal equations M^+M was QCDOC's benchmark loop, but the other
// production workhorse of the era was BiCGStab directly on M x = b -- one
// forward operator application per half-step (no M^+), at the cost of
// complex inner products (two-word SCU global sums, pipelined through the
// same rings).
#pragma once

#include "lattice/cg.h"

namespace qcdoc::lattice {

/// Solve M x = b by BiCGStab; x must be zero-initialized.  Returns the
/// same accounting structure as cg_solve (residual on |b - Mx|/|b|).
CgResult bicgstab_solve(DiracOperator& op, DistField& x, DistField& b,
                        const CgParams& params);

}  // namespace qcdoc::lattice
