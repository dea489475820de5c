// Conjugate-gradient solver on the normal equations.
//
// "Standard Krylov space solvers work well to produce the solution and
// dominate the calculational time for QCD simulations" -- the paper's
// headline numbers (40% / 38% / 46.5% of peak) are CG efficiencies.  The
// solver runs the paper's loop: two Dirac applications per iteration
// (M and M^dagger), three vector updates, and two machine-wide inner
// products through the SCU global-sum hardware.
#pragma once

#include <functional>

#include "lattice/dirac.h"

namespace qcdoc::snapshot {
class SnapshotFile;
struct Status;
}  // namespace qcdoc::snapshot

namespace qcdoc::lattice {

struct CgParams {
  double tolerance = 1e-8;  ///< on |r| / |rhs|
  int max_iterations = 500;
  /// Run exactly this many iterations regardless of convergence (benchmarks
  /// measure steady-state rates, not solution quality).
  int fixed_iterations = 0;
};

/// Solver scalars at a clean audit checkpoint -- the one checkpoint record
/// of every resumable solver (cg_solve_audited, mixed_cg_solve_audited).
/// Together with the field contents -- x and the workspace fields live in
/// simulated node memory and ride a machine snapshot -- this is everything
/// needed to resume the exact Krylov trajectory in a fresh process.
struct CgCheckpoint {
  int iterations = 0;
  int reliable_updates = 0;  ///< mixed solvers: completed outer cycles
  double rsq = 0;        ///< |r|^2 at the checkpoint (bit pattern matters)
  double rhs_norm2 = 0;  ///< reference scale |M^+ b|^2
  int restarts = 0;
  u64 audits = 0;
  u64 audit_failures = 0;
  u64 mem_checks = 0;
};

/// The kSecSolver snapshot section: the one byte layout of a CgCheckpoint.
void encode_checkpoint(const CgCheckpoint& ck, snapshot::SnapshotFile* file);
snapshot::Status decode_checkpoint(const snapshot::SnapshotFile& file,
                                   CgCheckpoint* ck);

/// The audited solver's working fields, in the solver's canonical
/// allocation order.  Normally allocated internally; a resuming process
/// must create the allocations *before* overwriting node memory from a
/// snapshot, so it builds a workspace first, restores into it, and passes
/// it to the solver.
struct CgWorkspace {
  DistField tmp, r, p, ap, xck;
  static CgWorkspace make(DiracOperator& op);
};

/// Checksum-audit policy of the fault-tolerant solvers.  The paper compares
/// per-link checksums at the end of a calculation; auditing every few
/// iterations instead lets a multi-day run restart from its last known-clean
/// checkpoint when an undetected corruption slips past the link parity.
struct AuditParams {
  /// Returns true when all link traffic since the *previous* call matched
  /// checksums (e.g. fault::ChecksumAuditor::clean_since_last).  Called at
  /// iteration boundaries, where the BSP runtime leaves the mesh quiescent.
  std::function<bool()> clean;
  /// Returns true when no node latched an ECC machine check since the
  /// previous call (e.g. fault::MemCheckAuditor::clean_since_last).  An
  /// uncorrectable memory word is treated exactly like corrupted link
  /// traffic: roll back to the checkpoint -- whose copy rewrites the
  /// poisoned words with known-good data -- and recompute.  Either or both
  /// of `clean` / `mem_clean` may be set; both are always polled so each
  /// detector's interval baseline advances.
  std::function<bool()> mem_clean;
  /// Units of work between audits: iterations, or a mixed solver's outer
  /// cycles.
  int interval = 10;
  int max_restarts = 8;  ///< give up after this many rollbacks
};

/// Audit policy plus the crash-consistency hooks of a resumable solver;
/// `Workspace` is the solver's working-field set (CgWorkspace,
/// MixedCgWorkspace).
template <typename Workspace>
struct ResumableAuditParams : AuditParams {
  /// Fired whenever the solver lands on a clean checkpoint: after the
  /// baseline audit, and at every clean audit once loop-top state is
  /// complete.  The mesh is quiescent, so this is where the snapshot layer
  /// writes a generation (encode_checkpoint).
  std::function<void(const CgCheckpoint&)> on_checkpoint;
  /// Pre-allocated working fields; null = allocate internally.  Required
  /// when `resume` is set.
  Workspace* workspace = nullptr;
  /// Resume from these scalars instead of computing the initial residual.
  /// x and the workspace fields must already hold the checkpoint's restored
  /// contents; the solver continues the trajectory bit-identically.
  const CgCheckpoint* resume = nullptr;

  /// Whether any hook is set; an unarmed audit runs the plain solver.
  bool armed() const {
    return clean || mem_clean || on_checkpoint || workspace != nullptr ||
           resume != nullptr;
  }
};

using CgAuditParams = ResumableAuditParams<CgWorkspace>;

struct CgResult {
  bool converged = false;
  int iterations = 0;
  double relative_residual = 0;

  // Fault-tolerance accounting (audited solvers only).
  int restarts = 0;         ///< rollbacks to the last clean checkpoint
  u64 audits = 0;           ///< checksum audits performed
  u64 audit_failures = 0;   ///< audits that found corrupted traffic
  u64 mem_checks = 0;       ///< audits that found uncorrectable memory

  // Mixed-precision accounting (reliable-update solvers only).
  int reliable_updates = 0;  ///< double-precision residual replacements

  // Machine-level accounting over the solve.
  double flops = 0;          ///< total useful flops (whole machine)
  Cycle cycles = 0;          ///< machine time
  double compute_cycles = 0;
  double comm_cycles = 0;    ///< exposed (non-overlapped) communication
  double global_cycles = 0;  ///< global sums
  /// Flop/byte traffic of the solve split by storage precision (delta of
  /// FieldOps::traffic over the solve) -- the honest ledger behind the
  /// predicted mixed-precision speedups.
  TrafficByPrecision traffic{};

  /// Sustained fraction of machine peak.
  double efficiency(double peak_flops_per_cycle_machine) const {
    return cycles > 0
               ? flops / (peak_flops_per_cycle_machine * static_cast<double>(cycles))
               : 0.0;
  }
};

/// Solve M^dagger M x = M^dagger b by CG; x must be zero-initialized (or a
/// starting guess).  Advances the machine clock; all arithmetic is real.
CgResult cg_solve(DiracOperator& op, DistField& x, DistField& b,
                  const CgParams& params);

/// Fault-tolerant CG: every `audit.interval` iterations (and before
/// declaring convergence) the solver audits the link checksums.  A clean
/// audit checkpoints x; a dirty one rolls x back to the checkpoint and
/// recomputes the true residual, so corrupted halo traffic costs at most
/// one audit interval.  Convergence is only ever declared on clean data.
CgResult cg_solve_audited(DiracOperator& op, DistField& x, DistField& b,
                          const CgParams& params,
                          const CgAuditParams& audit);

}  // namespace qcdoc::lattice
