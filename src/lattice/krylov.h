// The one Krylov core behind every solver in this directory.
//
// Each piece is written once:
//   - SolveMeter: the machine cost of a solve (cycles, flops, the
//     compute/comm/global split and per-precision traffic) as deltas from
//     a start snapshot.  Every solver reports through it.
//   - CgIteration: one CG iteration over a vector space (FieldOps, or the
//     even-parity ParityOps of eo_cg.cpp) and a linear-operator adaptor:
//     NormalOp here (M^+M, plus sigma_0 for the multishift base), the
//     even-site Schur operators in eo_cg.cpp.  The operator is dispatched
//     once per application, never per site.
//   - cg_loop: the CG loop run by cg_solve, cg_solve_audited, both
//     even-odd solvers and the mixed solver's sloppy cycle.
//   - AuditPolicy: detector polling, the baseline audit, rollback until an
//     audit comes back clean, the trip bound and the checkpoint/resume
//     scalars, shared by the audited cg and mixed solvers.
#pragma once

#include <cmath>
#include <functional>

#include "lattice/cg.h"

namespace qcdoc::lattice {

class SolveMeter {
 public:
  explicit SolveMeter(FieldOps& ops)
      : ops_(ops),
        cycle_(ops.bsp().now()),
        flops_(ops.flops()),
        compute_(ops.bsp().compute_cycles()),
        comm_(ops.bsp().comm_cycles()),
        global_(ops.bsp().global_cycles()),
        traffic_(ops.traffic()) {}

  /// Fill a result's cost fields (CgResult or MultishiftResult).
  template <typename Result>
  void finish(Result& r) const {
    auto& bsp = ops_.bsp();
    r.cycles = bsp.now() - cycle_;
    r.flops = ops_.flops() - flops_;
    r.compute_cycles = bsp.compute_cycles() - compute_;
    r.comm_cycles = bsp.comm_cycles() - comm_;
    r.global_cycles = bsp.global_cycles() - global_;
    r.traffic = ops_.traffic() - traffic_;
  }

 private:
  FieldOps& ops_;
  Cycle cycle_;
  double flops_;
  double compute_;
  double comm_;
  double global_;
  TrafficByPrecision traffic_;
};

/// A = M^+ M + sigma on the full lattice: two Dirac applications through
/// `tmp`, plus sigma p for a shifted base system.
struct NormalOp {
  DiracOperator& m;
  DistField& tmp;
  double sigma = 0.0;

  void operator()(DistField& out, DistField& in) const {
    m.apply(tmp, in);
    m.apply_dag(out, tmp);
    if (sigma != 0.0) m.ops().axpy(sigma, in, out);
  }
};

struct NoHook {
  void operator()(double) const {}
};

/// One CG iteration on A x = rhs over the vector space `v`, in two halves:
///   descend:  ap = A p;  alpha = rsq / <p, ap>;  x += alpha p;  r -= alpha ap
///   turn:     beta = |r_new|^2 / rsq;  p = r + beta p
/// `rsq` refers to the caller's |r|^2, so checkpoints and rollbacks see it.
template <typename Space, typename Op>
struct CgIteration {
  Space& v;
  Op a;
  DistField& x;
  DistField& r;
  DistField& p;
  DistField& ap;
  double& rsq;

  /// False on breakdown (<p, A p> == 0).  `between(alpha)` runs after the
  /// x update and before the r update (multishift's shifted solutions).
  template <typename Between = NoHook>
  bool descend(double* rsq_new, Between&& between = {}) {
    a(ap, p);
    const double p_ap = v.dot_re(p, ap);
    if (p_ap == 0.0) return false;
    const double alpha = rsq / p_ap;
    v.axpy(alpha, p, x);
    between(alpha);
    v.axpy(-alpha, ap, r);
    *rsq_new = v.norm2(r);
    return true;
  }

  /// `before(beta)` runs ahead of the p update (multishift's directions).
  template <typename Before = NoHook>
  void turn(double rsq_new, Before&& before = {}) {
    const double beta = rsq_new / rsq;
    before(beta);
    rsq = rsq_new;
    v.xpay(r, beta, p);
  }
};

/// tolerance^2 |rhs|^2, with |rhs| = 0 read as 1.
inline double cg_target(double tolerance, double rhs_norm2) {
  return tolerance * tolerance * (rhs_norm2 > 0 ? rhs_norm2 : 1.0);
}

/// |r| / |rhs| from the squared norms, or |r| when |rhs| = 0.
inline double relative_norm(double rsq, double rhs_norm2) {
  return rhs_norm2 > 0 ? std::sqrt(rsq / rhs_norm2) : std::sqrt(rsq);
}

/// Audit/rollback/checkpoint policy of the audited solvers.  The solver's
/// loop scalars live in `state`: the policy counts audits and restarts
/// into it, rewinds its progress counters (iterations, reliable updates)
/// to the last clean checkpoint on a rollback, and hands it to
/// `on_checkpoint`.  The solver supplies what a checkpoint saves and what
/// a rollback restores.
class AuditPolicy {
 public:
  using Hook = std::function<void()>;

  AuditPolicy(const AuditParams& params, CgCheckpoint& state, Hook save,
              Hook restore,
              const std::function<void(const CgCheckpoint&)>* on_checkpoint =
                  nullptr)
      : p_(params),
        st_(state),
        kept_(state),
        save_(std::move(save)),
        restore_(std::move(restore)),
        on_checkpoint_(on_checkpoint) {}

  /// Continue from persisted scalars; the fields already hold the
  /// checkpoint's restored contents.
  void resume(const CgCheckpoint& ck) {
    st_ = ck;
    kept_ = ck;
  }

  /// Bound on loop trips: `limit` units of work may be redone after each
  /// of max_restarts rollbacks, plus one trip per recovery.
  int max_trips(int limit) const {
    return limit * (p_.max_restarts + 1) + p_.max_restarts;
  }

  /// Baseline audit of the start-up work (the initial residual crosses the
  /// mesh and a corruption there would poison the reference scale).  A
  /// dirty result rolls back with `restart` until an audit comes back
  /// clean or the restarts run out; the solve goes on either way.
  void baseline(const Hook& restart) {
    if (!poll()) rollback(restart);
  }

  /// Counts one unit of work (an iteration, or a mixed outer cycle); true
  /// when an audit must run before the loop acts on it.
  bool due(bool looks_converged, bool at_limit) {
    ++since_;
    return looks_converged || since_ >= p_.interval || at_limit;
  }

  /// Audits the interval.  Clean: saves a checkpoint and returns true.
  /// Dirty: every iterate since the checkpoint is suspect, so it rolls
  /// back until an audit comes back clean; returns false, with gave_up()
  /// set when the restarts ran out first.
  bool passes() {
    if (poll()) {
      save_();
      since_ = 0;
      kept_ = st_;
      return true;
    }
    gave_up_ = !rollback(restore_);
    return false;
  }
  bool gave_up() const { return gave_up_; }

  /// The mesh is quiescent and the fields hold loop-top state: let the
  /// snapshot layer persist a generation.
  void fire() const {
    if (on_checkpoint_ != nullptr && *on_checkpoint_) (*on_checkpoint_)(st_);
  }

 private:
  /// One audit of the interval since the previous poll.  Link checksums
  /// and memory machine checks are independent detectors feeding the same
  /// rollback; both are always polled (never short-circuited) so each
  /// detector's baseline advances and a dirty interval is fully consumed.
  bool poll() {
    ++st_.audits;
    bool ok = true;
    if (p_.clean && !p_.clean()) {
      ++st_.audit_failures;
      ok = false;
    }
    if (p_.mem_clean && !p_.mem_clean()) {
      ++st_.mem_checks;
      ok = false;
    }
    return ok;
  }

  /// Restart from the checkpoint (its copy also rewrites any poisoned
  /// words) until an audit passes; false when the restarts run out.
  bool rollback(const Hook& restart) {
    while (st_.restarts < p_.max_restarts) {
      ++st_.restarts;
      st_.iterations = kept_.iterations;  // the interval was wasted
      st_.reliable_updates = kept_.reliable_updates;
      restart();
      since_ = 0;
      if (poll()) return true;
    }
    return false;
  }

  const AuditParams& p_;
  CgCheckpoint& st_;
  CgCheckpoint kept_;  ///< scalars at the last clean checkpoint
  Hook save_;
  Hook restore_;
  const std::function<void(const CgCheckpoint&)>* on_checkpoint_;
  int since_ = 0;  ///< units of work since the last clean checkpoint
  bool gave_up_ = false;
};

/// The CG loop.  Iterates until `stop(|r|^2)` holds, the operator breaks
/// down, or `iterations` reaches `limit`; true when it stopped on `stop`.
/// With an audit policy, a due audit runs before a stop is believed: a
/// dirty one rolls back (which recomputes r and sets p = r, restarting the
/// Krylov space), and a clean checkpoint is handed to the snapshot layer
/// once the p update has completed loop-top state.
template <typename Space, typename Op, typename Stop>
bool cg_loop(CgIteration<Space, Op>& cg, int& iterations, int limit,
             Stop&& stop, AuditPolicy* audit = nullptr) {
  const int max_trips = audit ? audit->max_trips(limit) : limit;
  for (int trip = 0; trip < max_trips && iterations < limit; ++trip) {
    double rsq_new = 0;
    if (!cg.descend(&rsq_new)) break;
    ++iterations;
    const bool looks_converged = stop(rsq_new);
    bool checkpointed = false;
    if (audit && audit->due(looks_converged, iterations == limit)) {
      if (!audit->passes()) {
        if (!audit->gave_up()) continue;
        cg.rsq = rsq_new;
        break;
      }
      checkpointed = true;
    }
    if (looks_converged) {
      cg.rsq = rsq_new;
      return true;
    }
    cg.turn(rsq_new);
    if (checkpointed) audit->fire();
  }
  return false;
}

/// cg_loop under CgParams: stop once |r|^2 < `target`, or run exactly
/// fixed_iterations.
template <typename Space, typename Op>
bool cg_loop(CgIteration<Space, Op>& cg, int& iterations,
             const CgParams& params, double target,
             AuditPolicy* audit = nullptr) {
  const int limit = params.fixed_iterations > 0 ? params.fixed_iterations
                                                : params.max_iterations;
  return cg_loop(
      cg, iterations, limit,
      [&](double rsq) { return params.fixed_iterations == 0 && rsq < target; },
      audit);
}

/// Copy the counters a solve keeps in its loop scalars into its result.
inline void report_counters(const CgCheckpoint& st, CgResult& r) {
  r.iterations = st.iterations;
  r.restarts = st.restarts;
  r.audits = st.audits;
  r.audit_failures = st.audit_failures;
  r.mem_checks = st.mem_checks;
}

}  // namespace qcdoc::lattice
