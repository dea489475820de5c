#include "lattice/mixed.h"

#include <optional>

#include "common/log.h"
#include "lattice/krylov.h"

namespace qcdoc::lattice {

MixedCgWorkspace MixedCgWorkspace::make(DiracOperator& op, Precision sloppy) {
  // Allocation order is load-bearing (snapshot resume replays it).
  MixedCgWorkspace ws{
      op.make_field("mx.tmp"), op.make_field("mx.r"),  op.make_field("mx.ap"),
      op.make_field("mx.bp"),  op.make_field("mx.e"),  op.make_field("mx.rs"),
      op.make_field("mx.ps"),  op.make_field("mx.aps"),
      op.make_field("mx.tmps"), op.make_field("mx.xck")};
  ws.e.set_precision(sloppy);
  ws.rs.set_precision(sloppy);
  ws.ps.set_precision(sloppy);
  ws.aps.set_precision(sloppy);
  ws.tmps.set_precision(sloppy);
  return ws;
}

namespace {

CgResult mixed_cg_run(DiracOperator& op, DiracOperator& sloppy_op,
                      DistField& x, DistField& b, const MixedCgParams& params,
                      const ResumableAuditParams<MixedCgWorkspace>* audit) {
  FieldOps& ops = op.ops();
  const SolveMeter meter(ops);

  std::optional<MixedCgWorkspace> own_ws;
  MixedCgWorkspace* ws = audit ? audit->workspace : nullptr;
  if (ws == nullptr) {
    own_ws.emplace(MixedCgWorkspace::make(op, params.sloppy));
    ws = &*own_ws;
  }
  DistField& tmp = ws->tmp;
  DistField& r = ws->r;
  DistField& ap = ws->ap;
  DistField& bp = ws->bp;

  // Loop scalars; reliable_updates counts the completed outer cycles.
  CgCheckpoint st;
  // True residual in double: r = M^+ b - M^+ M x (bp caches M^+ b so a
  // resumed process never re-derives it -- it rides the snapshot).
  const auto recompute_residual = [&] {
    op.apply(tmp, x);
    op.apply_dag(ap, tmp);
    ops.copy(bp, r);
    ops.axpy(-1.0, ap, r);
    st.rsq = ops.norm2(r);
  };
  std::optional<AuditPolicy> policy;
  if (audit) {
    policy.emplace(
        *audit, st, [&] { ops.copy(x, ws->xck); },
        [&] {
          ops.copy(ws->xck, x);
          recompute_residual();
        },
        &audit->on_checkpoint);
  }

  if (audit && audit->resume) {
    // x, r, bp and xck already hold the checkpoint's restored contents.
    policy->resume(*audit->resume);
  } else {
    op.apply_dag(bp, b);
    if (audit) ops.copy(x, ws->xck);
    recompute_residual();
    if (policy) {
      policy->baseline([&] {
        ops.copy(ws->xck, x);
        op.apply_dag(bp, b);
        recompute_residual();
      });
    }
    st.rhs_norm2 = st.rsq;
    if (policy) policy->fire();
  }
  const double target = cg_target(params.tolerance, st.rhs_norm2);

  // Sloppy inner cycle on the correction equation A e = r: copying the
  // double residual into rs rounds it to the sloppy representable set, and
  // every inner load/store moves narrow bytes.
  double in_rsq = 0;
  CgIteration inner{ops, NormalOp{sloppy_op, ws->tmps}, ws->e, ws->rs,
                    ws->ps, ws->aps, in_rsq};
  CgResult result;
  const int max_trips =
      policy ? policy->max_trips(params.max_outer) : params.max_outer;
  for (int trip = 0;
       trip < max_trips && st.reliable_updates < params.max_outer; ++trip) {
    if (st.rsq < target) {
      result.converged = true;
      break;
    }
    ops.zero(ws->e);
    ops.copy(r, ws->rs);
    ops.copy(ws->rs, ws->ps);
    in_rsq = ops.norm2(ws->rs);
    const double in_target = params.delta * params.delta * in_rsq;
    if (in_rsq > in_target) {  // a zero residual has nothing to reduce
      int inner_iterations = 0;
      cg_loop(inner, inner_iterations, params.max_inner,
              [&](double rsq) { return rsq <= in_target; });
      st.iterations += inner_iterations;
    }

    // Reliable update: fold the correction in and replace the residual in
    // double precision, so sloppy rounding never outlives one cycle.
    ops.axpy(1.0, ws->e, x);
    recompute_residual();
    ++st.reliable_updates;

    const bool looks_converged = st.rsq < target;
    if (policy &&
        policy->due(looks_converged, st.reliable_updates == params.max_outer)) {
      if (!policy->passes()) {
        if (policy->gave_up()) break;
        continue;
      }
      // Loop-top state (x, r, rsq) is complete and the mesh quiescent.
      policy->fire();
    }
    if (looks_converged) {
      result.converged = true;
      break;
    }
  }
  if (policy && policy->gave_up()) result.converged = false;
  report_counters(st, result);
  result.reliable_updates = st.reliable_updates;
  result.relative_residual = relative_norm(st.rsq, st.rhs_norm2);
  meter.finish(result);
  QCDOC_INFO << "mixed-cg[" << op.name() << "/"
             << precision_name(params.sloppy) << "]: " << result.iterations
             << " sloppy iterations, " << result.reliable_updates
             << " reliable updates, |r|/|b| = " << result.relative_residual;
  return result;
}

}  // namespace

CgResult mixed_cg_solve(DiracOperator& op, DiracOperator& sloppy_op,
                        DistField& x, DistField& b,
                        const MixedCgParams& params) {
  return mixed_cg_run(op, sloppy_op, x, b, params, nullptr);
}

CgResult mixed_cg_solve_audited(
    DiracOperator& op, DiracOperator& sloppy_op, DistField& x, DistField& b,
    const MixedCgParams& params,
    const ResumableAuditParams<MixedCgWorkspace>& audit) {
  return mixed_cg_run(op, sloppy_op, x, b, params,
                      audit.armed() ? &audit : nullptr);
}

}  // namespace qcdoc::lattice
