#include "lattice/cg.h"

#include <optional>

#include "common/log.h"
#include "lattice/krylov.h"
#include "snapshot/format.h"

namespace qcdoc::lattice {

namespace {

// Shared CG engine.  `audit` == nullptr runs the plain solver; otherwise
// every audit->interval iterations (and before declaring convergence) the
// link checksums are audited, with rollback to the last clean checkpoint
// on a mismatch.
CgResult cg_run(DiracOperator& op, DistField& x, DistField& b,
                const CgParams& params, const CgAuditParams* audit) {
  FieldOps& ops = op.ops();
  const SolveMeter meter(ops);

  // Working fields: an externally supplied workspace (the resume path, which
  // must allocate before restoring memory contents) or internal allocations
  // in the exact same order.  The plain solver keeps its original layout
  // (no checkpoint field).
  std::optional<CgWorkspace> own_ws;
  CgWorkspace* ws = audit ? audit->workspace : nullptr;
  if (audit && ws == nullptr) {
    own_ws.emplace(CgWorkspace::make(op));
    ws = &*own_ws;
  }
  std::optional<DistField> plain_tmp, plain_r, plain_p, plain_ap;
  if (ws == nullptr) {
    plain_tmp.emplace(op.make_field("cg.tmp"));
    plain_r.emplace(op.make_field("cg.r"));
    plain_p.emplace(op.make_field("cg.p"));
    plain_ap.emplace(op.make_field("cg.ap"));
  }
  DistField& tmp = ws ? ws->tmp : *plain_tmp;
  DistField& r = ws ? ws->r : *plain_r;
  DistField& p = ws ? ws->p : *plain_p;
  DistField& ap = ws ? ws->ap : *plain_ap;
  DistField* xck = ws ? &ws->xck : nullptr;  // last known-clean checkpoint

  CgCheckpoint st;  // loop scalars
  // r = M^+ b - M^+ M x (normal equations); with x = 0 this is r = M^+ b.
  const auto recompute_residual = [&] {
    op.apply_dag(r, b);
    op.apply(tmp, x);
    op.apply_dag(ap, tmp);
    ops.axpy(-1.0, ap, r);
    ops.copy(r, p);
    st.rsq = ops.norm2(r);
  };
  const auto roll_back = [&] {
    ops.copy(*xck, x);
    recompute_residual();
  };
  std::optional<AuditPolicy> policy;
  if (audit) {
    policy.emplace(*audit, st, [&] { ops.copy(x, *xck); }, roll_back,
                   &audit->on_checkpoint);
  }
  if (audit && audit->resume) {
    // x and the workspace fields already hold the checkpoint's restored
    // contents (loop-top state); recomputing anything would diverge from
    // the uninterrupted run's event trace.
    policy->resume(*audit->resume);
  } else {
    if (audit) ops.copy(x, *xck);
    recompute_residual();
    if (policy) policy->baseline(roll_back);
    st.rhs_norm2 = st.rsq;
    if (policy) policy->fire();
  }

  CgIteration cg{ops, NormalOp{op, tmp}, x, r, p, ap, st.rsq};
  CgResult result;
  result.converged =
      cg_loop(cg, st.iterations, params,
              cg_target(params.tolerance, st.rhs_norm2),
              policy ? &*policy : nullptr);
  const bool gave_up = policy && policy->gave_up();
  report_counters(st, result);
  result.relative_residual = relative_norm(st.rsq, st.rhs_norm2);
  if (params.fixed_iterations > 0 && !gave_up) {
    result.converged = result.relative_residual <= params.tolerance;
  }
  meter.finish(result);
  QCDOC_INFO << "cg[" << op.name() << "]: " << result.iterations
             << " iterations, |r|/|b| = " << result.relative_residual
             << (audit ? (", " + std::to_string(result.restarts) + " restarts")
                       : std::string());
  return result;
}

constexpr snapshot::SectionSpec kSolverSection{snapshot::kSecSolver, 1, 0};

// The SOLVER section's layout, run over a ByteSink to encode and over a
// ByteSource to decode.
template <class IO>
snapshot::Status checkpoint_fields(IO& io, CgCheckpoint& ck) {
  io.field(ck.iterations);
  io.field(ck.reliable_updates);
  io.field(ck.rsq);
  io.field(ck.rhs_norm2);
  io.field(ck.restarts);
  io.field(ck.audits);
  io.field(ck.audit_failures);
  io.field(ck.mem_checks);
  return io.finish();
}

}  // namespace

CgWorkspace CgWorkspace::make(DiracOperator& op) {
  // Allocation order is load-bearing: it must match what cg_run would
  // allocate internally, so a resuming process reproduces the snapshotted
  // memory layout exactly.
  return CgWorkspace{op.make_field("cg.tmp"), op.make_field("cg.r"),
                     op.make_field("cg.p"), op.make_field("cg.ap"),
                     op.make_field("cg.xck")};
}

void encode_checkpoint(const CgCheckpoint& ck, snapshot::SnapshotFile* file) {
  CgCheckpoint fields = ck;
  file->write_section(kSolverSection,
                      [&](auto& io) { return checkpoint_fields(io, fields); });
}

snapshot::Status decode_checkpoint(const snapshot::SnapshotFile& file,
                                   CgCheckpoint* ck) {
  return file.read_section(kSolverSection,
                           [&](auto& io) { return checkpoint_fields(io, *ck); });
}

CgResult cg_solve(DiracOperator& op, DistField& x, DistField& b,
                  const CgParams& params) {
  return cg_run(op, x, b, params, nullptr);
}

CgResult cg_solve_audited(DiracOperator& op, DistField& x, DistField& b,
                          const CgParams& params,
                          const CgAuditParams& audit) {
  return cg_run(op, x, b, params, audit.armed() ? &audit : nullptr);
}

}  // namespace qcdoc::lattice
