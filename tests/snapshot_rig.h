// Shared rig for the crash-consistent checkpoint/restart tests: one audited
// CG solve on a Qdaemon-managed partition that can run in three modes --
// uninterrupted reference, snapshot writer (optionally SIGKILLing itself at
// a chosen checkpoint, mid-CG), and resume (restore the latest good
// generation into a freshly replayed process and continue bit-exactly).
//
// The same function drives the tier-1 smoke test (4-node machine) and the
// slow 64-node acceptance test; only the scenario dimensions differ.
#pragma once

#include <bit>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/checksum_audit.h"
#include "fault/fault.h"
#include "host/qdaemon.h"
#include "host/scheduler.h"
#include "lattice/cg.h"
#include "lattice/linalg.h"
#include "lattice/wilson.h"
#include "lattice_fixture.h"
#include "snapshot/machine_state.h"
#include "snapshot/store.h"

namespace qcdoc::snapshot::testing {

struct SolveScenario {
  std::array<int, 6> machine_extents;
  torus::Shape partition_box;
  lattice::Coord4 global;
  double kappa = 0.12;
  int fixed_iterations = 6;
  int audit_interval = 2;
  int sim_threads = 1;
};

struct SolveOutcome {
  bool job_ok = false;
  bool capture_ok = true;  ///< false if any checkpoint failed to persist
  int iterations = 0;
  u64 residual_bits = 0;  ///< std::bit_cast of the final relative residual
  u64 field_fnv = 0;      ///< FNV-1a over every bit of the solution field
  u64 trace_digest = 0;   ///< the engine's event-order digest
  Cycle end_cycle = 0;
  bool resumed = false;
  u64 recovered_generation = 0;
  std::vector<std::string> diagnostics;  ///< store fallback notes (resume)
  std::vector<std::string> log;
};

/// Run the scenario's audited CG solve.
///   - `snapshot_dir == nullptr`: uninterrupted reference run.
///   - writer (`snapshot_dir` set, `resume` false): every clean checkpoint
///     is captured and committed as a new generation.  When
///     `kill_at_iteration >= 0`, the process raises SIGKILL right after the
///     save whose checkpoint is at that iteration -- dying mid-CG with the
///     generation durable on disk.
///   - resume (`resume` true): allocate the identical fields, restore the
///     newest good generation and continue the trajectory.
inline SolveOutcome run_solve(const SolveScenario& sc,
                              const std::string* snapshot_dir, bool resume,
                              int kill_at_iteration = -1) {
  SolveOutcome out;
  machine::MachineConfig cfg;
  cfg.shape.extent = sc.machine_extents;
  cfg.sim_threads = sc.sim_threads;
  machine::Machine m(cfg);
  host::Qdaemon qd(&m);
  qd.boot();
  auto handle = qd.allocate_partition("cg", sc.partition_box, 4);
  if (!handle) return out;

  fault::ChecksumAuditor auditor(&m.mesh());
  fault::MemCheckAuditor mem_auditor(&m.mesh(), handle->partition->nodes());
  fault::FaultInjector injector(&m.mesh());
  MachineExtras extras;
  extras.health = &qd.health();
  extras.auditor = &auditor;
  extras.mem_auditor = &mem_auditor;
  extras.injector = &injector;

  std::optional<SnapshotStore> store;
  if (snapshot_dir != nullptr) store.emplace(*snapshot_dir, "cg");

  const auto job = qd.run_job(*handle, [&](comms::Communicator& comm,
                                           std::vector<std::string>& log) {
    lattice::GlobalGeometry geom(handle->partition, sc.global);
    machine::BspRunner bsp(&m);
    cpu::CpuModel cpu(m.mem_timing());
    lattice::FieldOps ops(&bsp, &cpu, &comm);
    lattice::GaugeField gauge(&comm, &geom);
    Rng rng(77);
    gauge.randomize_near_unit(rng, 0.1);
    lattice::WilsonDirac op(&ops, &geom, &gauge,
                            lattice::WilsonParams{.kappa = sc.kappa});
    lattice::DistField x = op.make_field("x");
    lattice::DistField b = op.make_field("b");
    x.zero();
    lattice::testing::fill_by_global_site(geom, b);

    lattice::CgParams params;
    params.tolerance = 1e-8;
    params.fixed_iterations = sc.fixed_iterations;
    lattice::CgAuditParams audit;
    audit.clean = [&] { return auditor.clean_since_last(); };
    audit.mem_clean = [&] { return mem_auditor.clean_since_last(); };
    audit.interval = sc.audit_interval;

    lattice::CgCheckpoint resume_ck;
    std::optional<lattice::CgWorkspace> ws;
    if (resume) {
      // Allocation replay: the workspace must exist (in the solver's own
      // allocation order) before node memory is overwritten from disk.
      ws.emplace(lattice::CgWorkspace::make(op));
      SnapshotFile file;
      if (Status s = store->load_latest(&file, &out.diagnostics); !s) {
        log.push_back("restore failed: " + s.reason);
        return;
      }
      out.recovered_generation = file.generation();
      if (Status s = restore_machine(m, extras, file); !s) {
        log.push_back("restore failed: " + s.reason);
        return;
      }
      if (Status s = lattice::decode_checkpoint(file, &resume_ck); !s) {
        log.push_back("restore failed: " + s.reason);
        return;
      }
      audit.workspace = &*ws;
      audit.resume = &resume_ck;
      out.resumed = true;
    } else if (store.has_value()) {
      audit.on_checkpoint = [&](const lattice::CgCheckpoint& ck) {
        SnapshotFile file;
        if (Status s = capture_machine(m, extras, &file); !s) {
          out.capture_ok = false;
          log.push_back("capture failed: " + s.reason);
          return;
        }
        lattice::encode_checkpoint(ck, &file);
        if (Status s = store->save(&file); !s) {
          out.capture_ok = false;
          log.push_back("save failed: " + s.reason);
          return;
        }
        if (kill_at_iteration >= 0 && ck.iterations == kill_at_iteration) {
          raise(SIGKILL);  // die mid-CG; the generation above is durable
        }
      };
    }

    const lattice::CgResult r = cg_solve_audited(op, x, b, params, audit);
    out.iterations = r.iterations;
    out.residual_bits = std::bit_cast<u64>(r.relative_residual);
    out.field_fnv = lattice::testing::field_fnv(x);
  });
  out.job_ok = job.ok;
  out.log = job.output;
  out.end_cycle = m.engine().now();
  out.trace_digest = m.engine().trace_digest();
  return out;
}

// ---------------------------------------------------------------------------
// Scheduler-migration rig: one step-based job on the JobScheduler whose
// result is a placement-independent digest of per-step global sums, so a run
// that was quarantined off its partition mid-flight (and possibly SIGKILLed
// mid-migration, right after the checkpoint committed) must land on the same
// digest as the uninterrupted reference -- on any partition, at any thread
// count.

struct SchedScenario {
  std::array<int, 6> machine_extents{4, 2, 1, 1, 1, 1};
  torus::Shape box{{2, 2, 1, 1, 1, 1}};
  int logical_dims = 2;
  int total_steps = 8;
  /// At the start of this step the body quarantines its own rank-0 node
  /// (-1 = never): the handle is revoked mid-run and the scheduler must
  /// checkpoint the job off the box and resume it on clean nodes.
  int quarantine_at_step = -1;
  int sim_threads = 1;
};

struct SchedOutcome {
  bool accepted = false;
  host::JobState state = host::JobState::kSubmitting;
  fault::JobFailure failure = fault::JobFailure::kNone;
  u64 steps = 0;
  int requeues = 0;
  int migrations = 0;
  u64 result_bits = 0;  ///< digest of every global-sum value, in step order
  Cycle end_cycle = 0;
  u64 trace_digest = 0;
  std::vector<std::string> output;
  std::string detail;

  bool done() const { return state == host::JobState::kDone; }
};

/// Run the scenario's job to completion on a fresh machine.
///   - `snapshot_dir == nullptr`: in-memory only (reference / determinism
///     runs); a migration still works, it just is not crash-durable.
///   - `resume_from_store` true: before the first step, load the newest
///     persisted checkpoint of the job name from `snapshot_dir` and continue
///     from it (the crash-recovery path).
///   - `kill_at_migration` true: raise SIGKILL the moment a migration
///     checkpoint is durably on disk, before the re-queue -- the caller forks
///     first and reaps a SIGKILLed child, like run_solve's writer mode.
inline SchedOutcome run_sched_job(const SchedScenario& sc,
                                  const std::string* snapshot_dir,
                                  bool resume_from_store = false,
                                  bool kill_at_migration = false) {
  SchedOutcome out;
  machine::MachineConfig cfg;
  cfg.shape.extent = sc.machine_extents;
  cfg.sim_threads = sc.sim_threads;
  machine::Machine m(cfg);
  host::Qdaemon qd(&m);
  qd.boot();

  host::SchedulerConfig scfg;
  scfg.max_running = 1;
  if (snapshot_dir != nullptr) scfg.snapshot_dir = *snapshot_dir;
  if (kill_at_migration) {
    scfg.on_migration_captured = [](host::JobId) { raise(SIGKILL); };
  }
  host::JobScheduler sched(&qd, scfg);

  // The digest lives across steps like application state lives in node
  // memory; the checkpoint is its durable copy.  ctx.resume is only handed
  // over on the first step after a (re-)placement, so a mid-run step with
  // neither live state nor resume bytes means the checkpoint chain broke.
  struct StepperState {
    u64 acc = sim::detail::kFnvOffset;
    bool live = false;
  };
  auto state = std::make_shared<StepperState>();

  host::JobSpec spec;
  spec.name = "stepper";
  spec.user = "alice";
  spec.image = "stepper.elf";
  spec.box = sc.box;
  spec.logical_dims = sc.logical_dims;
  spec.resume_from_store = resume_from_store;
  spec.body = [&sc, &qd, &m, &out,
               state](host::JobContext& ctx) -> host::StepStatus {
    if (ctx.resume != nullptr) {
      ByteSource src(*ctx.resume, "sched-rig checkpoint");
      u64 step = 0, acc = 0;
      if (!src.get_u64(&step) || !src.get_u64(&acc) ||
          !src.expect_exhausted() || step != ctx.step) {
        return host::StepStatus::kError;
      }
      state->acc = acc;
      state->live = true;
    } else if (ctx.step == 0) {
      state->acc = sim::detail::kFnvOffset;
      state->live = true;
    } else if (!state->live) {
      return host::StepStatus::kError;  // checkpoint lost: digest unsound
    }
    if (static_cast<int>(ctx.step) == sc.quarantine_at_step) {
      // Fault injection from inside the job, at a deterministic step: the
      // scheduler notices the revoked handle at the next step boundary.
      qd.quarantine_node(ctx.partition->nodes()[0]);
    }
    const int ranks = ctx.partition->num_nodes();
    std::vector<double> contrib(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      contrib[static_cast<std::size_t>(r)] =
          1.0 / static_cast<double>(1 + r + 3 * static_cast<int>(ctx.step));
    }
    // The reduction is over logical ranks, so its bits cannot depend on
    // which machine box the partition occupies -- the property migration
    // must preserve.  The operation's cost is spent as engine time, which
    // is what deadlines and fair-share usage are charged in.
    const auto sum = ctx.comm->global_sum(contrib);
    m.engine().run_until(m.engine().now() + sum.cycles);
    state->acc = sim::detail::fnv1a(state->acc, std::bit_cast<u64>(sum.value));
    if (static_cast<int>(ctx.step) + 1 >= sc.total_steps) {
      out.result_bits = state->acc;
      ctx.output->push_back("digest " + std::to_string(state->acc));
      return host::StepStatus::kDone;
    }
    ByteSink sink;
    sink.put_u64(ctx.step + 1);
    sink.put_u64(state->acc);
    ctx.checkpoint = sink.take();
    return host::StepStatus::kYield;
  };

  const host::SubmitOutcome sub = sched.submit(spec);
  out.accepted = sub.accepted;
  if (!sub.accepted) {
    out.detail = sub.detail;
    return out;
  }
  sched.run_until_idle();

  const host::JobStatusInfo st = sched.status(sub.id);
  out.state = st.state;
  out.failure = st.failure;
  out.steps = st.steps;
  out.requeues = st.requeues;
  out.migrations = st.migrations;
  out.output = st.output;
  out.detail = st.detail;
  out.end_cycle = m.engine().now();
  out.trace_digest = m.engine().trace_digest();
  return out;
}

}  // namespace qcdoc::snapshot::testing
