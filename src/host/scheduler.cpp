#include "host/scheduler.h"

#include <algorithm>

#include "common/log.h"
#include "snapshot/format.h"

namespace qcdoc::host {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kSubmitting: return "submitting";
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kMigrating: return "migrating";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

const char* to_string(SubmitError e) {
  switch (e) {
    case SubmitError::kNone: return "none";
    case SubmitError::kQueueFull: return "queue_full";
    case SubmitError::kUserQuotaFull: return "user_quota_full";
    case SubmitError::kBadRequest: return "bad_request";
  }
  return "?";
}

namespace {

std::string sanitize_stream(const std::string& name) {
  std::string out = "job_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

constexpr snapshot::SectionSpec kJobSection{snapshot::kSecJob, 1, 0};

// The JOB section's layout: persist_checkpoint writes it and
// try_resume_from_store reads it back.
template <class IO>
snapshot::Status job_fields(IO& io, std::string& name, u64& step,
                            Cycle& cycles, std::vector<u8>& checkpoint) {
  io.field(name);
  io.field(step);
  io.field(cycles);
  io.field(checkpoint);
  return io.finish();
}

}  // namespace

JobScheduler::JobScheduler(Qdaemon* qd, SchedulerConfig cfg)
    : qd_(qd),
      machine_(&qd->machine()),
      cfg_(std::move(cfg)),
      image_cache_(&qd->machine(), &qd->ethernet(), cfg_.image_cache) {
  // Migrated jobs must land on clean hardware, and a quarantined node's
  // cached images are gone with it.
  qd_->set_allocation_excludes_degraded(true);
  qd_->on_quarantine([this](NodeId n) { image_cache_.invalidate_node(n); });
}

SubmitOutcome JobScheduler::submit(JobSpec spec) {
  ++report_.submitted;
  SubmitOutcome out;

  // Malformed specs are rejected permanently: retrying cannot fix them.
  const auto& shape = machine_->topology().shape();
  bool bad = !spec.body || spec.name.empty() || spec.user.empty() ||
             spec.logical_dims < 1 || spec.logical_dims > torus::kMaxDims;
  for (int d = 0; d < torus::kMaxDims && !bad; ++d) {
    bad = spec.box.extent[d] < 1 || spec.box.extent[d] > shape.extent[d] ||
          shape.extent[d] % spec.box.extent[d] != 0;
  }
  if (bad) {
    ++report_.rejected_bad_request;
    out.error = SubmitError::kBadRequest;
    out.detail = "malformed job spec (body/name/user/box/dims)";
    return out;
  }

  // Bounded queue: the global admission bound counts jobs that have been
  // accepted but not yet placed.  Rejection carries a retry-after hint --
  // the explicit backpressure half of the submission contract.
  int queued = 0;
  int user_load = 0;
  for (const auto& [id, j] : jobs_) {
    const bool waiting =
        j.state == JobState::kSubmitting || j.state == JobState::kQueued;
    if (waiting) ++queued;
    if (j.spec.user == spec.user &&
        (waiting || j.state == JobState::kRunning ||
         j.state == JobState::kMigrating)) {
      ++user_load;
    }
  }
  if (queued >= cfg_.max_queued) {
    ++report_.rejected_queue_full;
    out.error = SubmitError::kQueueFull;
    out.retry_after = cfg_.retry_hint_cycles;
    out.detail = "admission queue full (" + std::to_string(queued) + "/" +
                 std::to_string(cfg_.max_queued) + ")";
    return out;
  }
  if (user_load >= cfg_.max_queued_per_user) {
    ++report_.rejected_quota;
    out.error = SubmitError::kUserQuotaFull;
    out.retry_after = cfg_.retry_hint_cycles;
    out.detail = "user '" + spec.user + "' at quota (" +
                 std::to_string(user_load) + "/" +
                 std::to_string(cfg_.max_queued_per_user) + ")";
    return out;
  }

  ++report_.accepted;
  const JobId id = next_id_++;
  Job& j = jobs_[id];
  j.id = id;
  j.spec = std::move(spec);
  j.submit_seq = submit_seq_++;
  j.arrive_at = machine_->engine().now() + cfg_.submit_latency_cycles;
  record(j, JobState::kSubmitting, "accepted from user '" + j.spec.user + "'");
  // The submission packet crosses the Ethernet tree: the job becomes
  // visible to the queue after the hop, as a host-affinity event (the
  // decision itself touches only scheduler state, never a node).
  const sim::EngineRef host(&machine_->engine());
  host.schedule(cfg_.submit_latency_cycles, [this, id] {
    Job& job = jobs_.at(id);
    if (job.state == JobState::kSubmitting) {
      record(job, JobState::kQueued, "arrived in queue");
    }
  });
  out.accepted = true;
  out.id = id;
  return out;
}

void JobScheduler::record(Job& j, JobState s, std::string note) {
  j.state = s;
  j.events.push_back(JobEvent{machine_->engine().now(), s, std::move(note)});
}

void JobScheduler::finish(Job& j, bool ok, fault::JobFailure f,
                          std::string detail) {
  if (j.handle) {
    qd_->release_partition(*j.handle);
    j.handle.reset();
    j.comm.reset();
  }
  j.failure = f;
  j.detail = detail;
  if (ok) {
    ++report_.completed;
    record(j, JobState::kDone, std::move(detail));
  } else {
    ++report_.failed;
    record(j, JobState::kFailed,
           std::string(fault::to_string(f)) + ": " + std::move(detail));
  }
}

double JobScheduler::usage_ratio(const std::string& user) const {
  const auto s = shares_.find(user);
  const double share = s == shares_.end() ? 1.0 : std::max(s->second, 1e-9);
  const auto u = usage_.find(user);
  const Cycle used = u == usage_.end() ? 0 : u->second;
  return static_cast<double>(used) / share;
}

void JobScheduler::set_share(const std::string& user, double weight) {
  shares_[user] = weight;
}

JobId JobScheduler::pick_fair(const std::vector<JobId>& candidates) const {
  JobId best = -1;
  double best_ratio = 0.0;
  u64 best_seq = 0;
  for (const JobId id : candidates) {
    const Job& j = jobs_.at(id);
    const double ratio = usage_ratio(j.spec.user);
    if (best < 0 || ratio < best_ratio ||
        (ratio == best_ratio && j.submit_seq < best_seq)) {
      best = id;
      best_ratio = ratio;
      best_seq = j.submit_seq;
    }
  }
  return best;
}

std::vector<JobId> JobScheduler::in_state(JobState s) const {
  std::vector<JobId> out;
  for (const auto& [id, j] : jobs_) {
    if (j.state == s) out.push_back(id);
  }
  return out;
}

bool JobScheduler::try_start_one() {
  std::vector<JobId> candidates = in_state(JobState::kQueued);
  // Fair-share order with backfill: when the preferred tenant's box does
  // not fit the current free pool, a smaller job behind it may still start.
  while (!candidates.empty()) {
    const JobId pick = pick_fair(candidates);
    if (start_job(jobs_.at(pick))) return true;
    candidates.erase(std::find(candidates.begin(), candidates.end(), pick));
  }
  return false;
}

bool JobScheduler::start_job(Job& j) {
  auto handle =
      qd_->allocate_partition(j.spec.name, j.spec.box, j.spec.logical_dims);
  if (!handle) return false;  // stays queued; the pool may free up later

  const Cycle t0 = machine_->engine().now();
  const std::vector<NodeId> nodes = qd_->partition(*handle)->nodes();
  const ImageLoadReport load = image_cache_.load(j.spec.image, nodes);
  const Cycle boot_cycles = machine_->engine().now() - t0;
  if (load.cold_nodes > 0) {
    report_.cold_boot_cycles.push_back(boot_cycles);
  } else {
    report_.warm_boot_cycles.push_back(boot_cycles);
  }

  if (j.spec.resume_from_store && !j.have_checkpoint && j.step == 0) {
    try_resume_from_store(j);
  }

  j.handle = *handle;
  j.comm =
      std::make_unique<comms::Communicator>(machine_, qd_->partition(*handle));
  j.resume_pending = j.have_checkpoint;
  j.cycles_this_attempt = 0;
  record(j, JobState::kRunning,
         "placed on partition " + std::to_string(handle->id) + " (" +
             std::to_string(load.warm_nodes) + " warm / " +
             std::to_string(load.cold_nodes) + " cold nodes, boot " +
             std::to_string(boot_cycles) + " cycles)");
  return true;
}

bool JobScheduler::step_one() {
  const std::vector<JobId> running = in_state(JobState::kRunning);
  if (running.empty()) return false;
  step_job(jobs_.at(pick_fair(running)));
  return true;
}

void JobScheduler::step_job(Job& j) {
  // Revocation is checked at the step boundary: quarantine between steps
  // revokes the handle, and the job migrates instead of touching a
  // partition that now spans dead hardware.
  if (!j.handle || !qd_->valid(*j.handle)) {
    migrate_job(j);
    return;
  }

  JobContext ctx;
  ctx.comm = j.comm.get();
  ctx.partition = qd_->partition(*j.handle);
  ctx.step = j.step;
  ctx.resume = j.resume_pending ? &j.checkpoint : nullptr;
  ctx.output = &j.output;

  const Cycle t0 = machine_->engine().now();
  const StepStatus st = j.spec.body(ctx);
  const Cycle dt = machine_->engine().now() - t0;
  j.resume_pending = false;
  ++j.step;
  j.cycles_run += dt;
  j.cycles_this_attempt += dt;
  usage_[j.spec.user] += dt;

  switch (st) {
    case StepStatus::kDone:
      deliver_output(j);
      finish(j, true, fault::JobFailure::kNone,
             "completed after " + std::to_string(j.step) + " steps");
      return;
    case StepStatus::kError:
      finish(j, false, fault::JobFailure::kApplicationError,
             "job body reported failure at step " + std::to_string(j.step));
      return;
    case StepStatus::kYield:
      if (!ctx.checkpoint.empty()) {
        j.checkpoint = std::move(ctx.checkpoint);
        j.have_checkpoint = true;
      }
      break;
  }

  if (j.spec.deadline_cycles > 0 &&
      j.cycles_this_attempt > j.spec.deadline_cycles) {
    requeue_after_deadline(j);
  }
}

void JobScheduler::requeue_after_deadline(Job& j) {
  ++j.requeues;
  ++report_.requeues;
  if (j.requeues > j.spec.max_requeues) {
    finish(j, false, fault::JobFailure::kDeadlineExpired,
           "deadline of " + std::to_string(j.spec.deadline_cycles) +
               " cycles exceeded on attempt " + std::to_string(j.requeues));
    return;
  }
  if (j.handle) {
    qd_->release_partition(*j.handle);
    j.handle.reset();
    j.comm.reset();
  }
  j.resume_pending = j.have_checkpoint;
  record(j, JobState::kQueued,
         "deadline expired; re-queued (attempt " +
             std::to_string(j.requeues + 1) + "/" +
             std::to_string(j.spec.max_requeues + 1) + ")");
}

void JobScheduler::migrate_job(Job& j) {
  record(j, JobState::kMigrating,
         "partition revoked: " +
             (j.handle ? qd_->revocation_reason(*j.handle) : "released"));

  // The checkpoint must be captured from a quiescent machine: no DMA in
  // flight, no pending events beyond the re-armable services.  The job is
  // between steps so nothing new is being issued; drain the stragglers.
  const QuiesceOptions qopts{cfg_.injector};
  const QuiesceReport q = drain_to_quiescence(*machine_, qopts);
  if (!q) {
    finish(j, false, fault::JobFailure::kCheckpointLost,
           "drain to quiescence failed: " + q.detail);
    return;
  }
  if (!persist_checkpoint(j)) {
    finish(j, false, fault::JobFailure::kCheckpointLost,
           "checkpoint persistence failed");
    return;
  }
  if (cfg_.on_migration_captured) cfg_.on_migration_captured(j.id);

  // Teardown returns the surviving nodes through a health re-sweep; the
  // quarantined ones stay out of the pool, and their cached boot images
  // were invalidated by the quarantine callback.
  if (j.handle) {
    qd_->release_partition(*j.handle);
    j.handle.reset();
    j.comm.reset();
  }
  ++j.migrations;
  ++report_.migrations;
  j.failure = fault::JobFailure::kPartitionRevoked;  // latest abnormal cause
  j.resume_pending = j.have_checkpoint;
  record(j, JobState::kQueued,
         j.have_checkpoint
             ? "re-queued with checkpoint at step " + std::to_string(j.step)
             : "re-queued for restart (no checkpoint yielded yet)");
  if (!j.have_checkpoint) j.step = 0;
}

bool JobScheduler::persist_checkpoint(Job& j) {
  if (cfg_.snapshot_dir.empty()) return true;  // in-memory migration only
  snapshot::SnapshotStore store = store_for(j);
  snapshot::SnapshotFile file;
  file.write_section(kJobSection, [&](auto& io) {
    return job_fields(io, j.spec.name, j.step, j.cycles_run, j.checkpoint);
  });
  const snapshot::Status st = store.save(&file);
  if (!st) {
    QCDOC_WARN << "scheduler: job '" << j.spec.name
               << "' checkpoint save failed: " << st.reason;
    return false;
  }
  return true;
}

void JobScheduler::try_resume_from_store(Job& j) {
  if (cfg_.snapshot_dir.empty()) return;
  snapshot::SnapshotStore store = store_for(j);
  snapshot::SnapshotFile file;
  if (!store.load_latest(&file)) return;  // nothing durable: fresh start
  std::string name;
  u64 step = 0;
  Cycle cycles = 0;
  std::vector<u8> checkpoint;
  const snapshot::Status read = file.read_section(kJobSection, [&](auto& io) {
    return job_fields(io, name, step, cycles, checkpoint);
  });
  if (!read || name != j.spec.name) return;
  j.checkpoint = std::move(checkpoint);
  j.have_checkpoint = !j.checkpoint.empty();
  if (!j.have_checkpoint) return;  // a step-0 save resumes as a fresh start
  j.resume_pending = true;
  j.step = step;
  j.cycles_run = cycles;
  record(j, j.state,
         "resumed from persisted checkpoint (generation " +
             std::to_string(file.generation()) + ", step " +
             std::to_string(step) + ")");
}

void JobScheduler::deliver_output(Job& j) {
  // The data stream returns to the user's qcsh over the Ethernet tree from
  // the partition's rank-0 node, like classic run_job output.
  if (!j.comm || !j.handle || !qd_->valid(*j.handle)) return;
  std::size_t bytes = 64;
  for (const std::string& line : j.output) bytes += line.size();
  bool delivered = false;
  const NodeId origin = j.comm->node_of_rank(0);
  qd_->ethernet().node_to_host(origin, bytes, [&delivered] {
    delivered = true;
  });
  machine_->engine().run_while([&delivered] { return !delivered; });
}

snapshot::SnapshotStore JobScheduler::store_for(const Job& j) const {
  return snapshot::SnapshotStore(cfg_.snapshot_dir,
                                 sanitize_stream(j.spec.name));
}

bool JobScheduler::pump_once() {
  bool progress = false;
  while (static_cast<int>(in_state(JobState::kRunning).size()) <
             cfg_.max_running &&
         try_start_one()) {
    progress = true;
  }
  if (step_one()) return true;
  if (progress) return true;

  // Nothing running or startable.  In-flight submissions arrive on their
  // own schedule; run the engine forward to the earliest arrival.
  Cycle next_arrival = 0;
  bool have_arrival = false;
  for (const auto& [id, j] : jobs_) {
    if (j.state != JobState::kSubmitting) continue;
    if (!have_arrival || j.arrive_at < next_arrival) {
      next_arrival = j.arrive_at;
      have_arrival = true;
    }
  }
  if (have_arrival) {
    machine_->engine().run_until(
        std::max(next_arrival, machine_->engine().now() + 1));
    return true;
  }

  const std::vector<JobId> queued = in_state(JobState::kQueued);
  if (!queued.empty()) {
    // Allocation failed with nothing running to wait for.  A transiently
    // degraded node (counter burst on a freed box) can block placement; a
    // fresh sweep re-baselines the deltas and usually clears it.
    qd_->health().sweep();
    if (try_start_one()) return true;
    Job& j = jobs_.at(pick_fair(queued));
    finish(j, false, fault::JobFailure::kPartitionRevoked,
           "no allocatable partition for box " + j.spec.box.to_string() +
               " (quarantine shrank the pool)");
    return true;
  }
  return false;
}

void JobScheduler::run_until_idle() {
  while (!idle()) {
    if (!pump_once()) break;
  }
}

void JobScheduler::run_for(Cycle duration) {
  sim::Engine& engine = machine_->engine();
  const Cycle end = engine.now() + duration;
  while (engine.now() < end) {
    if (!pump_once()) {
      engine.run_until(end);
    }
  }
}

bool JobScheduler::idle() const {
  for (const auto& [id, j] : jobs_) {
    if (j.state != JobState::kDone && j.state != JobState::kFailed) {
      return false;
    }
  }
  return true;
}

JobStatusInfo JobScheduler::status(JobId id) const {
  JobStatusInfo out;
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return out;
  const Job& j = it->second;
  out.id = j.id;
  out.name = j.spec.name;
  out.user = j.spec.user;
  out.state = j.state;
  out.failure = j.failure;
  out.steps = j.step;
  out.requeues = j.requeues;
  out.migrations = j.migrations;
  out.cycles_run = j.cycles_run;
  out.detail = j.detail;
  out.output = j.output;
  return out;
}

std::vector<JobStatusInfo> JobScheduler::jobs() const {
  std::vector<JobStatusInfo> out;
  for (const auto& [id, j] : jobs_) out.push_back(status(id));
  return out;
}

std::vector<JobEvent> JobScheduler::events_since(JobId id,
                                                 std::size_t* cursor) const {
  std::vector<JobEvent> out;
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return out;
  const std::vector<JobEvent>& ev = it->second.events;
  for (std::size_t i = *cursor; i < ev.size(); ++i) out.push_back(ev[i]);
  *cursor = ev.size();
  return out;
}

}  // namespace qcdoc::host
