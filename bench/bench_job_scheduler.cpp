// E15: multi-tenant job-scheduler storm -- admission control, fair-share,
// boot-image caching and quarantine-driven migration under load.
//
// Paper Section 3.1: the qdaemon "allows several users to have simultaneous
// access to the machine" with partitions handed out by the administrators.
// This bench scales that service up: a storm of small jobs from several
// tenants is thrown at the scheduler faster than it can drain, clients ride
// the typed backpressure with exponential backoff, and mid-run two jobs
// quarantine nodes under their own partitions, forcing checkpoint
// migrations.  Gates (exit 1 on failure): every accepted job completes,
// zero lost or duplicated results, every job's digest is bit-exact against
// an unfaulted reference run, at least one migration happened, and the p99
// warm (image-cache hit) time-to-boot beats cold by at least 2x.
#include <bit>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "host/qcsh.h"
#include "snapshot/bytes.h"

using namespace qcdoc;

namespace {

constexpr int kJobs = 96;     // >= 64 queued across the storm
constexpr int kTenants = 5;   // >= 4 tenants
constexpr int kImages = 3;    // shared images exercise the boot cache

struct StepperState {
  u64 acc = sim::detail::kFnvOffset;
  bool live = false;
};

/// One deterministic digest job: every step folds a partition-wide global
/// sum keyed by (job, step, rank) into a running FNV, carried across
/// migrations through the checkpoint.  The digest depends only on the
/// logical partition shape, never on which machine box it occupied.
host::JobSpec make_job(int idx, machine::Machine* m, host::Qdaemon* qd,
                       std::map<std::string, u64>* digests, bool inject) {
  host::JobSpec spec;
  spec.name = "j" + std::to_string(idx);
  spec.user = "tenant" + std::to_string(idx % kTenants);
  spec.image = "app" + std::to_string(idx % kImages) + ".elf";
  spec.box = torus::Shape{{2, 2, 1, 1, 1, 1}};
  spec.logical_dims = 2;
  const int steps = 4 + idx % 5;
  // Two jobs sabotage their own partitions mid-run: the quarantine revokes
  // the handle and the scheduler must checkpoint-migrate them.
  const bool trigger = inject && (idx == 13 || idx == 37);
  auto state = std::make_shared<StepperState>();
  const std::string name = spec.name;
  spec.body = [=, &sched_digests = *digests](host::JobContext& ctx)
      -> host::StepStatus {
    if (ctx.resume != nullptr) {
      snapshot::ByteSource src(*ctx.resume, "bench checkpoint");
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
      return host::StepStatus::kError;  // checkpoint chain broke
    }
    if (trigger && static_cast<int>(ctx.step) == 2) {
      qd->quarantine_node(ctx.partition->nodes()[0]);
    }
    const int ranks = ctx.partition->num_nodes();
    std::vector<double> contrib(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      contrib[static_cast<std::size_t>(r)] =
          1.0 / static_cast<double>(1 + r + 3 * static_cast<int>(ctx.step) +
                                    7 * idx);
    }
    const auto sum = ctx.comm->global_sum(contrib);
    m->engine().run_until(m->engine().now() + sum.cycles);
    state->acc = sim::detail::fnv1a(state->acc, std::bit_cast<u64>(sum.value));
    if (static_cast<int>(ctx.step) + 1 >= steps) {
      sched_digests[name] = state->acc;
      ctx.output->push_back("digest " + std::to_string(state->acc));
      return host::StepStatus::kDone;
    }
    snapshot::ByteSink sink;
    sink.put_u64(ctx.step + 1);
    sink.put_u64(state->acc);
    ctx.checkpoint = sink.take();
    return host::StepStatus::kYield;
  };
  return spec;
}

struct CampaignResult {
  std::map<std::string, u64> digests;  ///< one entry per completed job
  host::SchedulerReport report;
  int accepted = 0;
  int done = 0;
  int output_lines = 0;
  double wall_seconds = 0;
  Cycle end_cycle = 0;
};

CampaignResult run_campaign(bool inject_quarantine) {
  CampaignResult res;
  machine::MachineConfig mcfg;
  mcfg.shape.extent = {4, 4, 2, 1, 1, 1};  // 32 nodes = 8 2x2 boxes
  machine::Machine m(mcfg);
  host::Qdaemon qd(&m);
  qd.boot();

  host::SchedulerConfig cfg;
  cfg.max_queued = 24;
  cfg.max_queued_per_user = 8;
  cfg.max_running = 4;
  host::JobScheduler sched(&qd, cfg);
  sched.set_share("tenant0", 2.0);  // one premium tenant in the mix

  const auto t0 = std::chrono::steady_clock::now();
  host::RetryPolicy policy;
  policy.base_delay_cycles = 4096;
  policy.max_attempts = 12;
  Rng rng(2026);
  std::vector<host::JobId> ids;
  for (int j = 0; j < kJobs; ++j) {
    const auto out = host::submit_with_retry(
        sched,
        make_job(j, &m, &qd, &res.digests, inject_quarantine), policy, rng);
    if (out.accepted) {
      ++res.accepted;
      ids.push_back(out.id);
    } else {
      std::printf("  submission j%d gave up: %s\n", j, out.detail.c_str());
    }
  }
  sched.run_until_idle();
  res.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

  for (const host::JobId id : ids) {
    const host::JobStatusInfo st = sched.status(id);
    if (st.state == host::JobState::kDone) ++res.done;
    res.output_lines += static_cast<int>(st.output.size());
  }
  res.report = sched.report();
  res.end_cycle = m.engine().now();
  std::printf("%s\n", perf::format_scheduler_report(sched.report()).c_str());
  bench::print_engine(m);
  return res;
}

void write_json(const char* path, const CampaignResult& r, double jobs_per_sec,
                bool gates_ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"scheduler\",\n");
  std::fprintf(f, "  \"bench_env\": {\"sanitizer\": \"%s\"},\n",
               bench::sanitizer_tag());
  std::fprintf(f, "  \"jobs\": %d,\n", kJobs);
  std::fprintf(f, "  \"tenants\": %d,\n", kTenants);
  std::fprintf(f, "  \"accepted\": %d,\n", r.accepted);
  std::fprintf(f, "  \"completed\": %llu,\n",
               static_cast<unsigned long long>(r.report.completed));
  std::fprintf(f, "  \"rejections_queue_full\": %llu,\n",
               static_cast<unsigned long long>(r.report.rejected_queue_full));
  std::fprintf(f, "  \"rejections_quota\": %llu,\n",
               static_cast<unsigned long long>(r.report.rejected_quota));
  std::fprintf(f, "  \"migrations\": %llu,\n",
               static_cast<unsigned long long>(r.report.migrations));
  std::fprintf(f, "  \"jobs_per_sec\": %.1f,\n", jobs_per_sec);
  std::fprintf(f, "  \"time_to_boot_cycles\": {\n");
  std::fprintf(f, "    \"cold_n\": %zu, \"cold_p50\": %llu, \"cold_p99\": %llu,\n",
               r.report.cold_boot_cycles.size(),
               static_cast<unsigned long long>(
                   perf::percentile(r.report.cold_boot_cycles, 0.5)),
               static_cast<unsigned long long>(
                   perf::percentile(r.report.cold_boot_cycles, 0.99)));
  std::fprintf(f, "    \"warm_n\": %zu, \"warm_p50\": %llu, \"warm_p99\": %llu\n",
               r.report.warm_boot_cycles.size(),
               static_cast<unsigned long long>(
                   perf::percentile(r.report.warm_boot_cycles, 0.5)),
               static_cast<unsigned long long>(
                   perf::percentile(r.report.warm_boot_cycles, 0.99)));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"gates_ok\": %s\n", gates_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

bool gate(bool ok, const char* what) {
  std::printf("gate %-46s %s\n", what, ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_scheduler.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  bench::print_header(
      "E15: bench_job_scheduler -- multi-tenant storm with migration",
      "the qdaemon allows several users to have simultaneous access to "
      "the machine");

  std::printf("reference (unfaulted) campaign:\n");
  const CampaignResult ref = run_campaign(/*inject_quarantine=*/false);
  std::printf("\nfaulted campaign (quarantine mid-run):\n");
  const CampaignResult got = run_campaign(/*inject_quarantine=*/true);

  // Per-job bit-exactness: every digest from the faulted run (including the
  // migrated jobs, which finished on different boxes than they started on)
  // must equal the unfaulted reference.
  int mismatched = 0;
  for (const auto& [name, bits] : ref.digests) {
    const auto it = got.digests.find(name);
    if (it == got.digests.end() || it->second != bits) ++mismatched;
  }

  const u64 cold_p99 = perf::percentile(got.report.cold_boot_cycles, 0.99);
  const u64 warm_p99 = perf::percentile(got.report.warm_boot_cycles, 0.99);

  std::printf("\n");
  bool ok = true;
  ok &= gate(ref.accepted == kJobs && got.accepted == kJobs,
             "every submission eventually accepted");
  ok &= gate(got.done == got.accepted, "every accepted job completed");
  ok &= gate(static_cast<int>(got.digests.size()) == kJobs &&
                 got.output_lines == kJobs,
             "zero lost or duplicated results");
  ok &= gate(mismatched == 0, "migrated digests bit-exact vs unfaulted");
  ok &= gate(got.report.migrations >= 1, "quarantine forced a migration");
  ok &= gate(got.report.rejected_queue_full + got.report.rejected_quota > 0,
             "storm actually hit the admission bound");
  ok &= gate(warm_p99 > 0 && cold_p99 >= 2 * warm_p99,
             "warm p99 time-to-boot >= 2x better than cold");

  const double jobs_per_sec =
      got.wall_seconds > 0 ? got.done / got.wall_seconds : 0.0;
  write_json(json_path, got, jobs_per_sec, ok);

  std::vector<perf::Row> rows = {
      {"E15", "jobs completed", kJobs, static_cast<double>(got.done), "jobs"},
      {"E15", "migrations", 0, static_cast<double>(got.report.migrations),
       "jobs"},
      {"E15", "cold p99 time-to-boot", 0, static_cast<double>(cold_p99),
       "cycles"},
      {"E15", "warm p99 time-to-boot", 0, static_cast<double>(warm_p99),
       "cycles"},
      {"E15", "cold/warm p99 ratio", 2.0,
       warm_p99 > 0 ? static_cast<double>(cold_p99) / warm_p99 : 0.0, "x"},
  };
  bench::print_rows(rows);
  return ok ? 0 : 1;
}
