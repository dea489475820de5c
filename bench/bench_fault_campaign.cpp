// E14: fault campaigns, health monitoring cost and audit overhead.
//
// Paper Section 4: bring-up lives with marginal links and dead boards; the
// Ethernet/JTAG controller is the path "to monitor and probe a failing
// node".  This bench measures what that machinery costs when nothing is
// wrong (the common case): the cycle price of a whole-machine health sweep,
// a randomized fault soak exercising detection and retraining, and the
// overhead the incremental checksum audit adds to a clean CG solve.
#include <unistd.h>

#include <bit>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>

#include "bench_util.h"
#include "fault/checksum_audit.h"
#include "fault/fault.h"
#include "host/qdaemon.h"
#include "lattice/cg.h"
#include "lattice/rig.h"
#include "lattice/wilson.h"
#include "memsys/scrub.h"
#include "snapshot/machine_state.h"
#include "snapshot/store.h"

using namespace qcdoc;

namespace {

void sweep_cost() {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 2, 2, 2};  // 64 nodes
  machine::Machine m(cfg);
  host::Qdaemon daemon(&m);
  daemon.boot();
  const Cycle before = m.engine().now();
  daemon.health().sweep();
  const Cycle cost = m.engine().now() - before;
  std::printf("health sweep, %d nodes: %llu cycles = %.1f us (%.2f us/node)\n",
              m.num_nodes(), static_cast<unsigned long long>(cost),
              m.microseconds(cost), m.microseconds(cost) / m.num_nodes());
}

void soak() {
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 2, 2, 2};
  machine::Machine m(cfg);
  host::Qdaemon daemon(&m);
  daemon.boot();
  host::HealthConfig hc;
  hc.sweep_period_cycles = 1 << 21;  // ~4 ms at 500 MHz, well above sweep cost
  host::HealthMonitor& monitor = daemon.health(hc);

  fault::FaultInjector injector(&m.mesh());
  const Cycle start = m.engine().now();
  const Cycle horizon = 8 * hc.sweep_period_cycles;
  const auto plan = fault::FaultPlan::random_campaign(
      /*seed=*/7, cfg.shape, /*n=*/12, start, horizon);
  injector.arm(plan);
  // The SCU watchdog rides along in its bounded-affinity sampling mode:
  // per-node sampler events run inside parallel windows, so monitoring
  // does not serialize the soak.
  daemon.watchdog().arm(horizon);
  monitor.monitor_for(horizon);

  std::printf("soak: %llu faults injected over %llu cycles, %llu sweeps, "
              "%llu watchdog checks\n",
              static_cast<unsigned long long>(injector.injected()),
              static_cast<unsigned long long>(horizon),
              static_cast<unsigned long long>(monitor.sweeps()),
              static_cast<unsigned long long>(daemon.watchdog().checks()));
  bench::print_engine(m);
  for (const fault::FaultKind kind :
       {fault::FaultKind::kBerSpike, fault::FaultKind::kLinkDeath,
        fault::FaultKind::kAckDropBurst, fault::FaultKind::kDataCorruption}) {
    const std::string key = std::string("fault.") + fault::to_string(kind);
    std::printf("  %-22s %llu\n", key.c_str(),
                static_cast<unsigned long long>(injector.injected(kind)));
  }
  std::printf("  retrains %llu, nodes quarantined %zu of %d\n",
              static_cast<unsigned long long>(monitor.retrains()),
              daemon.quarantined_nodes().size(), m.num_nodes());
}

struct CgPoint {
  int iterations;
  u64 cycles;
  int restarts;
};

CgPoint solve(bool audited) {
  lattice::SolverRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4});
  lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(41);
  gauge.randomize_near_unit(rng, 0.1);
  lattice::WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                          lattice::WilsonParams{.kappa = 0.12});
  lattice::DistField x = op.make_field("x");
  lattice::DistField b = op.make_field("b");
  x.zero();
  rig.fill_source(b);
  lattice::CgParams params;
  params.tolerance = 1e-8;
  params.max_iterations = 400;
  lattice::CgResult r;
  if (audited) {
    fault::ChecksumAuditor auditor(&rig.machine().mesh());
    lattice::CgAuditParams audit;
    audit.clean = [&] { return auditor.clean_since_last(); };
    audit.interval = 5;
    r = lattice::cg_solve_audited(op, x, b, params, audit);
  } else {
    r = lattice::cg_solve(op, x, b, params);
  }
  return CgPoint{r.iterations, static_cast<u64>(r.cycles), r.restarts};
}

// --- memory-fault class: upset rate vs CG cost and scrub overhead ----------

struct MemPoint {
  int planned = 0;
  int iterations = 0;
  u64 cycles = 0;
  int restarts = 0;
  u64 mem_checks = 0;
  memsys::EccCounters ecc;
};

// One audited CG solve under `planned` entropy-addressed memory upsets
// (a small fraction uncorrectable), with the background scrubber running
// whenever upsets are planned.  Memory is shrunk so the scrub cursor laps
// the whole address space several times within the solve.
MemPoint mem_solve(int planned) {
  machine::MachineConfig cfg;
  cfg.mem.edram_words = 1 << 15;
  cfg.mem.ddr_words = 1 << 16;
  lattice::SolverRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4}, cfg);
  machine::Machine& m = rig.machine();
  lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(41);
  gauge.randomize_near_unit(rng, 0.1);
  lattice::WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                          lattice::WilsonParams{.kappa = 0.12});
  lattice::DistField x = op.make_field("x");
  lattice::DistField b = op.make_field("b");
  x.zero();
  rig.fill_source(b);

  fault::FaultInjector injector(&m.mesh());
  fault::MemCheckAuditor mem_auditor(&m.mesh());
  if (planned > 0) {
    memsys::ScrubConfig scrub;
    scrub.rows_per_period = 1024;  // full lap every ~18 bursts, 12.5% budget
    m.start_memory_scrubbers(scrub);
    injector.arm(fault::FaultPlan::sustained_mem_upsets(
        /*seed=*/17, m.config().shape, planned, m.engine().now(),
        /*horizon=*/1 << 20, /*uncorrectable_fraction=*/0.05));
  }

  lattice::CgParams params;
  params.tolerance = 1e-8;
  params.max_iterations = 400;
  lattice::CgAuditParams audit;
  audit.mem_clean = [&] { return mem_auditor.clean_since_last(); };
  audit.interval = 5;
  const lattice::CgResult r = lattice::cg_solve_audited(op, x, b, params, audit);

  MemPoint p;
  p.planned = planned;
  p.iterations = r.iterations;
  p.cycles = static_cast<u64>(r.cycles);
  p.restarts = r.restarts;
  p.mem_checks = r.mem_checks;
  p.ecc = m.mesh().total_ecc();
  std::printf("%s\n", perf::format_mem_resilience_report(m).c_str());
  return p;
}

void mem_fault_class(std::vector<perf::Row>& rows) {
  std::printf("memory-fault class: upset count vs audited-CG cost\n");
  std::vector<MemPoint> points;
  for (const int planned : {0, 8, 32, 128}) {
    points.push_back(mem_solve(planned));
  }
  // scrub_cycles is summed over every node; divide by machine size to get
  // the per-node fraction of the solve each scrubber spent sweeping.
  const double nodes = 4.0;
  for (const MemPoint& p : points) {
    const double scrub_frac =
        p.cycles > 0
            ? static_cast<double>(p.ecc.scrub_cycles) / (nodes * p.cycles)
            : 0.0;
    std::printf(
        "{\"mem_fault_point\": {\"planned\": %d, \"upsets\": %llu, "
        "\"corrected\": %llu, \"uncorrectable\": %llu, \"mem_checks\": %llu, "
        "\"restarts\": %d, \"iterations\": %d, \"cycles\": %llu, "
        "\"scrub_rows\": %llu, \"scrub_occupancy\": %.6f}}\n",
        p.planned, static_cast<unsigned long long>(p.ecc.upsets),
        static_cast<unsigned long long>(p.ecc.corrected),
        static_cast<unsigned long long>(p.ecc.uncorrectable),
        static_cast<unsigned long long>(p.mem_checks), p.restarts,
        p.iterations, static_cast<unsigned long long>(p.cycles),
        static_cast<unsigned long long>(p.ecc.scrub_rows), scrub_frac);
  }
  const MemPoint& clean = points.front();
  const MemPoint& worst = points.back();
  const double cycle_overhead =
      clean.cycles > 0
          ? 100.0 * (static_cast<double>(worst.cycles) / clean.cycles - 1.0)
          : 0.0;
  rows.push_back({"E14", "CG cycle overhead at 128 upsets", 0, cycle_overhead,
                  "% vs clean"});
  rows.push_back({"E14", "machine-check rollbacks at 128 upsets", 0,
                  static_cast<double>(worst.restarts), "restarts"});
  rows.push_back({"E14", "scrub occupancy at 128 upsets", 0,
                  worst.cycles > 0 ? 100.0 *
                                         static_cast<double>(
                                             worst.ecc.scrub_cycles) /
                                         (nodes * worst.cycles)
                                   : 0.0,
                  "% of node cycles"});
}

// --- checkpoint class: cadence, size, write latency and restart recovery ---

u64 field_fnv(const lattice::DistField& f) {
  u64 h = sim::detail::kFnvOffset;
  for (int r = 0; r < f.ranks(); ++r) {
    for (const double v : f.data(r)) {
      h = sim::detail::fnv1a(h, std::bit_cast<u64>(v));
    }
  }
  return h;
}

constexpr int kCkptInterval = 5;

struct CkptPoint {
  const char* scenario = "";
  bool write_failed = false;  ///< a capture or save lost a generation
  int checkpoints = 0;
  u64 bytes_last = 0;
  double write_ms_mean = 0;
  double write_ms_max = 0;
  int iterations = 0;
  u64 cycles = 0;
  int restarts = 0;
  u64 mem_checks = 0;
  u64 final_fnv = 0;
};

/// The shrunk-memory machine config shared by the writer and the resuming
/// process -- restore verifies these sizes match the snapshot's.
machine::MachineConfig ckpt_config() {
  machine::MachineConfig cfg;
  cfg.mem.edram_words = 1 << 15;
  cfg.mem.ddr_words = 1 << 16;
  return cfg;
}

/// One audited CG solve under `planned` memory upsets with a generation
/// committed at every clean checkpoint, timing each two-phase write.
CkptPoint checkpoint_solve(const char* scenario, int planned,
                           const std::string& dir) {
  lattice::SolverRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4}, ckpt_config());
  machine::Machine& m = rig.machine();
  lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(41);
  gauge.randomize_near_unit(rng, 0.1);
  lattice::WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                          lattice::WilsonParams{.kappa = 0.12});
  lattice::DistField x = op.make_field("x");
  lattice::DistField b = op.make_field("b");
  x.zero();
  rig.fill_source(b);

  fault::FaultInjector injector(&m.mesh());
  fault::MemCheckAuditor mem_auditor(&m.mesh());
  if (planned > 0) {
    memsys::ScrubConfig scrub;
    scrub.rows_per_period = 1024;
    m.start_memory_scrubbers(scrub);
    injector.arm(fault::FaultPlan::sustained_mem_upsets(
        /*seed=*/17, m.config().shape, planned, m.engine().now(),
        /*horizon=*/1 << 20, /*uncorrectable_fraction=*/0.05));
  }
  snapshot::MachineExtras extras;
  extras.mem_auditor = &mem_auditor;
  extras.injector = &injector;
  snapshot::SnapshotStore store(dir, "bench");

  CkptPoint point;
  point.scenario = scenario;
  lattice::CgParams params;
  params.tolerance = 1e-8;
  params.max_iterations = 400;
  lattice::CgAuditParams audit;
  audit.mem_clean = [&] { return mem_auditor.clean_since_last(); };
  audit.interval = kCkptInterval;
  audit.on_checkpoint = [&](const lattice::CgCheckpoint& ck) {
    snapshot::SnapshotFile file;
    if (snapshot::Status s = snapshot::capture_machine(m, extras, &file); !s) {
      std::printf("  checkpoint capture failed: %s\n", s.reason.c_str());
      point.write_failed = true;
      return;
    }
    lattice::encode_checkpoint(ck, &file);
    const auto t0 = std::chrono::steady_clock::now();
    if (snapshot::Status s = store.save(&file); !s) {
      std::printf("  checkpoint save failed: %s\n", s.reason.c_str());
      point.write_failed = true;
      return;
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    point.checkpoints += 1;
    point.write_ms_mean += ms;  // sum here; divided once below
    point.write_ms_max = std::max(point.write_ms_max, ms);
    point.bytes_last = store.list().back().bytes;
  };
  const lattice::CgResult r = lattice::cg_solve_audited(op, x, b, params, audit);
  if (point.checkpoints > 0) point.write_ms_mean /= point.checkpoints;
  point.iterations = r.iterations;
  point.cycles = static_cast<u64>(r.cycles);
  point.restarts = r.restarts;
  point.mem_checks = r.mem_checks;
  point.final_fnv = field_fnv(x);
  return point;
}

struct RestartPoint {
  bool ok = false;
  u64 recovered_generation = 0;
  double restore_ms = 0;
  int iterations = 0;
  u64 final_fnv = 0;
};

/// Process-restart leg: replay the writer's construction in a fresh machine,
/// restore the newest generation and finish the solve from the checkpoint.
RestartPoint restart_solve(const std::string& dir) {
  RestartPoint point;
  lattice::SolverRig rig({2, 2, 1, 1, 1, 1}, {4, 4, 4, 4}, ckpt_config());
  machine::Machine& m = rig.machine();
  lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(41);
  gauge.randomize_near_unit(rng, 0.1);
  lattice::WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge,
                          lattice::WilsonParams{.kappa = 0.12});
  lattice::DistField x = op.make_field("x");
  lattice::DistField b = op.make_field("b");
  x.zero();
  rig.fill_source(b);
  lattice::CgWorkspace ws = lattice::CgWorkspace::make(op);

  fault::FaultInjector injector(&m.mesh());
  fault::MemCheckAuditor mem_auditor(&m.mesh());
  snapshot::MachineExtras extras;
  extras.mem_auditor = &mem_auditor;
  extras.injector = &injector;

  snapshot::SnapshotStore store(dir, "bench");
  snapshot::SnapshotFile file;
  lattice::CgCheckpoint ck;
  const auto t0 = std::chrono::steady_clock::now();
  if (snapshot::Status s = store.load_latest(&file); !s) {
    std::printf("  restart load failed: %s\n", s.reason.c_str());
    return point;
  }
  if (snapshot::Status s = snapshot::restore_machine(m, extras, file); !s) {
    std::printf("  restart restore failed: %s\n", s.reason.c_str());
    return point;
  }
  if (snapshot::Status s = lattice::decode_checkpoint(file, &ck); !s) {
    std::printf("  restart solver decode failed: %s\n", s.reason.c_str());
    return point;
  }
  point.restore_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  point.recovered_generation = file.generation();

  lattice::CgParams params;
  params.tolerance = 1e-8;
  params.max_iterations = 400;
  lattice::CgAuditParams audit;
  audit.mem_clean = [&] { return mem_auditor.clean_since_last(); };
  audit.interval = kCkptInterval;
  audit.workspace = &ws;
  audit.resume = &ck;
  const lattice::CgResult r = lattice::cg_solve_audited(op, x, b, params, audit);
  point.ok = true;
  point.iterations = r.iterations;
  point.final_fnv = field_fnv(x);
  return point;
}

/// Returns false when a generation failed to write or the restart leg could
/// not load one.
bool checkpoint_class(std::vector<perf::Row>& rows) {
  std::printf("checkpoint class: cadence, snapshot size and write latency\n");
  std::vector<CkptPoint> points;
  bool ok = true;
  for (const auto& [scenario, planned] :
       {std::pair<const char*, int>{"clean", 0}, {"mem_upset_restart", 128}}) {
    // Per process, so concurrent runs never delete each other's generations.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         (std::string("qcdoc_bench_ckpt_") + scenario + "_" +
          std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    points.push_back(checkpoint_solve(scenario, planned, dir));
    const CkptPoint& p = points.back();
    ok = ok && !p.write_failed;
    std::printf(
        "{\"checkpoint_point\": {\"scenario\": \"%s\", \"interval_iters\": %d, "
        "\"checkpoints\": %d, \"snapshot_bytes\": %llu, "
        "\"write_ms_mean\": %.3f, \"write_ms_max\": %.3f, "
        "\"iterations\": %d, \"cycles\": %llu, \"restarts\": %d, "
        "\"mem_checks\": %llu}}\n",
        p.scenario, kCkptInterval, p.checkpoints,
        static_cast<unsigned long long>(p.bytes_last), p.write_ms_mean,
        p.write_ms_max, p.iterations,
        static_cast<unsigned long long>(p.cycles), p.restarts,
        static_cast<unsigned long long>(p.mem_checks));

    if (planned > 0) {
      // The restart leg: recover from the newest generation in a replayed
      // process and finish the solve.  Bit-exactness means the recovered
      // trajectory lands on the writer's exact solution field.
      const RestartPoint rp = restart_solve(dir);
      const bool bit_exact = rp.ok && rp.final_fnv == p.final_fnv;
      std::printf(
          "{\"checkpoint_restart\": {\"scenario\": \"%s\", "
          "\"recovered_generation\": %llu, \"restore_ms\": %.3f, "
          "\"iterations\": %d, \"bit_exact\": %s}}\n",
          p.scenario, static_cast<unsigned long long>(rp.recovered_generation),
          rp.restore_ms, rp.iterations, bit_exact ? "true" : "false");
      rows.push_back({"E14", "restart resume bit-exact", 0,
                      bit_exact ? 1.0 : 0.0, "1=yes"});
      ok = ok && rp.ok;
    }
    std::filesystem::remove_all(dir);
  }
  const CkptPoint& upset = points.back();
  rows.push_back({"E14", "snapshot size under mem upsets", 0,
                  static_cast<double>(upset.bytes_last) / (1024.0 * 1024.0),
                  "MB"});
  rows.push_back({"E14", "checkpoint write latency (mean)", 0,
                  upset.write_ms_mean, "ms"});
  return ok;
}

}  // namespace

int main() {
  bench::print_header(
      "E14: bench_fault_campaign -- health monitoring and audit overhead",
      "Ethernet/JTAG monitors and probes failing nodes; link checksums "
      "confirm no erroneous data was exchanged");

  sweep_cost();
  std::printf("\n");
  soak();
  std::printf("\n");

  const CgPoint plain = solve(false);
  const CgPoint audited = solve(true);
  const double overhead =
      100.0 * (static_cast<double>(audited.cycles) / plain.cycles - 1.0);
  std::printf("CG without faults: plain %d iters / %llu cycles, audited %d "
              "iters / %llu cycles\n",
              plain.iterations, static_cast<unsigned long long>(plain.cycles),
              audited.iterations,
              static_cast<unsigned long long>(audited.cycles));

  std::vector<perf::Row> rows = {
      {"E14", "audited-CG machine-cycle overhead", 0, overhead, "% vs plain"},
      {"E14", "spurious restarts without faults", 0,
       static_cast<double>(audited.restarts), "restarts"},
  };
  std::printf("\n");
  mem_fault_class(rows);
  std::printf("\n");
  const bool checkpoints_ok = checkpoint_class(rows);
  bench::print_rows(rows);
  return checkpoints_ok ? 0 : 1;
}
