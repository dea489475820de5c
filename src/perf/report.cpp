#include "perf/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "cpu/timing.h"

namespace qcdoc::perf {

std::string format_table(const std::vector<Row>& rows) {
  std::ostringstream out;
  std::size_t w_exp = 10, w_qty = 8;
  for (const auto& r : rows) {
    w_exp = std::max(w_exp, r.experiment.size());
    w_qty = std::max(w_qty, r.quantity.size());
  }
  char line[512];
  std::snprintf(line, sizeof(line), "%-*s  %-*s  %12s  %12s  %-10s\n",
                static_cast<int>(w_exp), "experiment", static_cast<int>(w_qty),
                "quantity", "paper", "measured", "unit");
  out << line;
  for (const auto& r : rows) {
    std::snprintf(line, sizeof(line), "%-*s  %-*s  %12.4g  %12.4g  %-10s\n",
                  static_cast<int>(w_exp), r.experiment.c_str(),
                  static_cast<int>(w_qty), r.quantity.c_str(), r.paper_value,
                  r.measured_value, r.unit.c_str());
    out << line;
  }
  return out.str();
}

std::string format_engine_report(const sim::EngineReport& r,
                                 bool wall_clock) {
  char line[512];
  u64 min_shard = ~u64{0}, max_shard = 0;
  for (const u64 e : r.shard_events) {
    min_shard = std::min(min_shard, e);
    max_shard = std::max(max_shard, e);
  }
  if (r.shard_events.empty()) min_shard = 0;
  // Deliberately no wall-clock figures on the first line: it goes into
  // example and bench output that must be bit-identical run to run.  The
  // timing-dependent diagnostics (barrier stall, wait histogram) only appear
  // on the opt-in wall_clock line.
  std::snprintf(line, sizeof(line),
                "engine: %d thread%s, lookahead %llu cycles, "
                "%llu events (shards %llu..%llu), windows %llu par / %llu "
                "ff / %llu host, %llu cross-shard, peak pending %llu",
                r.threads, r.threads == 1 ? "" : "s",
                static_cast<unsigned long long>(r.lookahead),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(min_shard),
                static_cast<unsigned long long>(max_shard),
                static_cast<unsigned long long>(r.windows_parallel),
                static_cast<unsigned long long>(r.windows_serial),
                static_cast<unsigned long long>(r.windows_host),
                static_cast<unsigned long long>(r.cross_shard_events),
                static_cast<unsigned long long>(r.peak_pending_events));
  std::string out = line;
  if (wall_clock) {
    std::snprintf(line, sizeof(line),
                  "\nengine wall clock: %.2fs barrier stall, waits",
                  r.barrier_stall_seconds);
    out += line;
    // Histogram bucket 0 is "no wait"; bucket k >= 1 covers waits of
    // [2^(k-1), 2^k) microseconds, with the last bucket open-ended.
    for (std::size_t b = 0; b < r.barrier_wait_hist.size(); ++b) {
      std::snprintf(line, sizeof(line), " %llu",
                    static_cast<unsigned long long>(r.barrier_wait_hist[b]));
      out += line;
    }
  }
  return out;
}

std::string format_traffic_report(const lattice::TrafficByPrecision& t) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-9s %12s %12s %12s %8s %8s %8s\n",
                "precision", "Mflop", "load MB", "store MB", "edram%", "ddr%",
                "flop/B");
  out << line;
  lattice::PrecisionTraffic total;
  for (int i = 0; i < lattice::kNumPrecisions; ++i) {
    const lattice::PrecisionTraffic& p = t[static_cast<std::size_t>(i)];
    total += p;
    if (p.flops == 0 && p.bytes() == 0) continue;
    const double placed = p.edram_bytes + p.ddr_bytes;
    std::snprintf(line, sizeof(line),
                  "%-9s %12.2f %12.2f %12.2f %8.1f %8.1f %8.2f\n",
                  lattice::precision_name(static_cast<lattice::Precision>(i)),
                  p.flops / 1e6, p.load_bytes / 1e6, p.store_bytes / 1e6,
                  placed > 0 ? 100.0 * p.edram_bytes / placed : 0.0,
                  placed > 0 ? 100.0 * p.ddr_bytes / placed : 0.0,
                  p.bytes() > 0 ? p.flops / p.bytes() : 0.0);
    out << line;
  }
  const double placed = total.edram_bytes + total.ddr_bytes;
  std::snprintf(line, sizeof(line),
                "%-9s %12.2f %12.2f %12.2f %8.1f %8.1f %8.2f\n", "total",
                total.flops / 1e6, total.load_bytes / 1e6,
                total.store_bytes / 1e6,
                placed > 0 ? 100.0 * total.edram_bytes / placed : 0.0,
                placed > 0 ? 100.0 * total.ddr_bytes / placed : 0.0,
                total.bytes() > 0 ? total.flops / total.bytes() : 0.0);
  out << line;
  return out.str();
}

std::string format_mem_resilience_report(machine::Machine& m) {
  const memsys::EccCounters c = m.mesh().total_ecc();
  char line[256];
  std::snprintf(line, sizeof(line),
                "memory: %llu upsets, %llu corrected, %llu cleared by "
                "rewrite, %llu uncorrectable, scrub %llu rows / %llu cycles",
                static_cast<unsigned long long>(c.upsets),
                static_cast<unsigned long long>(c.corrected),
                static_cast<unsigned long long>(c.cleared_by_rewrite),
                static_cast<unsigned long long>(c.uncorrectable),
                static_cast<unsigned long long>(c.scrub_rows),
                static_cast<unsigned long long>(c.scrub_cycles));
  return line;
}

Cycle percentile(std::vector<Cycle> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

std::string format_scheduler_report(const host::SchedulerReport& r) {
  std::ostringstream out;
  out << "scheduler: " << r.submitted << " submitted, " << r.accepted
      << " accepted, rejections queue_full=" << r.rejected_queue_full
      << " quota=" << r.rejected_quota
      << " bad_request=" << r.rejected_bad_request << "\n";
  out << "  " << r.completed << " completed, " << r.failed << " failed, "
      << r.requeues << " requeues, " << r.migrations << " migrations\n";
  out << "  time-to-boot cold: n=" << r.cold_boot_cycles.size() << " p50="
      << percentile(r.cold_boot_cycles, 0.5) << " p99="
      << percentile(r.cold_boot_cycles, 0.99) << " cycles\n";
  out << "  time-to-boot warm: n=" << r.warm_boot_cycles.size() << " p50="
      << percentile(r.warm_boot_cycles, 0.5) << " p99="
      << percentile(r.warm_boot_cycles, 0.99) << " cycles";
  return out.str();
}

double machine_peak_flops_per_cycle(const machine::Machine& m) {
  return static_cast<double>(m.num_nodes()) * cpu::kFlopsPerCycle;
}

double cg_efficiency(const machine::Machine& m, const lattice::CgResult& r) {
  return r.efficiency(machine_peak_flops_per_cycle(m));
}

double cg_sustained_mflops(const machine::Machine& m,
                           const lattice::CgResult& r) {
  const double seconds = m.seconds(r.cycles);
  return seconds > 0 ? r.flops / seconds / 1e6 : 0.0;
}

}  // namespace qcdoc::perf
