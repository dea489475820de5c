// Performance reporting: sustained efficiency, price/performance, and
// paper-versus-measured comparison rows shared by the benches and
// EXPERIMENTS.md generation.
#pragma once

#include <string>
#include <vector>

#include "host/scheduler.h"
#include "lattice/cg.h"
#include "lattice/linalg.h"
#include "machine/cost.h"
#include "machine/machine.h"
#include "sim/engine.h"

namespace qcdoc::perf {

/// One paper-vs-measured comparison line.
struct Row {
  std::string experiment;
  std::string quantity;
  double paper_value = 0;
  double measured_value = 0;
  std::string unit;
};

/// Render rows as an aligned text table.
std::string format_table(const std::vector<Row>& rows);

/// One-line summary of how hard the simulation engine worked: thread count,
/// lookahead, events, slice counts (parallel windows / single-shard
/// fast-forwards / host slices), cross-shard schedules, peak pending depth,
/// and the per-shard event spread.  The default line carries only
/// deterministic counters so bench and example output stays bit-identical
/// run to run; pass `wall_clock = true` to append a second line with the
/// timing-dependent diagnostics (barrier stall seconds and the barrier-wait
/// histogram).
std::string format_engine_report(const sim::EngineReport& r,
                                 bool wall_clock = false);

/// Per-precision flop/byte table for one solve: Mflops, load/store Mbytes,
/// EDRAM/DDR residency split and arithmetic intensity per storage
/// precision, plus a total line.  Buckets with no traffic are omitted, so
/// an all-double solve prints two lines and a mixed half solve shows
/// exactly where the narrow bytes went.
std::string format_traffic_report(const lattice::TrafficByPrecision& t);

/// One-line summary of the machine's memory-resilience counters, summed
/// over every node: upsets injected, ECC corrections, rewrite clears,
/// uncorrectable codewords (machine checks), and scrub work done.
std::string format_mem_resilience_report(machine::Machine& m);

/// Multi-line summary of a scheduler run: submission/admission counters
/// (accepted and each typed rejection), completion/failure totals, re-queue
/// and migration counts, and p50/p99 time-to-boot split into cold and warm
/// (image-cache hit) starts.  Deterministic counters only, so bench output
/// stays bit-identical run to run.
std::string format_scheduler_report(const host::SchedulerReport& r);

/// Machine peak in flops per cycle (nodes x 2).
double machine_peak_flops_per_cycle(const machine::Machine& m);

/// Efficiency of a CG run on a machine.
double cg_efficiency(const machine::Machine& m, const lattice::CgResult& r);

/// Sustained Mflops of a CG run (whole machine).
double cg_sustained_mflops(const machine::Machine& m,
                           const lattice::CgResult& r);

/// Dollars per sustained Mflops of a machine running at `efficiency`.
double price_per_mflops(const machine::Machine& m, double efficiency,
                        const machine::CostModel& cost = machine::CostModel{});

}  // namespace qcdoc::perf
