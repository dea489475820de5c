// E7: hard scaling of a fixed-size problem, QCDOC mesh vs commodity
// cluster.
//
// Paper Section 1: "low latency is also vital if a problem of a fixed size
// is to be run on a machine with tens of thousands of nodes, since adding
// more nodes generally increases the ratio of inter-node communication to
// local floating point operations ... commercial cluster solutions have
// limitations for QCD, since one cannot achieve the required low-latency
// communications with commodity hardware."
//
// A fixed 8^4 lattice is spread over 16..256 nodes: local volumes shrink from the paper's
// 4^4 down to 2^4, the regime the network was designed for.  The QCDOC line comes
// from the packet-level simulation; the cluster line gives the same nodes
// the paper's commodity network (7.5 us message start, GigE bandwidth,
// log-tree allreduce) on identical compute.
#include <chrono>
#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "lattice/cg.h"
#include "lattice/rig.h"
#include "lattice/wilson.h"
#include "net/cluster_net.h"
#include "torus/partition.h"

using namespace qcdoc;
using namespace qcdoc::lattice;

namespace {

struct ScalePoint {
  int nodes;
  double qcdoc_ms_per_iter;
  double qcdoc_efficiency;
  double qcdoc_comm_fraction;
  double cluster_ms_per_iter;
};

ScalePoint run(std::array<int, 6> shape) {
  const Coord4 global{8, 8, 8, 8};
  SolverRig rig(shape, global);
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(7);
  gauge.randomize_near_unit(rng, 0.15);
  WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge, WilsonParams{});
  DistField x = op.make_field("x");
  DistField b = op.make_field("b");
  x.zero();
  rig.fill_source(b);
  CgParams params;
  params.fixed_iterations = 3;
  const CgResult r = cg_solve(op, x, b, params);

  ScalePoint pt;
  pt.nodes = rig.m->num_nodes();
  pt.qcdoc_ms_per_iter =
      rig.m->seconds(r.cycles) * 1e3 / params.fixed_iterations;
  pt.qcdoc_efficiency = perf::cg_efficiency(*rig.m, r);
  pt.qcdoc_comm_fraction =
      (r.comm_cycles + r.global_cycles) / static_cast<double>(r.cycles);

  // Cluster model: identical compute cycles, commodity communication.
  const double clock_hz = rig.m->config().clock_hz;
  const net::ClusterNet cluster(clock_hz);
  // Per iteration: 2 halo exchanges (8 messages each) + 2 allreduces.
  int distributed_dims = 0;
  double face_bytes = 0;
  for (int mu = 0; mu < kNd; ++mu) {
    if (rig.geom->nodes_in_dim(mu) > 1) {
      ++distributed_dims;
      face_bytes += rig.geom->local().face_volume(mu) * 96.0;
    }
  }
  const double avg_face =
      distributed_dims > 0 ? face_bytes / distributed_dims : 0;
  const Cycle comm_per_iter =
      2 * cluster.halo_exchange_cycles(2 * distributed_dims,
                                       static_cast<std::size_t>(avg_face)) +
      2 * cluster.allreduce_cycles(pt.nodes, 1);
  const double compute_cycles_per_iter =
      r.compute_cycles / params.fixed_iterations;
  pt.cluster_ms_per_iter =
      (compute_cycles_per_iter + static_cast<double>(comm_per_iter)) /
      clock_hz * 1e3;
  return pt;
}

// --- Simulator engine scaling ----------------------------------------------
//
// How fast can we *simulate* the machine?  The same boot + CG workload on a
// 4^6 = 4096-node machine, run at 1, 2 and 4 engine threads, with the
// event-order digests compared: every thread count must be bit-identical,
// and any wall-clock gain is pure profit.

struct EngineRun {
  int threads;
  double wall_seconds;
  u64 digest;
  u64 events;
  Cycle end_cycle;
  sim::EngineReport report;
};

EngineRun run_engine(std::array<int, 6> shape, Coord4 global, int threads,
                     int iterations) {
  const auto t0 = std::chrono::steady_clock::now();
  machine::MachineConfig cfg;
  cfg.shape.extent = shape;
  cfg.sim_threads = threads;
  machine::Machine m(cfg);
  m.power_on();
  const torus::Partition part = torus::fold_to_4d(m.topology());
  SolverRig rig(&m, &part, global);
  GaugeField gauge(rig.comm.get(), rig.geom.get());
  Rng rng(7);
  gauge.randomize_near_unit(rng, 0.15);
  WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge, WilsonParams{});
  DistField x = op.make_field("x");
  DistField b = op.make_field("b");
  x.zero();
  rig.fill_source(b);
  // A one-iteration warm-up solve, then the measured solve from a zero
  // guess; the digest and event count cover both.
  CgParams warm;
  warm.fixed_iterations = 1;
  cg_solve(op, x, b, warm);
  x.zero();
  CgParams params;
  params.fixed_iterations = iterations;
  cg_solve(op, x, b, params);

  EngineRun er;
  er.threads = threads;
  er.wall_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  er.digest = m.engine().trace_digest();
  er.events = m.engine().events_executed();
  er.end_cycle = m.engine().now();
  er.report = m.engine().report();
  return er;
}

void engine_scaling_section() {
  // A full 4^6 machine unless QCDOC_BENCH_SHAPE=small asks for the quicker
  // 4x4x4x4x2x2 = 1024-node variant.
  std::array<int, 6> shape{4, 4, 4, 4, 4, 4};
  Coord4 global{8, 8, 8, 64};
  const char* small = std::getenv("QCDOC_BENCH_SHAPE");
  if (small && std::string(small) == "small") {
    shape = {4, 4, 4, 4, 2, 2};
    global = {8, 8, 8, 16};
  }
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "\nsimulator engine scaling (%dx%dx%dx%dx%dx%d machine, %u host "
      "core%s):\n",
      shape[0], shape[1], shape[2], shape[3], shape[4], shape[5], cores,
      cores == 1 ? "" : "s");

  const EngineRun one = run_engine(shape, global, 1, 2);
  std::printf("  1 thread: %7.2fs wall, %llu events, digest %016llx\n",
              one.wall_seconds, static_cast<unsigned long long>(one.events),
              static_cast<unsigned long long>(one.digest));
  const EngineRun four = run_engine(shape, global, 4, 2);
  std::printf("  4 threads:%7.2fs wall, %llu events, digest %016llx\n",
              four.wall_seconds, static_cast<unsigned long long>(four.events),
              static_cast<unsigned long long>(four.digest));
  std::printf("  %s\n",
              perf::format_engine_report(four.report, /*wall_clock=*/true)
                  .c_str());
  const EngineRun two = run_engine(shape, global, 2, 2);

  bool identical = true;
  for (const EngineRun* r : {&two, &four}) {
    identical = identical && r->digest == one.digest &&
                r->events == one.events && r->end_cycle == one.end_cycle;
  }
  const double speedup =
      four.wall_seconds > 0 ? one.wall_seconds / four.wall_seconds : 0.0;
  std::printf("  deterministic: %s   speedup: %.2fx\n",
              identical ? "yes (bit-identical digests at 1/2/4 threads)"
                        : "NO -- BUG",
              speedup);

  std::vector<bench::EngineBenchRun> runs;
  for (const EngineRun* r : {&one, &two, &four}) {
    bench::EngineBenchRun br;
    br.threads = r->threads;
    br.events = r->events;
    br.wall_seconds = r->wall_seconds;
    br.digest = r->digest;
    runs.push_back(br);
  }
  bench::write_engine_bench_json("BENCH_engine.json", runs, speedup,
                                 identical);

  if (!identical) std::exit(1);
  // The >= 2x expectation only stands where the hardware can physically
  // deliver it; on fewer than 4 cores we report the measured number and the
  // determinism guarantee carries the bench.
  if (cores >= 4 && speedup < 2.0) {
    std::printf("  WARNING: expected >= 2x on %u cores, got %.2fx\n", cores,
                speedup);
  }
}

}  // namespace

int main() {
  bench::print_header(
      "E7: bench_hard_scaling -- fixed 8^4 lattice, 16 to 256 nodes",
      "the mesh keeps scaling as local volumes shrink; a commodity network "
      "(5-10 us message start) flattens out as communication dominates");

  std::printf(
      "%8s %12s %10s %10s | %12s %10s\n", "nodes", "qcdoc ms/it", "eff %",
      "comm %", "cluster ms/it", "slowdown");
  ScalePoint first{};
  for (const auto shape :
       std::vector<std::array<int, 6>>{{2, 2, 2, 2, 1, 1},
                                       {4, 2, 2, 2, 1, 1},
                                       {4, 4, 2, 2, 1, 1},
                                       {4, 4, 4, 2, 1, 1},
                                       {4, 4, 4, 4, 1, 1}}) {
    // local volumes run from the paper's 4^4 benchmark point down to 2^4,
    // the deep hard-scaling regime where only a low-latency mesh survives.
    const auto pt = run(shape);
    if (first.nodes == 0) first = pt;
    std::printf("%8d %12.3f %10.1f %10.1f | %12.3f %10.2fx\n", pt.nodes,
                pt.qcdoc_ms_per_iter, 100 * pt.qcdoc_efficiency,
                100 * pt.qcdoc_comm_fraction, pt.cluster_ms_per_iter,
                pt.cluster_ms_per_iter / pt.qcdoc_ms_per_iter);
  }
  std::printf(
      "\nhard-scaling figure of merit (16 -> 256 nodes, ideal = 16x):\n");
  const auto last = run({4, 4, 4, 4, 1, 1});
  std::vector<perf::Row> rows = {
      {"E7", "qcdoc speedup 16->256", 16.0,
       first.qcdoc_ms_per_iter / last.qcdoc_ms_per_iter, "x"},
      {"E7", "cluster speedup 16->256", 16.0,
       first.cluster_ms_per_iter / last.cluster_ms_per_iter, "x"},
  };
  bench::print_rows(rows);
  engine_scaling_section();
  return 0;
}
