// Hard scaling: the paper's central architectural argument, as a runnable
// demonstration.
//
// "Low latency is vital if a problem of a fixed size is to be run on a
// machine with tens of thousands of nodes" (paper Section 1).  One 16^4
// lattice is solved on bigger and bigger machines; as the local volume per
// node shrinks, the communication-to-compute ratio grows, and only a
// low-latency mesh keeps delivering speedup.  A commodity-cluster network
// model (5-10 us message startup) shows where clusters flatten out.
#include <cstdio>
#include <vector>

#include "lattice/cg.h"
#include "lattice/rig.h"
#include "lattice/wilson.h"
#include "net/cluster_net.h"
#include "perf/report.h"

using namespace qcdoc;
using namespace qcdoc::lattice;

int main() {
  const Coord4 global{8, 8, 8, 8};
  std::printf("hard scaling one %dx%dx%dx%d lattice (4^4 down to 2^4 per node):\n\n", global[0],
              global[1], global[2], global[3]);
  std::printf("%8s %10s %14s %10s %10s %16s\n", "nodes", "local", "qcdoc ms/it",
              "speedup", "comm %", "cluster ms/it");

  double base_qcdoc = 0;
  for (const auto shape :
       std::vector<std::array<int, 6>>{{2, 2, 2, 2, 1, 1},
                                       {4, 2, 2, 2, 1, 1},
                                       {4, 4, 2, 2, 1, 1},
                                       {4, 4, 4, 2, 1, 1},
                                       {4, 4, 4, 4, 1, 1}}) {
    // local volumes run from the paper's 4^4 benchmark point down to 2^4,
    // the deep hard-scaling regime where only a low-latency mesh survives.
    SolverRig rig(shape, global);
    GaugeField gauge(rig.comm.get(), rig.geom.get());
    Rng rng(11);
    gauge.randomize_near_unit(rng, 0.1);
    WilsonDirac op(rig.ops.get(), rig.geom.get(), &gauge, WilsonParams{});
    DistField x = op.make_field("x");
    DistField b = op.make_field("b");
    x.zero();
    rig.fill_source(b);
    CgParams params;
    params.fixed_iterations = 3;
    const CgResult r = cg_solve(op, x, b, params);

    const double ms =
        rig.m->seconds(r.cycles) * 1e3 / params.fixed_iterations;
    if (base_qcdoc == 0) base_qcdoc = ms;

    // The same nodes on a commodity network.
    const double clock_hz = rig.m->config().clock_hz;
    const net::ClusterNet cluster(clock_hz);
    int dims = 0;
    double face_bytes = 0;
    for (int mu = 0; mu < kNd; ++mu) {
      if (rig.geom->nodes_in_dim(mu) > 1) {
        ++dims;
        face_bytes += rig.geom->local().face_volume(mu) * 96.0;
      }
    }
    const Cycle comm =
        2 * cluster.halo_exchange_cycles(
                2 * dims, static_cast<std::size_t>(
                              dims > 0 ? face_bytes / dims : 0)) +
        2 * cluster.allreduce_cycles(rig.m->num_nodes(), 1);
    const double cluster_ms =
        (r.compute_cycles / params.fixed_iterations +
         static_cast<double>(comm)) /
        clock_hz * 1e3;

    const auto& le = rig.geom->local().extent();
    char local[32];
    std::snprintf(local, sizeof(local), "%dx%dx%dx%d", le[0], le[1], le[2],
                  le[3]);
    std::printf("%8d %10s %14.3f %9.1fx %10.1f %16.3f\n",
                rig.m->num_nodes(), local, ms, base_qcdoc / ms,
                100 * (r.comm_cycles + r.global_cycles) /
                    static_cast<double>(r.cycles),
                cluster_ms);
  }
  std::printf(
      "\nthe mesh keeps winning as nodes grow because its 600 ns "
      "memory-to-memory latency\nand hardware global sums keep small "
      "transfers cheap -- the reason QCDOC exists.\n");
  return 0;
}
