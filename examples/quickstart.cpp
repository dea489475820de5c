// Quickstart: build a 16-node QCDOC, boot it, and solve the Wilson-Dirac
// equation with conjugate gradient on the simulated machine.
//
//   $ ./quickstart
//
// Everything below runs through the full stack: the qdaemon boots the
// nodes over Ethernet/JTAG, the gauge field lives in each node's EDRAM,
// halo exchanges travel as real 72-bit packets over the bit-serial mesh,
// and the inner products go through the SCU global-sum hardware.
#include <cstdio>

#include "host/qdaemon.h"
#include "lattice/cg.h"
#include "lattice/rig.h"
#include "lattice/wilson.h"
#include "perf/report.h"

using namespace qcdoc;

int main() {
  // A 16-node machine: a 2x2x2x2 slice of the 6-D torus.
  machine::MachineConfig cfg;
  cfg.shape.extent = {2, 2, 2, 2, 1, 1};
  machine::Machine m(cfg);
  std::printf("machine: %d nodes, %s, %.0f MHz\n", m.num_nodes(),
              m.topology().shape().to_string().c_str(),
              m.config().clock_hz / 1e6);
  // Simulation engine (QCDOC_SIM_THREADS selects serial vs parallel; the
  // simulated results are bit-identical either way).
  std::printf("%s\n", perf::format_engine_report(m.engine().report()).c_str());

  // Boot through the qdaemon: ~100 JTAG + ~100 UDP packets per node.
  host::Qdaemon daemon(&m);
  const auto& boot = daemon.boot();
  std::printf("booted %d nodes in %.1f ms (%llu JTAG + %llu UDP packets)\n",
              boot.nodes_ready, m.seconds(boot.total_cycles) * 1e3,
              static_cast<unsigned long long>(boot.jtag_packets),
              static_cast<unsigned long long>(boot.udp_packets));

  // An 8^4 global lattice -> 4^4 per node, the paper's benchmark point.
  // Allocate the whole machine as one 4-D partition through the qdaemon.
  torus::Shape box;
  box.extent = cfg.shape.extent;
  const auto handle = daemon.allocate_partition("qcd", box, 4);
  lattice::SolverRig whole(&m, handle->partition, {8, 8, 8, 8});
  auto& r = whole;

  lattice::GaugeField gauge(r.comm.get(), r.geom.get());
  Rng rng(2004);
  gauge.randomize_near_unit(rng, 0.15);
  std::printf("gauge configuration: plaquette %.4f\n",
              gauge.average_plaquette());

  lattice::WilsonDirac dirac(r.ops.get(), r.geom.get(), &gauge,
                             lattice::WilsonParams{.kappa = 0.124});
  lattice::DistField x = dirac.make_field("x");
  lattice::DistField b = dirac.make_field("b");
  x.zero();
  r.fill_source(b);

  lattice::CgParams params;
  params.tolerance = 1e-8;
  params.max_iterations = 500;
  const auto result = lattice::cg_solve(dirac, x, b, params);

  std::printf(
      "\nCG solved M^+M x = M^+ b in %d iterations (|r|/|b| = %.2e)\n",
      result.iterations, result.relative_residual);
  std::printf("machine time: %.2f ms simulated\n",
              m.seconds(result.cycles) * 1e3);
  std::printf("sustained: %.0f Mflops machine-wide = %.1f%% of peak\n",
              perf::cg_sustained_mflops(m, result),
              100 * perf::cg_efficiency(m, result));
  std::printf("  compute %.0f%%  communication %.0f%%  global sums %.0f%%\n",
              100 * result.compute_cycles / static_cast<double>(result.cycles),
              100 * result.comm_cycles / static_cast<double>(result.cycles),
              100 * result.global_cycles / static_cast<double>(result.cycles));

  // The paper's end-of-run confirmation.
  std::printf("link checksums: %s\n",
              m.mesh().verify_link_checksums() ? "all match" : "MISMATCH");
  std::printf("%s\n", perf::format_engine_report(m.engine().report()).c_str());
  std::printf("event-order digest: %016llx\n",
              static_cast<unsigned long long>(m.engine().trace_digest()));
  return 0;
}
