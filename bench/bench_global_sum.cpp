// E4: global sums through the SCU global mode.
//
// Paper Section 2.2: a 4-D global sum hops through Nx+Ny+Nz+Nt-4 nodes
// dimension by dimension; "using the doubled functionality of the SCUs
// global modes, the sum can be reduced to requiring Nx/2+Ny/2+Nz/2+Nt/2
// hops"; cut-through forwarding passes a word on after only 8 bits,
// "markedly reducing the latency" relative to store-and-forward.
#include "bench_util.h"
#include "comms/comms.h"
#include "comms/global_sum.h"
#include "lattice/rig.h"
#include "scu/global_ops.h"

using namespace qcdoc;

int main() {
  bench::print_header(
      "E4: bench_global_sum -- dimension-wise global sum on a 4x4x4x4 "
      "partition",
      "naive: sum(Ni-1)=12 hops; doubled SCU global mode: sum(Ni/2)=8 hops; "
      "8-bit cut-through beats 72-bit store-and-forward per hop");

  lattice::SolverRig rig({4, 4, 4, 4, 1, 1}, {8, 8, 8, 8});
  auto& comm = *rig.comm;

  const scu::GlobalOpTiming t;
  std::vector<double> ring(4, 1.0);

  const auto naive = scu::ring_allreduce(t, ring, false);
  const auto doubled = scu::ring_allreduce(t, ring, true);

  const Cycle sum_naive =
      comms::partition_global_sum_cycles(*rig.partition, t, false);
  const Cycle sum_doubled =
      comms::partition_global_sum_cycles(*rig.partition, t, true);

  scu::GlobalOpTiming sf = t;
  sf.cut_through = false;
  const Cycle bc_cut = scu::ring_broadcast(t, 16, false).completion_cycles;
  const Cycle bc_sf = scu::ring_broadcast(sf, 16, false).completion_cycles;
  // The speedup compares the hop times only: injection and the final store
  // cost the same in both modes.
  const Cycle fixed = scu::kInjectCycles + scu::kStoreCycles;

  const machine::Machine& m = *rig.m;
  std::vector<perf::Row> rows = {
      {"E4", "hops naive (4 dims)", 12, 4.0 * naive.max_hops, "hops"},
      {"E4", "hops doubled (4 dims)", 8, 4.0 * doubled.max_hops, "hops"},
      {"E4", "4-D sum, naive", 0, m.microseconds(sum_naive), "us"},
      {"E4", "4-D sum, doubled", 0, m.microseconds(sum_doubled), "us"},
      {"E4", "16-ring bcast cut-through", 0, m.microseconds(bc_cut), "us"},
      {"E4", "16-ring bcast store&fwd", 0, m.microseconds(bc_sf), "us"},
      {"E4", "cut-through speedup", static_cast<double>(72) / 8,
       static_cast<double>(bc_sf - fixed) / static_cast<double>(bc_cut - fixed),
       "x (asymptotic 9x)"},
  };
  bench::print_rows(rows);

  // Functional check through the full machine: one double per node.
  std::vector<double> contrib(static_cast<std::size_t>(comm.num_nodes()));
  for (std::size_t i = 0; i < contrib.size(); ++i) {
    contrib[i] = 0.25 * static_cast<double>(i);
  }
  const auto result = comm.global_sum(contrib);
  double direct = 0;
  for (double v : contrib) direct += v;
  std::printf("\nfunctional 256-node sum: %.6f (direct %.6f), %llu cycles\n",
              result.value, direct,
              static_cast<unsigned long long>(result.cycles));
  return 0;
}
