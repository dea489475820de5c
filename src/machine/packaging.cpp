#include "machine/packaging.h"

#include <cassert>
#include <sstream>

namespace qcdoc::machine {

namespace {
int ceil_div(int a, int b) { return (a + b - 1) / b; }
}  // namespace

std::string PackagingPlan::to_string() const {
  std::ostringstream out;
  out << nodes << " nodes / " << daughterboards << " daughterboards / "
      << motherboards << " motherboards / " << crates << " crates / " << racks
      << " racks; " << power_watts / 1000.0 << " kW, " << footprint_sqft
      << " sq ft, " << peak_flops / 1e12 << " Tflops peak";
  return out.str();
}

PackagingPlan plan_for_nodes(int nodes, double peak_flops_per_node,
                             const PackagingParams& p) {
  PackagingPlan plan;
  plan.nodes = nodes;
  plan.daughterboards = ceil_div(nodes, p.nodes_per_daughterboard);
  plan.motherboards =
      ceil_div(plan.daughterboards, p.daughterboards_per_motherboard);
  plan.crates = ceil_div(plan.motherboards, p.motherboards_per_crate);
  plan.racks = ceil_div(plan.crates, p.crates_per_rack);
  plan.cables = plan.motherboards * p.cables_per_motherboard;
  plan.power_watts = plan.daughterboards * p.watts_per_daughterboard +
                     plan.racks * p.rack_overhead_watts;
  plan.footprint_sqft = plan.racks * p.rack_footprint_sqft;
  plan.peak_flops = nodes * peak_flops_per_node;
  return plan;
}

PackageMap::PackageMap(const torus::Torus& topology, PackagingParams params)
    : topology_(&topology), params_(params) {
  num_motherboards_ = 1;
  for (int d = 0; d < torus::kMaxDims; ++d) {
    const int e = topology.shape().extent[d];
    mb_extent_[static_cast<std::size_t>(d)] = e >= 2 ? 2 : 1;
    mb_blocks_[static_cast<std::size_t>(d)] =
        e / mb_extent_[static_cast<std::size_t>(d)];
    num_motherboards_ *= mb_blocks_[static_cast<std::size_t>(d)];
  }
}

int PackageMap::mb_index(NodeId n) const {
  const torus::Coord c = topology_->coord(n);
  int index = 0;
  for (int d = torus::kMaxDims - 1; d >= 0; --d) {
    const auto dd = static_cast<std::size_t>(d);
    index = index * mb_blocks_[dd] + c.c[d] / mb_extent_[dd];
  }
  return index;
}

PackageLocation PackageMap::locate(NodeId n) const {
  PackageLocation loc;
  loc.motherboard = mb_index(n);
  // Daughterboard slot within the motherboard: pair nodes along the first
  // dimension with extent >= 2.
  const torus::Coord c = topology_->coord(n);
  int within = 0;
  int stride = 1;
  int pair_dim = -1;
  for (int d = 0; d < torus::kMaxDims; ++d) {
    const auto dd = static_cast<std::size_t>(d);
    if (pair_dim < 0 && mb_extent_[dd] == 2) {
      pair_dim = d;
      continue;  // the paired dimension does not contribute to the slot
    }
    within += (c.c[d] % mb_extent_[dd]) * stride;
    stride *= mb_extent_[dd];
  }
  loc.daughterboard = within;
  loc.crate = loc.motherboard / params_.motherboards_per_crate;
  loc.rack = loc.crate / params_.crates_per_rack;
  return loc;
}

}  // namespace qcdoc::machine
