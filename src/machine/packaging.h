// Physical packaging hierarchy (paper Section 2.4, Figures 3-5).
//
// Two ASICs plus their DDR DIMMs sit on a 3"x6.5" daughterboard (~20 W);
// 32 daughterboards plug into a motherboard that hosts a 2^6 hypercube of
// 64 nodes; eight motherboards fill a crate; two crates make a water-cooled
// rack of 1024 nodes -- 1.0 Tflops peak under 10 kW.  Stacked racks put
// 10,000+ nodes in about 60 square feet.
#pragma once

#include <string>

#include "common/types.h"
#include "torus/coords.h"

namespace qcdoc::machine {

struct PackagingParams {
  int nodes_per_daughterboard = 2;
  int daughterboards_per_motherboard = 32;
  int motherboards_per_crate = 8;
  int crates_per_rack = 2;
  /// "About 20 Watts for both nodes"; the rack budget (<10 kW for 512
  /// daughterboards plus conversion/cooling overhead) implies ~18 W typical.
  double watts_per_daughterboard = 18.0;
  double rack_overhead_watts = 500.0;  ///< DC-DC conversion, cooling
  double rack_footprint_sqft = 6.0;       ///< stacked water-cooled racks
  int cables_per_motherboard = 12;        ///< 768 cables for 64 motherboards
};

/// Bill of physical materials and derived physical figures for a machine.
struct PackagingPlan {
  int nodes = 0;
  int daughterboards = 0;
  int motherboards = 0;
  int crates = 0;
  int racks = 0;
  int cables = 0;
  double power_watts = 0;
  double footprint_sqft = 0;
  double peak_flops = 0;

  std::string to_string() const;
};

PackagingPlan plan_for_nodes(int nodes, double peak_flops_per_node,
                             const PackagingParams& p = PackagingParams{});

/// Where a node lives physically.  Motherboards tile the torus as 2^6
/// hypercubes (each machine dimension contributes its low bit, for extents
/// of at least 2), matching the paper's "64 nodes as a 2^6 hypercube".
struct PackageLocation {
  int daughterboard = 0;  ///< within the motherboard
  int motherboard = 0;    ///< within the machine
  int crate = 0;
  int rack = 0;
};

class PackageMap {
 public:
  PackageMap(const torus::Torus& topology,
             PackagingParams params = PackagingParams{});

  PackageLocation locate(NodeId n) const;
  int motherboards() const { return num_motherboards_; }

 private:
  int mb_index(NodeId n) const;

  const torus::Torus* topology_;
  PackagingParams params_;
  // Per dimension: how many nodes of that dim live on one motherboard (2 for
  // extents >= 2, 1 for unused dims) and how many motherboard blocks tile it.
  std::array<int, torus::kMaxDims> mb_extent_{};
  std::array<int, torus::kMaxDims> mb_blocks_{};
  int num_motherboards_ = 0;
};

}  // namespace qcdoc::machine
