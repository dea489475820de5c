// Commodity-cluster network comparator (paper Sections 1 and 2.2).
//
// The paper's motivating argument is that commodity networks cannot deliver
// the latency QCD's hard scaling requires: "our 600 ns memory-to-memory
// latency is to be compared to times of 5-10 us just to begin a transfer
// when using standard networks like Ethernet."  This analytic model gives a
// cluster with the same per-node compute the paper's commodity network
// characteristics, for the hard-scaling crossover benches.
#pragma once

#include "common/types.h"

namespace qcdoc::net {

inline constexpr double kClusterStartSeconds = 7.5e-6;  ///< "5-10 us"
inline constexpr double kClusterBytesPerSecond = 125e6;  ///< GigE payload

class ClusterNet {
 public:
  /// `clock_hz` is the node clock whose cycles the results count.
  explicit ClusterNet(double clock_hz) : clock_hz_(clock_hz) {}

  /// Cycles for one point-to-point message.
  Cycle message_cycles(std::size_t bytes) const;

  /// Cycles for a halo exchange of `messages` messages of `bytes_each` from
  /// one node (message startups serialize on the NIC; payload streams at
  /// link bandwidth).
  Cycle halo_exchange_cycles(int messages, std::size_t bytes_each) const;

  /// Cycles for a tree all-reduce of `words` doubles over `nodes` nodes:
  /// 2*ceil(log2(nodes)) latency-bound hops.
  Cycle allreduce_cycles(int nodes, std::size_t words) const;

 private:
  Cycle cycles(double seconds) const {
    return static_cast<Cycle>(seconds * clock_hz_ + 0.5);
  }
  double clock_hz_;
};

}  // namespace qcdoc::net
