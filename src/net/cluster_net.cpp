#include "net/cluster_net.h"

#include <cmath>

namespace qcdoc::net {

Cycle ClusterNet::message_cycles(std::size_t bytes) const {
  return cycles(kClusterStartSeconds +
                static_cast<double>(bytes) / kClusterBytesPerSecond);
}

Cycle ClusterNet::halo_exchange_cycles(int messages,
                                       std::size_t bytes_each) const {
  if (messages <= 0) return 0;
  // The NIC starts one message at a time; the payload of the last message
  // then streams out at link bandwidth.
  const double startup = kClusterStartSeconds * messages;
  const double payload = static_cast<double>(messages) *
                         static_cast<double>(bytes_each) /
                         kClusterBytesPerSecond;
  return cycles(startup + payload);
}

Cycle ClusterNet::allreduce_cycles(int nodes, std::size_t words) const {
  if (nodes <= 1) return 0;
  const int levels = static_cast<int>(std::ceil(std::log2(nodes)));
  const double per_hop = kClusterStartSeconds +
                         static_cast<double>(words * 8) /
                         kClusterBytesPerSecond;
  return cycles(2.0 * levels * per_hop);
}

}  // namespace qcdoc::net
