#include "net/ethernet.h"

#include <algorithm>
#include <cassert>

namespace qcdoc::net {

EthernetTree::EthernetTree(sim::EngineRef engine, double clock_hz,
                           EthernetConfig cfg, int num_nodes)
    : engine_(engine), clock_hz_(clock_hz) {
  assert(cfg.host_links >= 1);
  host_link_free_.assign(static_cast<std::size_t>(cfg.host_links), 0);
  node_link_free_.assign(static_cast<std::size_t>(num_nodes), 0);
}

void EthernetTree::host_to_node(NodeId node, std::size_t payload_bytes,
                                EthKind kind,
                                std::function<void()> on_delivered) {
  const std::size_t frame = payload_bytes + kUdpOverheadBytes;
  auto& host_free = host_link_free_[node.value % host_link_free_.size()];
  auto& node_free = node_link_free_[node.value];

  // Host link serialization (shared among the nodes behind this link).
  const Cycle host_start = std::max(engine_.now(), host_free);
  const Cycle host_done = host_start + serialize(kHostLinkBps, frame);
  host_free = host_done;
  // Hub hops: store-and-forward latency each.
  const Cycle hubs_done =
      host_done + static_cast<Cycle>(kHubHops) * cycles(kHubLatencySeconds);
  // Node link serialization at 100 Mbit.
  const Cycle node_start = std::max(hubs_done, node_free);
  const Cycle node_done = node_start + serialize(kNodeLinkBps, frame);
  node_free = node_done;

  ++packets_delivered_;
  if (kind == EthKind::kJtag) ++jtag_packets_;
  engine_.schedule_at(node_done, [fn = std::move(on_delivered)] {
    if (fn) fn();
  });
}

void EthernetTree::node_to_host(NodeId node, std::size_t payload_bytes,
                                std::function<void()> on_delivered) {
  const std::size_t frame = payload_bytes + kUdpOverheadBytes;
  auto& node_free = node_link_free_[node.value];
  auto& host_free = host_link_free_[node.value % host_link_free_.size()];

  const Cycle node_start = std::max(engine_.now(), node_free);
  const Cycle node_done = node_start + serialize(kNodeLinkBps, frame);
  node_free = node_done;
  const Cycle hubs_done =
      node_done + static_cast<Cycle>(kHubHops) * cycles(kHubLatencySeconds);
  const Cycle host_start = std::max(hubs_done, host_free);
  const Cycle host_done = host_start + serialize(kHostLinkBps, frame);
  host_free = host_done;

  ++packets_delivered_;
  engine_.schedule_at(host_done, [fn = std::move(on_delivered)] {
    if (fn) fn();
  });
}

}  // namespace qcdoc::net
