// The Ethernet booting/diagnostics/I-O network (paper Section 2.3, Figure 2,
// green network).
//
// Every ASIC has two Ethernet connections: a standard 100 Mbit controller
// (needs the run kernel's UDP stack) and an Ethernet/JTAG controller that
// decodes UDP packets carrying JTAG commands entirely in hardware -- usable
// from power-on, before any code is loaded.  Nodes hang off 5-port hubs on
// the daughterboards and motherboards; the host connects through multiple
// Gigabit links.
//
// The model is a store-and-forward tree: host link (shared, Gigabit class),
// two hub hops, then the node's 100 Mbit link.  Delivery times come out of
// the event engine, so boot-time measurements (bench E11) are simulated,
// not computed.
#pragma once

#include <functional>
#include <vector>

#include "common/types.h"
#include "sim/engine.h"

namespace qcdoc::net {

// Link speeds in bits per second, and the store-and-forward path between.
inline constexpr double kHostLinkBps = 1e9;    ///< per Gigabit host link
inline constexpr double kNodeLinkBps = 100e6;  ///< per-node 100 Mbit link
inline constexpr double kHubLatencySeconds = 2e-6;  ///< per hub hop
inline constexpr int kHubHops = 2;  ///< daughterboard + motherboard hubs
inline constexpr std::size_t kUdpOverheadBytes = 46;  ///< Ethernet+IP+UDP

struct EthernetConfig {
  int host_links = 1;  ///< "multiple Gigabit Ethernet links"
};

/// Kind of traffic, for statistics and for the zero-software JTAG path.
enum class EthKind { kJtag, kUdp };

// qcdoc-lint: owner(host) the Ethernet/JTAG tree is host-side plumbing: its
// delivery events run in host slices, never on a node affinity.
class EthernetTree {
 public:
  /// The Ethernet tree is host-side plumbing (boot streams, RPC, NFS), so
  /// deliveries are scheduled with host affinity: a bare Engine* converts
  /// to a host-affinity sim::EngineRef.  `clock_hz` is the node clock the
  /// engine counts cycles of.
  EthernetTree(sim::EngineRef engine, double clock_hz, EthernetConfig cfg,
               int num_nodes);

  /// Send one UDP packet of `payload_bytes` from the host to `node`;
  /// `on_delivered` fires when the last byte reaches the node.  Nodes are
  /// spread round-robin over the host links, which serialize independently.
  void host_to_node(NodeId node, std::size_t payload_bytes, EthKind kind,
                    std::function<void()> on_delivered);

  /// Node-to-host packet (RPC replies, NFS writes...).
  void node_to_host(NodeId node, std::size_t payload_bytes,
                    std::function<void()> on_delivered);

  u64 packets_delivered() const { return packets_delivered_; }
  u64 jtag_packets() const { return jtag_packets_; }

 private:
  Cycle cycles(double seconds) const {
    return static_cast<Cycle>(seconds * clock_hz_ + 0.5);
  }
  Cycle serialize(double bps, std::size_t bytes) const {
    return cycles(static_cast<double>(bytes) * 8.0 / bps);
  }

  sim::EngineRef engine_;
  double clock_hz_;
  // Earliest free time per shared resource: one per host link, one per
  // node link.
  std::vector<Cycle> host_link_free_;
  std::vector<Cycle> node_link_free_;
  u64 packets_delivered_ = 0;
  u64 jtag_packets_ = 0;
};

}  // namespace qcdoc::net
