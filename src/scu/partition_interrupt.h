// Partition interrupts (paper Section 2.2, item 3).
//
// QCDOC partitions need a way to interrupt *every* node in the partition.
// A node raises one of 8 interrupt lines; its SCU floods an 8-bit packet to
// its neighbours, and each SCU forwards interrupts it has not previously
// sent.  Forwarding happens within a transmit window derived from the slow
// (~40 MHz) global clock, whose period is chosen so that an interrupt raised
// at the start of a window has provably reached every node before the
// window-end sampling point.  Packets are unacknowledged: a corrupted packet
// is simply re-flooded in the next window because the raising node keeps its
// lines asserted until sampled.
//
// The flood runs over the real SendSide/RecvSide packet channels, so it
// shares wires (and priorities) with data traffic.
#pragma once

#include <map>
#include <vector>

#include "common/types.h"
#include "scu/scu.h"
#include "sim/engine.h"
#include "sim/event_fn.h"
#include "torus/coords.h"

namespace qcdoc::scu {

/// One interrupt domain: the set of nodes in a partition, the links to flood
/// over, and the shared window clock.
class PirqDomain {
 public:
  /// `window_cycles` is the transmit-window length in CPU cycles (a multiple
  /// of the global-clock period; must exceed the partition's flood time).
  /// The window clock is a machine-global construct, so the domain schedules
  /// with host affinity: a bare Engine* converts to a host-affinity ref.
  PirqDomain(sim::EngineRef engine, Cycle window_cycles);

  /// Add a node; `flood_links` are the links its SCU forwards interrupt
  /// packets over (the links internal to the partition).
  void add_node(NodeId node, Scu* scu, std::vector<torus::LinkIndex> flood_links);

  /// Raise interrupt lines `mask` at `node`.  The lines stay asserted until
  /// delivered at the next window-end sampling point.
  void raise(NodeId node, u8 mask);

  /// Handler invoked per node at the sampling point with the OR of all
  /// interrupts seen in the window.
  void set_interrupt_handler(sim::SmallFn<void(NodeId, u8)> fn) {
    handler_ = std::move(fn);
  }

  Cycle window_cycles() const { return window_cycles_; }

 private:
  struct NodeState {
    Scu* scu = nullptr;
    std::vector<torus::LinkIndex> flood_links;
    u8 pending = 0;  ///< raised locally, not yet flooded
    u8 seen = 0;     ///< all interrupt bits observed this window
    u8 sent = 0;     ///< bits already forwarded this window
  };

  void on_pirq_packet(NodeId node, u8 mask);
  void flood_from(NodeId node, u8 bits);
  void ensure_clock();
  void window_boundary();
  [[nodiscard]] bool any_activity() const;

  sim::EngineRef engine_;
  Cycle window_cycles_;
  std::map<u32, NodeState> nodes_;
  sim::SmallFn<void(NodeId, u8)> handler_;
  bool clock_running_ = false;
};

}  // namespace qcdoc::scu
