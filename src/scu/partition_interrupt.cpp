#include "scu/partition_interrupt.h"

#include <cassert>

#include "sim/affinity_guard.h"

namespace qcdoc::scu {

PirqDomain::PirqDomain(sim::EngineRef engine, Cycle window_cycles)
    : engine_(engine), window_cycles_(window_cycles) {
  assert(window_cycles_ > 0);
}

void PirqDomain::add_node(NodeId node, Scu* scu,
                          std::vector<torus::LinkIndex> flood_links) {
  NodeState state;
  state.scu = scu;
  state.flood_links = std::move(flood_links);
  // Every receive side of the flooded links feeds the domain controller.
  for (const auto l : state.flood_links) {
    scu->recv_side(torus::facing_link(l))
        .set_pirq_handler([this, node](u8 mask) { on_pirq_packet(node, mask); });
  }
  nodes_.emplace(node.value, std::move(state));
}

void PirqDomain::raise(NodeId node, u8 mask) {
  auto it = nodes_.find(node.value);
  assert(it != nodes_.end());
  it->second.pending |= mask;
  ensure_clock();
}

void PirqDomain::on_pirq_packet(NodeId node, u8 mask) {
  auto it = nodes_.find(node.value);
  if (it == nodes_.end()) return;  // packet strayed outside the partition
  NodeState& st = it->second;
  const u8 fresh = static_cast<u8>(mask & ~st.seen);
  st.seen |= mask;
  // Forward only interrupts "which had not been previously sent".
  const u8 to_send = static_cast<u8>(fresh & ~st.sent);
  if (to_send) flood_from(node, to_send);
}

void PirqDomain::flood_from(NodeId node, u8 bits) {
  NodeState& st = nodes_.at(node.value);
  st.sent |= bits;
  for (const auto l : st.flood_links) {
    st.scu->send_side(l).enqueue_partition_irq(bits);
  }
}

void PirqDomain::ensure_clock() {
  if (clock_running_) return;
  clock_running_ = true;
  // Align to the next global-clock window boundary.
  const Cycle phase = engine_.now() % window_cycles_;
  const Cycle wait = phase == 0 ? 0 : window_cycles_ - phase;
  engine_.schedule(wait, [this] { window_boundary(); });
}

bool PirqDomain::any_activity() const {
  for (const auto& [id, st] : nodes_) {
    if (st.pending || st.seen) return true;
  }
  return false;
}

void PirqDomain::window_boundary() {
  // The global clock samples and refloods across the whole partition: this
  // host-affinity event legitimately pushes supervisor packets through every
  // node's SCU and wires, so the whole machine is its declared touched set.
  QCDOC_AFFSAN_TOUCH_ALL();
  // Sample and deliver interrupts observed during the closing window, then
  // open the next window by flooding freshly raised lines.
  for (auto& [id, st] : nodes_) {
    if (st.seen && handler_) handler_(NodeId{id}, st.seen);
    st.seen = 0;
    st.sent = 0;
  }
  bool flooded = false;
  for (auto& [id, st] : nodes_) {
    if (st.pending) {
      const u8 bits = st.pending;
      st.pending = 0;
      st.seen |= bits;
      flood_from(NodeId{id}, bits);
      flooded = true;
    }
  }
  if (flooded || any_activity()) {
    engine_.schedule(window_cycles_, [this] { window_boundary(); });
  } else {
    clock_running_ = false;
  }
}

}  // namespace qcdoc::scu
