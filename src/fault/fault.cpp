#include "fault/fault.h"

#include <algorithm>

#include "common/log.h"
#include "sim/affinity_guard.h"

namespace qcdoc::fault {

using torus::LinkIndex;

const char* to_string(JobFailure f) {
  switch (f) {
    case JobFailure::kNone: return "none";
    case JobFailure::kAdmissionRejected: return "admission_rejected";
    case JobFailure::kPartitionRevoked: return "partition_revoked";
    case JobFailure::kLinkFault: return "link_fault";
    case JobFailure::kDeadlineExpired: return "deadline_expired";
    case JobFailure::kApplicationError: return "application_error";
    case JobFailure::kCheckpointLost: return "checkpoint_lost";
  }
  return "?";
}

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kBerSpike: return "ber_spike";
    case FaultKind::kLinkDeath: return "link_death";
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kNodeHang: return "node_hang";
    case FaultKind::kAckDropBurst: return "ack_drop_burst";
    case FaultKind::kDataCorruption: return "data_corruption";
    case FaultKind::kMemUpset: return "mem_upset";
  }
  return "?";
}

FaultPlan& FaultPlan::ber_spike(Cycle at, NodeId node, LinkIndex link,
                                double rate, Cycle duration) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kBerSpike;
  e.node = node;
  e.link = link;
  e.bit_error_rate = rate;
  e.duration = duration;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::link_death(Cycle at, NodeId node, LinkIndex link) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kLinkDeath;
  e.node = node;
  e.link = link;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::node_crash(Cycle at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kNodeCrash;
  e.node = node;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::node_hang(Cycle at, NodeId node) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kNodeHang;
  e.node = node;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::ack_drop_burst(Cycle at, NodeId node, LinkIndex link,
                                     int count) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kAckDropBurst;
  e.node = node;
  e.link = link;
  e.count = count;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::data_corruption(Cycle at, NodeId node, LinkIndex link,
                                      int count) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kDataCorruption;
  e.node = node;
  e.link = link;
  e.count = count;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::mem_upset(Cycle at, NodeId node, u64 word_addr,
                                int bits, int bit) {
  FaultEvent e;
  e.at = at;
  e.kind = FaultKind::kMemUpset;
  e.node = node;
  e.mem_addr = word_addr;
  e.mem_bit = bit;
  e.count = bits;
  events_.push_back(e);
  return *this;
}

FaultPlan& FaultPlan::mem_upset_indexed(Cycle at, NodeId node, u64 index,
                                        int bits, int bit) {
  mem_upset(at, node, index, bits, bit);
  events_.back().mem_addr_is_index = true;
  return *this;
}

FaultPlan FaultPlan::sustained_mem_upsets(u64 seed, const torus::Shape& shape,
                                          int n, Cycle start, Cycle horizon,
                                          double uncorrectable_fraction) {
  FaultPlan plan;
  Rng rng(seed);
  const torus::Torus topo(shape);
  const u64 nodes = static_cast<u64>(topo.num_nodes());
  for (int i = 0; i < n; ++i) {
    const Cycle at =
        start + (horizon > 0 ? static_cast<Cycle>(rng.next_below(
                                   static_cast<u64>(horizon)))
                             : 0);
    const NodeId node{static_cast<u32>(rng.next_below(nodes))};
    const u64 index = rng.next_u64();
    const int bit = static_cast<int>(rng.next_below(64));
    const int bits = rng.next_bool(uncorrectable_fraction) ? 2 : 1;
    plan.mem_upset_indexed(at, node, index, bits, bit);
  }
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

FaultPlan FaultPlan::random_campaign(u64 seed, const torus::Shape& shape,
                                     int n, Cycle start, Cycle horizon) {
  FaultPlan plan;
  Rng rng(seed);
  const torus::Torus topo(shape);
  const u64 nodes = static_cast<u64>(topo.num_nodes());
  for (int i = 0; i < n; ++i) {
    const Cycle at =
        start + (horizon > 0 ? static_cast<Cycle>(rng.next_below(
                                   static_cast<u64>(horizon)))
                             : 0);
    const NodeId node{static_cast<u32>(rng.next_below(nodes))};
    const LinkIndex link{
        static_cast<int>(rng.next_below(torus::kLinksPerNode))};
    switch (rng.next_below(4)) {
      case 0:
        plan.ber_spike(at, node, link, 1e-3 + rng.next_double() * 1e-2,
                       /*duration=*/1 << 14);
        break;
      case 1:
        plan.link_death(at, node, link);
        break;
      case 2:
        plan.ack_drop_burst(at, node, link,
                            1 + static_cast<int>(rng.next_below(4)));
        break;
      default:
        plan.data_corruption(at, node, link,
                             1 + static_cast<int>(rng.next_below(3)));
        break;
    }
  }
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

FaultPlan FaultPlan::from_events(std::vector<FaultEvent> events) {
  FaultPlan plan;
  plan.events_ = std::move(events);
  return plan;
}

FaultInjector::FaultInjector(net::MeshNet* mesh) : mesh_(mesh) {}

void FaultInjector::arm(const FaultPlan& plan) {
  // Injection is a host action (the campaign driver lives outside the
  // machine), so fault events carry host affinity and serialize before node
  // events at equal timestamps on every engine.
  const sim::EngineRef host(&mesh_->engine());
  for (const FaultEvent& e : plan.events()) {
    const Cycle at = std::max(e.at, host.now());
    const std::size_t idx = armed_.size();
    armed_.emplace_back(e, false);
    // A fault may hit any node's wire, SCU or memory -- and corruption
    // lands on the neighbour's receive side, so the set is the machine.
    // qcdoc-lint: touches(all) faults reach arbitrary nodes by design
    host.schedule_at(at, [this, idx] {
      QCDOC_AFFSAN_TOUCH_ALL();
      armed_[idx].second = true;
      apply(armed_[idx].first);
    });
  }
}

std::vector<FaultEvent> FaultInjector::pending_plan() const {
  std::vector<FaultEvent> out;
  for (const auto& [e, fired] : armed_) {
    if (!fired) out.push_back(e);
  }
  return out;
}

u64 FaultInjector::injected(FaultKind kind) const {
  u64 n = 0;
  for (const auto& [e, fired] : armed_) {
    if (fired && e.kind == kind) ++n;
  }
  return n;
}

std::size_t FaultInjector::pending_count() const {
  std::size_t n = 0;
  for (const auto& [e, fired] : armed_) {
    if (!fired) ++n;
  }
  return n;
}

void FaultInjector::apply(const FaultEvent& e) {
  ++injected_;
  QCDOC_INFO << "fault: " << to_string(e.kind) << " node " << e.node.value
             << " link " << e.link.value << " at cycle "
             << mesh_->engine().now();
  switch (e.kind) {
    case FaultKind::kBerSpike: {
      hssl::Hssl& wire = mesh_->wire(e.node, e.link);
      const double previous = wire.bit_error_rate();
      wire.set_bit_error_rate(e.bit_error_rate);
      if (e.duration > 0) {
        const sim::EngineRef host(&mesh_->engine());
        // Captures only what the restore reads, so the action fits
        // EventFn's inline buffer.
        // qcdoc-lint: touches(node) restores the BER of e.node's wire only
        host.schedule(e.duration, [this, node = e.node, link = e.link,
                                   previous] {
          QCDOC_AFFSAN_TOUCH(static_cast<sim::Affinity>(node.value));
          mesh_->wire(node, link).set_bit_error_rate(previous);
        });
      }
      break;
    }
    case FaultKind::kLinkDeath:
      mesh_->wire(e.node, e.link).fail();
      break;
    case FaultKind::kNodeCrash:
      mesh_->set_condition(e.node, net::NodeCondition::kCrashed);
      for (int l = 0; l < torus::kLinksPerNode; ++l) {
        mesh_->wire(e.node, LinkIndex{l}).fail();
      }
      break;
    case FaultKind::kNodeHang:
      mesh_->set_condition(e.node, net::NodeCondition::kHung);
      break;
    case FaultKind::kAckDropBurst:
      mesh_->scu(e.node).send_side(e.link).drop_acks(e.count);
      break;
    case FaultKind::kDataCorruption: {
      // Corruption lands at the *receiving* end of this node's outgoing
      // wire: the neighbour's facing receive side decodes the bad words.
      const NodeId neighbor = mesh_->topology().neighbor(e.node, e.link);
      mesh_->scu(neighbor)
          .recv_side(torus::facing_link(e.link))
          .force_corrupt(e.count);
      break;
    }
    case FaultKind::kMemUpset: {
      memsys::NodeMemory& mem = mesh_->memory(e.node);
      u64 addr = e.mem_addr;
      if (e.mem_addr_is_index) {
        const u64 allocated = mem.allocated_words();
        if (allocated == 0) break;  // no live data: the upset hits free space
        addr = mem.nth_allocated_word(e.mem_addr % allocated);
      }
      for (int k = 0; k < std::max(1, e.count); ++k) {
        mem.ecc().inject_upset(addr, (e.mem_bit + k) & 63);
      }
      break;
    }
  }
}

}  // namespace qcdoc::fault
