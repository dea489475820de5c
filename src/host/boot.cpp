#include "host/boot.h"

#include <cassert>

#include "common/log.h"

namespace qcdoc::host {

const char* to_string(NodeBootState s) {
  switch (s) {
    case NodeBootState::kPoweredOff: return "powered-off";
    case NodeBootState::kLoadingBootKernel: return "loading-boot-kernel";
    case NodeBootState::kHardwareTest: return "hardware-test";
    case NodeBootState::kHardwareFailed: return "hardware-failed";
    case NodeBootState::kLoadingRunKernel: return "loading-run-kernel";
    case NodeBootState::kScuInit: return "scu-init";
    case NodeBootState::kReady: return "ready";
  }
  return "?";
}

BootSequencer::BootSequencer(machine::Machine* m, net::EthernetTree* eth,
                             BootParams params)
    : machine_(m), eth_(eth), params_(params) {
  states_.assign(static_cast<std::size_t>(m->num_nodes()),
                 NodeBootState::kPoweredOff);
  packets_pending_.assign(states_.size(), 0);
}

void BootSequencer::load_boot_kernel(NodeId n) {
  states_[n.value] = NodeBootState::kLoadingBootKernel;
  packets_pending_[n.value] = params_.boot_kernel_packets;
  for (int i = 0; i < params_.boot_kernel_packets; ++i) {
    eth_->host_to_node(n, params_.packet_payload_bytes, net::EthKind::kJtag,
                       [this, n] {
                         if (--packets_pending_[n.value] > 0) return;
                         // Boot kernel now in the instruction cache: run the
                         // basic hardware tests, then fetch the run kernel.
                         states_[n.value] = NodeBootState::kHardwareTest;
                         const sim::EngineRef host(&machine_->engine());
                         host.schedule(
                             params_.hw_test_cycles, [this, n] {
                               for (const auto bad : params_.failing_nodes) {
                                 if (bad == n) {
                                   states_[n.value] =
                                       NodeBootState::kHardwareFailed;
                                   ++nodes_failed_;
                                   return;
                                 }
                               }
                               load_run_kernel(n);
                             });
                       });
  }
}

void BootSequencer::load_run_kernel(NodeId n) {
  states_[n.value] = NodeBootState::kLoadingRunKernel;
  packets_pending_[n.value] = params_.run_kernel_packets;
  for (int i = 0; i < params_.run_kernel_packets; ++i) {
    eth_->host_to_node(n, params_.packet_payload_bytes, net::EthKind::kUdp,
                       [this, n] {
                         if (--packets_pending_[n.value] > 0) return;
                         states_[n.value] = NodeBootState::kScuInit;
                         const sim::EngineRef host(&machine_->engine());
                         host.schedule(
                             params_.scu_init_cycles, [this, n] {
                               states_[n.value] = NodeBootState::kReady;
                               ++nodes_ready_;
                             });
                       });
  }
}

BootReport BootSequencer::boot() {
  BootReport report;
  const Cycle start = machine_->engine().now();

  // Power on the mesh: the HSSLs begin their training sequences while the
  // host streams boot kernels.
  machine_->mesh().power_on();
  for (int i = 0; i < machine_->num_nodes(); ++i) {
    load_boot_kernel(NodeId{static_cast<u32>(i)});
  }
  // Drain: boot packet deliveries, hardware tests, SCU init and training.
  // A dead wire never finishes training; its events simply stop, so the
  // queue empties and we fall through to report it instead of spinning.
  machine_->engine().run_while([this] {
    return nodes_ready_ + nodes_failed_ < machine_->num_nodes() ||
           !machine_->mesh().all_trained();
  });
  report.link_training_ok = machine_->mesh().all_trained();
  if (!report.link_training_ok) {
    report.untrained_links = machine_->mesh().untrained_links();
    for (const auto& ref : report.untrained_links) {
      QCDOC_WARN << "boot: wire " << ref.node.value << "/" << ref.link.value
                 << " failed to train";
      // Both ends of a dead wire are unusable for mesh traffic.
      const NodeId ends[2] = {
          ref.node, machine_->topology().neighbor(ref.node, ref.link)};
      for (const NodeId n : ends) {
        auto& st = states_[n.value];
        if (st == NodeBootState::kHardwareFailed) continue;
        if (st == NodeBootState::kReady) --nodes_ready_;
        st = NodeBootState::kHardwareFailed;
        ++nodes_failed_;
      }
    }
  }

  // Run kernels check the partition interrupts: node 0 raises a line and
  // every healthy node must see it at the next sampling point.
  int nodes_seen = 0;
  machine_->mesh().pirq().set_interrupt_handler(
      [&nodes_seen](NodeId, u8) { ++nodes_seen; });
  machine_->mesh().pirq().raise(NodeId{0}, 0x1);
  machine_->engine().run_while(
      [&] { return nodes_seen < machine_->num_nodes(); });
  machine_->mesh().pirq().set_interrupt_handler({});
  report.partition_interrupt_ok = nodes_seen == machine_->num_nodes();
  for (int i = 0; i < machine_->num_nodes(); ++i) {
    if (states_[static_cast<std::size_t>(i)] ==
        NodeBootState::kHardwareFailed) {
      report.failed_nodes.push_back(NodeId{static_cast<u32>(i)});
    }
  }

  report.total_cycles = machine_->engine().now() - start;
  report.jtag_packets = eth_->jtag_packets();
  report.udp_packets = eth_->packets_delivered() - eth_->jtag_packets();
  report.detected_shape = machine_->topology().shape();
  report.nodes_ready = nodes_ready_;
  QCDOC_INFO << "boot complete: " << report.nodes_ready << " nodes in "
             << machine_->seconds(report.total_cycles) << " s";
  return report;
}

BootImageCache::BootImageCache(machine::Machine* m, net::EthernetTree* eth,
                               ImageCacheParams params)
    : machine_(m), eth_(eth), params_(params) {}

ImageLoadReport BootImageCache::load(const std::string& image,
                                     std::span<const NodeId> nodes) {
  ImageLoadReport rep;
  auto [it, inserted] = resident_.try_emplace(
      image, static_cast<std::size_t>(machine_->num_nodes()), false);
  std::vector<bool>& bits = it->second;

  std::vector<NodeId> cold;
  for (const NodeId n : nodes) {
    if (bits[n.value]) {
      ++hits_;
      ++rep.warm_nodes;
    } else {
      ++misses_;
      ++rep.cold_nodes;
      cold.push_back(n);
    }
  }

  const Cycle start = machine_->engine().now();
  if (cold.empty()) {
    // Warm start: the image is resident everywhere; only the entry jump and
    // SCU re-arm run, modelled as a fixed host delay.
    machine_->engine().run_until(start + params_.warm_start_cycles);
    rep.cycles = machine_->engine().now() - start;
    return rep;
  }
  // Stream the image to the cold nodes over the Ethernet tree, exactly the
  // run-kernel half of a full boot, and drain until every packet lands.
  int pending = 0;
  for (const NodeId n : cold) {
    pending += params_.packets_per_node;
    for (int i = 0; i < params_.packets_per_node; ++i) {
      eth_->host_to_node(n, params_.packet_payload_bytes, net::EthKind::kUdp,
                         [&pending] { --pending; });
    }
  }
  machine_->engine().run_while([&pending] { return pending > 0; });
  for (const NodeId n : cold) bits[n.value] = true;
  rep.cycles = machine_->engine().now() - start;
  return rep;
}

void BootImageCache::invalidate_node(NodeId n) {
  for (auto& [image, bits] : resident_) bits[n.value] = false;
}

bool BootImageCache::resident(const std::string& image, NodeId n) const {
  const auto it = resident_.find(image);
  return it != resident_.end() && it->second[n.value];
}

}  // namespace qcdoc::host
