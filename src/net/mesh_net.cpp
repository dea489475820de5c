#include "net/mesh_net.h"

#include <cassert>
#include <sstream>

#include "sim/affinity_guard.h"

namespace qcdoc::net {

using torus::LinkIndex;

const char* to_string(NodeCondition c) {
  switch (c) {
    case NodeCondition::kOk: return "ok";
    case NodeCondition::kHung: return "hung";
    case NodeCondition::kCrashed: return "crashed";
  }
  return "?";
}

MeshNet::MeshNet(sim::Engine* engine, MeshConfig cfg)
    : engine_(engine), cfg_(cfg), topology_(cfg.shape) {
  const int n = topology_.num_nodes();
  Rng machine_rng(cfg_.seed);

  memories_.reserve(static_cast<std::size_t>(n));
  stats_.reserve(static_cast<std::size_t>(n));
  scus_.reserve(static_cast<std::size_t>(n));
  wires_.resize(static_cast<std::size_t>(n) * torus::kLinksPerNode);
  conditions_.assign(static_cast<std::size_t>(n), NodeCondition::kOk);

  cfg_.scu.active_transfers = &active_transfers_;
  for (int i = 0; i < n; ++i) {
    memories_.push_back(std::make_unique<memsys::NodeMemory>(cfg_.mem));
    stats_.push_back(std::make_unique<sim::StatSet>());
    scus_.push_back(std::make_unique<scu::Scu>(
        sim::EngineRef(engine_, static_cast<sim::Affinity>(i)),
        memories_.back().get(), cfg_.scu,
        Rng(cfg_.seed, NodeId{static_cast<u32>(i)}), stats_.back().get()));
    // Tag the node's state regions for the affinity sanitizer: mutating
    // them from an event on another affinity without a declared touched
    // set is a trap (DESIGN.md section 6).
    QCDOC_AFFSAN_OWN(memories_.back().get(), sizeof(memsys::NodeMemory),
                     static_cast<sim::Affinity>(i), "memsys::NodeMemory");
    QCDOC_AFFSAN_OWN(scus_.back().get(), sizeof(scu::Scu),
                     static_cast<sim::Affinity>(i), "scu::Scu");
  }
  // Create the outgoing wires and attach them, then connect the endpoints.
  for (int i = 0; i < n; ++i) {
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      auto wire = std::make_unique<hssl::Hssl>(
          sim::EngineRef(engine_, static_cast<sim::Affinity>(i)), cfg_.hssl,
          machine_rng.split(), stats_[static_cast<std::size_t>(i)].get());
      QCDOC_AFFSAN_OWN(wire.get(), sizeof(hssl::Hssl),
                       static_cast<sim::Affinity>(i), "hssl::Hssl");
      wire->track_untrained(&untrained_wires_);
      scus_[static_cast<std::size_t>(i)]->attach_outgoing_wire(LinkIndex{l},
                                                               wire.get());
      wires_[static_cast<std::size_t>(i) * torus::kLinksPerNode +
             static_cast<std::size_t>(l)] = std::move(wire);
    }
  }
  for (int i = 0; i < n; ++i) {
    const NodeId node{static_cast<u32>(i)};
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const LinkIndex link{l};
      const NodeId to = topology_.neighbor(node, link);
      scus_[static_cast<std::size_t>(i)]->connect_to(link, *scus_[to.value]);
      // The wire's delivery events execute at the receiving node.
      wire(node, link).set_delivery_affinity(to.value);
    }
  }
  // Machine-wide interrupt domain flooding over every mesh link.
  pirq_ = std::make_unique<scu::PirqDomain>(engine_, cfg_.pirq_window_cycles);
  std::vector<LinkIndex> all_links;
  for (int l = 0; l < torus::kLinksPerNode; ++l) all_links.push_back(LinkIndex{l});
  for (int i = 0; i < n; ++i) {
    pirq_->add_node(NodeId{static_cast<u32>(i)},
                    scus_[static_cast<std::size_t>(i)].get(), all_links);
  }
}

MeshNet::~MeshNet() {
  for (const auto& m : memories_) QCDOC_AFFSAN_DISOWN(m.get());
  for (const auto& s : scus_) QCDOC_AFFSAN_DISOWN(s.get());
  for (const auto& w : wires_) QCDOC_AFFSAN_DISOWN(w.get());
}

void MeshNet::start_scrubbing(memsys::ScrubConfig cfg) {
  if (!scrubbers_.empty()) return;
  const int n = topology_.num_nodes();
  scrubbers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Scrub bursts execute at their node, like SCU traffic, so the parallel
    // engine shards them and the walk order is thread-count independent.
    const sim::EngineRef node_engine(engine_, static_cast<sim::Affinity>(i));
    scrubbers_.push_back(std::make_unique<memsys::MemScrubber>(
        node_engine, memories_[static_cast<std::size_t>(i)].get(), cfg,
        stats_[static_cast<std::size_t>(i)].get()));
    scrubbers_.back()->start();
  }
}

memsys::EccCounters MeshNet::total_ecc() const {
  memsys::EccCounters total;
  for (const auto& mem : memories_) total += mem->ecc().counters();
  return total;
}

hssl::Hssl& MeshNet::wire(NodeId from, LinkIndex l) {
  return *wires_[static_cast<std::size_t>(from.value) * torus::kLinksPerNode +
                 static_cast<std::size_t>(l.value)];
}

void MeshNet::power_on() {
  if (powered_) return;
  powered_ = true;
  for (auto& w : wires_) w->power_on();
}

std::vector<LinkRef> MeshNet::untrained_links() const {
  std::vector<LinkRef> out;
  for (std::size_t i = 0; i < wires_.size(); ++i) {
    if (!wires_[i]->trained()) {
      out.push_back(LinkRef{
          NodeId{static_cast<u32>(i / torus::kLinksPerNode)},
          LinkIndex{static_cast<int>(i % torus::kLinksPerNode)}});
    }
  }
  return out;
}

std::vector<LinkRef> MeshNet::faulted_links() const {
  std::vector<LinkRef> out;
  for (std::size_t i = 0; i < scus_.size(); ++i) {
    const u32 mask = scus_[i]->faulted_links();
    if (!mask) continue;
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      if (mask & (1u << l)) {
        out.push_back(LinkRef{NodeId{static_cast<u32>(i)}, LinkIndex{l}});
      }
    }
  }
  return out;
}

bool MeshNet::verify_link_checksums(std::vector<std::string>* mismatches) const {
  bool ok = true;
  for (const auto& edge : topology_.edges()) {
    const u64 sent = scus_[edge.from.value]->send_checksum(edge.link);
    const u64 received =
        scus_[edge.to.value]->recv_checksum(torus::facing_link(edge.link));
    if (sent != received) {
      ok = false;
      if (mismatches) {
        std::ostringstream msg;
        msg << "link " << edge.from.value << " -> " << edge.to.value
            << " (link index " << edge.link.value << "): send checksum 0x"
            << std::hex << sent << " != recv checksum 0x" << received;
        mismatches->push_back(msg.str());
      }
    }
  }
  return ok;
}

u64 MeshNet::total_stat(const std::string& name) const {
  u64 sum = 0;
  for (const auto& s : stats_) sum += s->get(name);
  return sum;
}

bool MeshNet::drain() { return engine_->drain(active_transfers_); }

}  // namespace qcdoc::net
