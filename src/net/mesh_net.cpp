#include "net/mesh_net.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "sim/affinity_guard.h"

namespace qcdoc::net {

using torus::LinkIndex;

namespace {

/// total_stat's names, each read from one directed link: its wire, the send
/// side that drives the wire, and the receive side on the same node and
/// link index (which the neighbour's facing wire feeds).
struct NamedCounter {
  const char* name;
  u64 (*read)(const hssl::Hssl&, const scu::SendSide&, const scu::RecvSide&);
};
using W = const hssl::Hssl&;
using S = const scu::SendSide&;
using R = const scu::RecvSide&;
constexpr NamedCounter kCounters[] = {
    {"hssl.frames", [](W w, S, R) { return w.frames(); }},
    {"hssl.bits", [](W w, S, R) { return w.bits(); }},
    {"hssl.bits_flipped", [](W w, S, R) { return w.bits_flipped(); }},
    {"hssl.trained", [](W w, S, R) { return w.times_trained(); }},
    {"hssl.retrains", [](W w, S, R) { return w.retrains(); }},
    {"scu.data_received", [](W, S, R r) { return r.words_received(); }},
    {"scu.acks", [](W, S s, R) { return s.acks(); }},
    {"scu.nack_resends", [](W, S s, R) { return s.nack_resends(); }},
    {"scu.timeout_resends", [](W, S s, R) { return s.timeout_resends(); }},
    {"scu.sup_resends", [](W, S s, R) { return s.sup_resends(); }},
    {"scu.detected_errors", [](W, S, R r) { return r.detected_errors(); }},
    {"scu.undetected_errors", [](W, S, R r) { return r.undetected_errors(); }},
    {"scu.pirq_received", [](W, S, R r) { return r.pirq_received(); }},
};

}  // namespace

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
  scus_.reserve(static_cast<std::size_t>(n));
  wires_.resize(static_cast<std::size_t>(n) * torus::kLinksPerNode);
  conditions_.assign(static_cast<std::size_t>(n), NodeCondition::kOk);

  cfg_.scu.active_transfers = &active_transfers_;
  for (int i = 0; i < n; ++i) {
    memories_.push_back(std::make_unique<memsys::NodeMemory>(cfg_.mem));
    scus_.push_back(std::make_unique<scu::Scu>(
        sim::EngineRef(engine_, static_cast<sim::Affinity>(i)),
        memories_.back().get(), cfg_.scu,
        Rng(cfg_.seed, NodeId{static_cast<u32>(i)})));
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
          machine_rng.split());
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
        node_engine, memories_[static_cast<std::size_t>(i)].get(), cfg));
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
  const auto* counter =
      std::find_if(std::begin(kCounters), std::end(kCounters),
                   [&name](const NamedCounter& c) { return name == c.name; });
  if (counter == std::end(kCounters)) {
    throw std::invalid_argument("MeshNet::total_stat: unknown counter '" +
                                name + "'");
  }
  u64 sum = 0;
  for (std::size_t i = 0; i < scus_.size(); ++i) {
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      const LinkIndex link{l};
      sum += counter->read(
          *wires_[i * torus::kLinksPerNode + static_cast<std::size_t>(l)],
          scus_[i]->send_side(link), scus_[i]->recv_side(link));
    }
  }
  return sum;
}

bool MeshNet::drain() { return engine_->drain(active_transfers_); }

}  // namespace qcdoc::net
