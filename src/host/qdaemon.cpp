#include "host/qdaemon.h"

#include <cassert>

#include "common/log.h"

namespace qcdoc::host {

Qdaemon::Qdaemon(machine::Machine* m, net::EthernetConfig eth_cfg,
                 BootParams boot_params)
    : machine_(m), boot_params_(boot_params) {
  eth_cfg.cpu_clock_hz = m->hw().cpu_clock_hz;
  eth_ = std::make_unique<net::EthernetTree>(&m->engine(), eth_cfg,
                                             m->num_nodes());
  sequencer_ = std::make_unique<BootSequencer>(machine_, eth_.get(), boot_params_);
  node_used_.assign(static_cast<std::size_t>(m->num_nodes()), false);
  quarantined_.assign(static_cast<std::size_t>(m->num_nodes()), false);
}

const BootReport& Qdaemon::boot() {
  if (!boot_report_) {
    boot_report_ = sequencer_->boot();
    // Hardware problems found during boot: quarantine those nodes so no
    // partition is ever placed over them.
    for (const auto bad : boot_report_->failed_nodes) {
      quarantine_node(bad);
    }
  }
  return *boot_report_;
}

int Qdaemon::machine_nodes() const { return machine_->num_nodes(); }

std::vector<NodeId> Qdaemon::failed_nodes() const {
  return quarantined_nodes();
}

void Qdaemon::quarantine_node(NodeId n) {
  if (quarantined_[n.value]) return;
  quarantined_[n.value] = true;
  QCDOC_WARN << "qdaemon: node " << n.value << " quarantined";
  // Revoke every allocation placed over the bad node, so stale handles are
  // detectable (valid() false) instead of dangling into a dead partition.
  for (auto& [id, alloc] : partitions_) {
    if (alloc.revoked) continue;
    for (const NodeId pn : alloc.partition->nodes()) {
      if (pn == n) {
        alloc.revoked = true;
        alloc.revoke_reason =
            "node " + std::to_string(n.value) + " quarantined";
        QCDOC_WARN << "qdaemon: partition '" << alloc.name << "' (id " << id
                   << ") revoked: " << alloc.revoke_reason;
        break;
      }
    }
  }
  for (const auto& cb : quarantine_callbacks_) cb(n);
}

void Qdaemon::on_quarantine(std::function<void(NodeId)> cb) {
  quarantine_callbacks_.push_back(std::move(cb));
}

std::vector<NodeId> Qdaemon::quarantined_nodes() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < quarantined_.size(); ++i) {
    if (quarantined_[i]) out.push_back(NodeId{static_cast<u32>(i)});
  }
  return out;
}

HealthMonitor& Qdaemon::health(HealthConfig cfg) {
  if (!health_) {
    health_ = std::make_unique<HealthMonitor>(machine_, eth_.get(), this, cfg);
  }
  return *health_;
}

ScuWatchdog& Qdaemon::watchdog(WatchdogConfig cfg) {
  if (!watchdog_) {
    watchdog_ = std::make_unique<ScuWatchdog>(machine_, &health(), cfg);
  }
  return *watchdog_;
}

ScuWatchdog::ScuWatchdog(machine::Machine* m, HealthMonitor* health,
                         WatchdogConfig cfg)
    : machine_(m), health_(health), cfg_(cfg) {
  const auto n = static_cast<std::size_t>(m->num_nodes());
  last_recv_.assign(n, 0);
  last_progress_.assign(n, m->engine().now());
  flagged_.assign(n, false);
}

void ScuWatchdog::arm(Cycle duration) {
  if (armed_) return;
  armed_ = true;
  const auto n = static_cast<std::size_t>(machine_->num_nodes());
  sampled_recv_.assign(n, 0);
  sampled_undrained_.assign(n, 0);
  sim::Engine& engine = machine_->engine();
  const Cycle end = engine.now() + duration;
  // Per-node samplers carry their own node's affinity (touched set: exactly
  // that node), so a running job keeps its parallel windows; only the
  // correlation event, one cycle behind each sampling instant, is a host
  // event -- and host events bound windows without demoting them.
  for (u32 i = 0; i < static_cast<u32>(n); ++i) {
    sim::EngineRef node_ref(&engine, i);
    node_ref.schedule(cfg_.check_period_cycles,
                      [this, i, end] { sample_node(i, end); });
  }
  sim::EngineRef host_ref(&engine);
  const Cycle sampled_at = engine.now() + cfg_.check_period_cycles;
  host_ref.schedule(cfg_.check_period_cycles + 1,
                    [this, sampled_at, end] { correlate(sampled_at, end); });
}

void ScuWatchdog::sample_node(u32 i, Cycle end) {
  const NodeId node{i};
  scu::Scu& s = machine_->mesh().scu(node);
  u64 received = 0;
  u32 undrained = 0;
  for (int l = 0; l < torus::kLinksPerNode; ++l) {
    received += s.recv_side(torus::LinkIndex{l}).words_received();
    if (!s.send_side(torus::LinkIndex{l}).data_drained()) {
      undrained |= 1u << l;
    }
  }
  const auto idx = static_cast<std::size_t>(i);
  sampled_recv_[idx] = received;
  sampled_undrained_[idx] = undrained;
  sim::EngineRef self_ref(&machine_->engine(), i);
  if (self_ref.now() + cfg_.check_period_cycles <= end) {
    self_ref.schedule(cfg_.check_period_cycles,
                      [this, i, end] { sample_node(i, end); });
  }
}

void ScuWatchdog::correlate(Cycle sampled_at, Cycle end) {
  ++checks_;
  const auto& topo = machine_->topology();
  const int n = machine_->num_nodes();
  for (int i = 0; i < n; ++i) {
    const NodeId node{static_cast<u32>(i)};
    const auto idx = static_cast<std::size_t>(i);
    if (sampled_recv_[idx] != last_recv_[idx]) {
      last_recv_[idx] = sampled_recv_[idx];
      last_progress_[idx] = sampled_at;
      continue;
    }
    if (flagged_[idx]) continue;  // sticky: report a node at most once
    if (sampled_at - last_progress_[idx] < cfg_.stall_cycles) continue;
    // No receive progress for a full stall window.  Only a stall with data
    // *waiting* is a hang -- an idle node's counters freeze too -- so a
    // facing neighbour must have sampled undrained send data aimed at it.
    bool starving_neighbor = false;
    for (int l = 0; l < torus::kLinksPerNode && !starving_neighbor; ++l) {
      const torus::LinkIndex link{l};
      const NodeId peer = topo.neighbor(node, link);
      starving_neighbor =
          ((sampled_undrained_[peer.value] >>
            static_cast<u32>(torus::facing_link(link).value)) &
           1u) != 0;
    }
    if (!starving_neighbor) continue;
    flagged_[idx] = true;
    ++nodes_flagged_;
    QCDOC_WARN << "watchdog: node " << i << " made no receive progress for "
               << (sampled_at - last_progress_[idx])
               << " cycles with neighbour data pending (sampled)";
    if (health_) {
      health_->report_external_failure(node, "SCU receive progress stalled");
    }
  }
  const Cycle next_sample = sampled_at + cfg_.check_period_cycles;
  if (next_sample > end) {
    armed_ = false;
    return;
  }
  sim::EngineRef host_ref(&machine_->engine());
  host_ref.schedule(cfg_.check_period_cycles,
                    [this, next_sample, end] { correlate(next_sample, end); });
}

NodeBootState Qdaemon::node_state(NodeId n) const {
  return sequencer_->state(n);
}

bool Qdaemon::box_free(const torus::Coord& origin,
                       const torus::Shape& box) const {
  const auto& topo = machine_->topology();
  torus::Coord c;
  // Iterate the box (extents are small; at most the machine).
  const int vol = box.volume();
  for (int i = 0; i < vol; ++i) {
    int rest = i;
    for (int d = 0; d < torus::kMaxDims; ++d) {
      c.c[d] = origin.c[d] + rest % box.extent[d];
      rest /= box.extent[d];
    }
    const NodeId n = topo.id(c);
    if (node_used_[n.value] || quarantined_[n.value]) return false;
    if (exclude_degraded_ && health_ &&
        health_->health(n) != NodeHealth::kHealthy) {
      return false;
    }
  }
  return true;
}

void Qdaemon::mark_box(const torus::Coord& origin, const torus::Shape& box,
                       bool used) {
  const auto& topo = machine_->topology();
  torus::Coord c;
  const int vol = box.volume();
  for (int i = 0; i < vol; ++i) {
    int rest = i;
    for (int d = 0; d < torus::kMaxDims; ++d) {
      c.c[d] = origin.c[d] + rest % box.extent[d];
      rest /= box.extent[d];
    }
    node_used_[topo.id(c).value] = used;
  }
}

std::optional<PartitionHandle> Qdaemon::allocate_partition(
    const std::string& name, const torus::Shape& box, int logical_dims) {
  assert(logical_dims >= 1 && logical_dims <= torus::kMaxDims);
  // Default remap: identity on the first logical_dims-1 box dims, trailing
  // box dims folded into the last logical dim.
  torus::FoldSpec fold;
  fold.groups.resize(static_cast<std::size_t>(logical_dims));
  for (int d = 0; d < logical_dims - 1; ++d) {
    fold.groups[static_cast<std::size_t>(d)] = {d};
  }
  for (int d = logical_dims - 1; d < torus::kMaxDims; ++d) {
    if (box.extent[d] > 1 || d == logical_dims - 1) {
      fold.groups[static_cast<std::size_t>(logical_dims - 1)].push_back(d);
    }
  }
  return allocate_partition(name, box, std::move(fold));
}

std::optional<PartitionHandle> Qdaemon::allocate_partition(
    const std::string& name, const torus::Shape& box, torus::FoldSpec fold) {
  assert(booted() && "allocate_partition before boot");
  const auto& shape = machine_->topology().shape();
  for (int d = 0; d < torus::kMaxDims; ++d) {
    if (box.extent[d] > shape.extent[d] || shape.extent[d] % box.extent[d] != 0) {
      return std::nullopt;  // box must tile the machine dimension
    }
  }
  // First fit over box-aligned origins.
  torus::Coord origin;
  const auto try_origins = [&](auto&& self, int dim) -> bool {
    if (dim == torus::kMaxDims) {
      return box_free(origin, box);
    }
    for (int x = 0; x < shape.extent[dim]; x += box.extent[dim]) {
      origin.c[dim] = x;
      if (self(self, dim + 1)) return true;
    }
    origin.c[dim] = 0;
    return false;
  };
  if (!try_origins(try_origins, 0)) return std::nullopt;

  mark_box(origin, box, true);
  Allocation alloc;
  alloc.name = name;
  alloc.origin = origin;
  alloc.box = box;
  alloc.partition = std::make_unique<torus::Partition>(
      &machine_->topology(), std::move(fold), origin, box);
  const int id = next_partition_id_++;
  auto [it, inserted] = partitions_.emplace(id, std::move(alloc));
  assert(inserted);
  QCDOC_INFO << "partition '" << name << "' allocated: box " << box.to_string()
             << " at " << origin.to_string();
  return PartitionHandle{id, name, it->second.partition.get()};
}

void Qdaemon::release_partition(const PartitionHandle& h) {
  auto it = partitions_.find(h.id);
  if (it == partitions_.end()) return;
  // Re-establish the health of the freed nodes before they rejoin the
  // allocatable pool.  The probe may quarantine nodes (which then stay out
  // of the pool via quarantined_) or retrain marginal wires; either way the
  // next tenant never inherits an unprobed box.
  const std::vector<NodeId> freed = it->second.partition->nodes();
  health().probe_nodes(freed);
  mark_box(it->second.origin, it->second.box, false);
  partitions_.erase(it);
}

bool Qdaemon::valid(const PartitionHandle& h) const {
  const auto it = partitions_.find(h.id);
  return it != partitions_.end() && !it->second.revoked;
}

const torus::Partition* Qdaemon::partition(const PartitionHandle& h) const {
  const auto it = partitions_.find(h.id);
  if (it == partitions_.end() || it->second.revoked) return nullptr;
  return it->second.partition.get();
}

std::string Qdaemon::revocation_reason(const PartitionHandle& h) const {
  const auto it = partitions_.find(h.id);
  if (it == partitions_.end()) return "";
  return it->second.revoke_reason;
}

int Qdaemon::free_nodes() const {
  int n = 0;
  for (std::size_t i = 0; i < node_used_.size(); ++i) {
    if (!node_used_[i] && !quarantined_[i]) ++n;
  }
  return n;
}

JobResult Qdaemon::run_job(
    const PartitionHandle& h,
    const std::function<void(comms::Communicator&, std::vector<std::string>&)>&
        app) {
  JobResult result;
  auto it = partitions_.find(h.id);
  if (it == partitions_.end() || !app) return result;
  if (it->second.revoked) {
    result.output.push_back("job aborted: partition revoked: " +
                            it->second.revoke_reason);
    return result;
  }

  // Pre-flight: refuse to start over hardware known to be bad, and fail the
  // job cleanly with a diagnostic instead of hanging the user's qcsh.
  const std::vector<NodeId> nodes = it->second.partition->nodes();
  bool healthy = true;
  for (const NodeId n : nodes) {
    if (is_quarantined(n)) {
      result.output.push_back("job aborted: node " + std::to_string(n.value) +
                              " is quarantined");
      healthy = false;
    } else if (machine_->mesh().condition(n) != net::NodeCondition::kOk) {
      result.output.push_back(
          "job aborted: node " + std::to_string(n.value) + " is " +
          net::to_string(machine_->mesh().condition(n)));
      healthy = false;
    }
  }
  if (!healthy) return result;  // ok stays false

  // Snapshot the link-fault state so faults raised *during* the job fail it.
  std::vector<u32> fault_masks_before(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    fault_masks_before[i] = machine_->mesh().scu(nodes[i]).faulted_links();
  }

  comms::Communicator comm(machine_, it->second.partition.get());
  const Cycle start = machine_->engine().now();
  app(comm, result.output);
  result.cycles = machine_->engine().now() - start;

  bool faulted = false;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const u32 fresh = machine_->mesh().scu(nodes[i]).faulted_links() &
                      ~fault_masks_before[i];
    if (!fresh) continue;
    faulted = true;
    for (int l = 0; l < torus::kLinksPerNode; ++l) {
      if (fresh & (1u << l)) {
        result.output.push_back(
            "job failed: link fault on node " +
            std::to_string(nodes[i].value) + " link " + std::to_string(l));
      }
    }
  }
  result.ok = !faulted;
  return result;
}

}  // namespace qcdoc::host
