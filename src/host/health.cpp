#include "host/health.h"

#include <algorithm>

#include "common/log.h"
#include "host/qdaemon.h"

namespace qcdoc::host {

const char* to_string(NodeHealth h) {
  switch (h) {
    case NodeHealth::kHealthy: return "healthy";
    case NodeHealth::kDegraded: return "degraded";
    case NodeHealth::kFailed: return "failed";
  }
  return "?";
}

HealthMonitor::HealthMonitor(machine::Machine* m, net::EthernetTree* eth,
                             Qdaemon* qd, HealthConfig cfg)
    : machine_(m), eth_(eth), qdaemon_(qd), cfg_(cfg) {
  const auto n = static_cast<std::size_t>(m->num_nodes());
  health_.assign(n, NodeHealth::kHealthy);
  resend_base_.assign(n * torus::kLinksPerNode, 0);
  recv_err_base_.assign(n * torus::kLinksPerNode, 0);
  mem_corrected_base_.assign(n, 0);
}

void HealthMonitor::classify_node(NodeId node, HealthSweep* out) {
  HealthSweep& rep = *out;
  net::MeshNet& mesh = machine_->mesh();
  const auto& topo = machine_->topology();
  const int i = static_cast<int>(node.value);

  const auto retrain_wire = [&](NodeId owner, torus::LinkIndex l) {
    // retrain() is a no-op while already training, so a wire flagged by
    // both its sender and its receiver in one sweep retrains only once.
    if (mesh.wire(owner, l).state() == hssl::LinkState::kTraining) return;
    mesh.wire(owner, l).retrain();
    mesh.scu(owner).clear_link_fault(l);
    ++retrains_;
    rep.retrained.push_back(net::LinkRef{owner, l});
  };

  // Ethernet/JTAG probe: one command/response round trip per node.  This
  // path decodes in pure hardware, so it works even on a node with no
  // software running (the paper's "probe a failing node").
  bool probe_done = false;
  eth_->host_to_node(node, 64, net::EthKind::kJtag, [this, node, &probe_done] {
    eth_->node_to_host(node, 64, [&probe_done] { probe_done = true; });
  });
  machine_->engine().run_while([&] { return !probe_done; });

  NodeHealth verdict = NodeHealth::kHealthy;
  const net::NodeCondition cond = mesh.condition(node);
  if (cond != net::NodeCondition::kOk) {
    verdict = NodeHealth::kFailed;
    rep.notes.push_back("node " + std::to_string(i) + ": " +
                        net::to_string(cond));
  }

  scu::Scu& node_scu = mesh.scu(node);
  for (int l = 0; l < torus::kLinksPerNode; ++l) {
    const torus::LinkIndex link{l};
    const std::size_t w = static_cast<std::size_t>(i) * torus::kLinksPerNode +
                          static_cast<std::size_t>(l);
    const u64 resends = node_scu.send_side(link).resends();
    const u64 resend_delta = resends - resend_base_[w];
    resend_base_[w] = resends;
    const u64 errors = node_scu.recv_side(link).detected_errors();
    const u64 error_delta = errors - recv_err_base_[w];
    recv_err_base_[w] = errors;

    hssl::Hssl& wire = mesh.wire(node, link);
    if (wire.failed()) {
      // A dead outgoing wire makes the node unusable for mesh traffic.
      verdict = NodeHealth::kFailed;
      rep.notes.push_back("node " + std::to_string(i) + " link " +
                          std::to_string(l) + ": wire failed");
      continue;
    }
    const bool escalated = (node_scu.faulted_links() >> l) & 1u;
    if (escalated || resend_delta >= cfg_.degraded_resend_delta) {
      if (verdict == NodeHealth::kHealthy) verdict = NodeHealth::kDegraded;
      rep.notes.push_back("node " + std::to_string(i) + " link " +
                          std::to_string(l) +
                          (escalated ? ": link-fault escalation"
                                     : ": resend burst"));
      retrain_wire(node, link);
    }
    if (error_delta >= cfg_.degraded_error_delta) {
      // Our receive side saw the parity failures, but the marginal wire
      // is the *incoming* one, owned by the neighbour on the facing link.
      if (verdict == NodeHealth::kHealthy) verdict = NodeHealth::kDegraded;
      rep.notes.push_back("node " + std::to_string(i) + " link " +
                          std::to_string(l) + ": receive error burst");
      retrain_wire(topo.neighbor(node, link), torus::facing_link(link));
    }
  }

  // Memory resilience ladder (memsys/ecc.h).  Rung 1: a burst of ECC
  // single-bit corrections since the last sweep degrades the node.  Rung
  // 2: any machine check (uncorrectable codeword) degrades it and is
  // consumed here, re-arming the latch like a read-to-clear register.
  // Rung 3: enough lifetime uncorrectable errors fail and quarantine it.
  memsys::EccModel& ecc = mesh.memory(node).ecc();
  const u64 corrected_now = ecc.counters().corrected;
  const u64 corrected_delta =
      corrected_now - mem_corrected_base_[static_cast<std::size_t>(i)];
  mem_corrected_base_[static_cast<std::size_t>(i)] = corrected_now;
  rep.mem_corrected += corrected_delta;
  if (corrected_delta >= cfg_.degraded_corrected_mem_delta) {
    if (verdict == NodeHealth::kHealthy) verdict = NodeHealth::kDegraded;
    rep.notes.push_back("node " + std::to_string(i) + ": " +
                        std::to_string(corrected_delta) +
                        " corrected memory errors since last sweep");
  }
  const auto checks = ecc.consume_machine_checks();
  if (!checks.empty()) {
    ++rep.machine_checked;
    rep.mem_uncorrectable += checks.size();
    if (verdict == NodeHealth::kHealthy) verdict = NodeHealth::kDegraded;
    rep.notes.push_back("node " + std::to_string(i) + ": " +
                        std::to_string(checks.size()) +
                        " machine check(s), uncorrectable memory");
  }
  if (ecc.counters().uncorrectable >= cfg_.quarantine_mem_uncorrectable) {
    verdict = NodeHealth::kFailed;
    rep.notes.push_back("node " + std::to_string(i) + ": " +
                        std::to_string(ecc.counters().uncorrectable) +
                        " lifetime uncorrectable memory errors");
  }

  if (health_[static_cast<std::size_t>(i)] == NodeHealth::kFailed) {
    verdict = NodeHealth::kFailed;  // failure is sticky
  } else if (verdict == NodeHealth::kFailed) {
    rep.newly_failed.push_back(node);
    if (qdaemon_) qdaemon_->quarantine_node(node);
  }
  health_[static_cast<std::size_t>(i)] = verdict;
  switch (verdict) {
    case NodeHealth::kHealthy: ++rep.healthy; break;
    case NodeHealth::kDegraded: ++rep.degraded; break;
    case NodeHealth::kFailed: ++rep.failed; break;
  }
}

HealthSweep HealthMonitor::sweep() {
  ++sweeps_;
  HealthSweep rep;
  const int n = machine_->num_nodes();
  for (int i = 0; i < n; ++i) {
    classify_node(NodeId{static_cast<u32>(i)}, &rep);
  }
  rep.at = machine_->engine().now();
  for (const auto& note : rep.notes) QCDOC_INFO << "health: " << note;
  return rep;
}

HealthSweep HealthMonitor::probe_nodes(std::span<const NodeId> nodes) {
  HealthSweep rep;
  for (const NodeId n : nodes) classify_node(n, &rep);
  rep.at = machine_->engine().now();
  for (const auto& note : rep.notes) QCDOC_INFO << "health: " << note;
  return rep;
}

void HealthMonitor::report_external_failure(NodeId n,
                                            const std::string& reason) {
  if (health_[n.value] == NodeHealth::kFailed) return;
  health_[n.value] = NodeHealth::kFailed;
  QCDOC_INFO << "health: node " << n.value
             << " failed (external report): " << reason;
  if (qdaemon_) qdaemon_->quarantine_node(n);
}

HealthMonitor::State HealthMonitor::capture_state() const {
  State st;
  st.health = health_;
  st.resend_base = resend_base_;
  st.recv_err_base = recv_err_base_;
  st.mem_corrected_base = mem_corrected_base_;
  st.sweeps = sweeps_;
  return st;
}

bool HealthMonitor::restore_state(const State& state) {
  if (state.health.size() != health_.size() ||
      state.resend_base.size() != resend_base_.size() ||
      state.recv_err_base.size() != recv_err_base_.size() ||
      state.mem_corrected_base.size() != mem_corrected_base_.size()) {
    return false;
  }
  health_ = state.health;
  resend_base_ = state.resend_base;
  recv_err_base_ = state.recv_err_base;
  mem_corrected_base_ = state.mem_corrected_base;
  sweeps_ = state.sweeps;
  return true;
}

void HealthMonitor::monitor_for(Cycle duration) {
  sim::Engine& engine = machine_->engine();
  const Cycle end = engine.now() + duration;
  while (engine.now() < end) {
    const Cycle next =
        std::min(end, engine.now() + cfg_.sweep_period_cycles);
    engine.run_until(next);
    sweep();
  }
}

}  // namespace qcdoc::host
