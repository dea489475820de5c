// Machine health monitoring (paper Sections 2.3, 3.1 and 4).
//
// The qdaemon is "responsible for ... keeping track of the status of the
// nodes (including hardware problems)", and the Ethernet/JTAG controller is
// "an I/O path to monitor and probe a failing node" that works with no
// software running on it.  The HealthMonitor turns those two facts into a
// periodic sweep: probe every node over JTAG, read back the SCU link-fault
// and error counters, classify each node healthy / degraded / failed, and
// drive recovery -- retrain marginal serial links, quarantine dead nodes so
// the qdaemon never allocates a partition over them.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "machine/machine.h"
#include "net/ethernet.h"
#include "sim/stats.h"

namespace qcdoc::host {

class Qdaemon;

enum class NodeHealth {
  kHealthy,   ///< no fault indications this sweep
  kDegraded,  ///< marginal links (resends / detected errors / escalations)
  kFailed,    ///< crashed, hung, or with dead outgoing wires; quarantined
};

const char* to_string(NodeHealth h);

struct HealthConfig {
  /// Cycles between sweeps when monitoring continuously.
  Cycle sweep_period_cycles = 1 << 16;
  /// A link whose send side resent at least this many words since the last
  /// sweep is marginal (a healthy link resends rarely).
  u64 degraded_resend_delta = 4;
  /// Same threshold on a receive side's detected (parity/type) errors.
  u64 degraded_error_delta = 4;
  /// A node whose ECC hardware corrected at least this many single-bit
  /// memory errors since the last sweep is degraded: the corrections are
  /// harmless individually, but a burst means a marginal DRAM cell or a
  /// particle-flux hot spot that will eventually produce an uncorrectable
  /// word.
  u64 degraded_corrected_mem_delta = 8;
  /// A node that has accumulated this many *uncorrectable* memory errors
  /// over its lifetime is failed and quarantined -- repeated machine
  /// checks mean bad silicon, not bad luck.
  u64 quarantine_mem_uncorrectable = 4;
};

/// What one sweep found and did.
struct HealthSweep {
  Cycle at = 0;
  int healthy = 0;
  int degraded = 0;
  int failed = 0;
  std::vector<NodeId> newly_failed;
  std::vector<net::LinkRef> retrained;
  std::vector<std::string> notes;  ///< human-readable findings
  u64 mem_corrected = 0;      ///< ECC single-bit corrections this interval
  u64 mem_uncorrectable = 0;  ///< machine checks consumed this sweep
  int machine_checked = 0;    ///< nodes that latched a machine check
};

class HealthMonitor {
 public:
  /// `qd` may be null (no quarantine sink: classification + retraining only).
  HealthMonitor(machine::Machine* m, net::EthernetTree* eth, Qdaemon* qd,
                HealthConfig cfg = HealthConfig{});

  /// Probe every node now (advances the engine by the JTAG round trips) and
  /// apply recovery actions.
  ///
  /// A sweep is genuinely GLOBAL: it reads every node's SCU fault and error
  /// counters, every memory controller's ECC tallies, and drives retraining
  /// on any marginal link -- its touched set is the whole machine, so it
  /// cannot ride inside a parallel window under the bounded-affinity
  /// host-event contract (DESIGN.md).  That is fine here: sweeps are rare
  /// (default every 2^16 cycles) and the engine pauses at a host slice for
  /// them.  Detectors that need to run *densely* alongside a job sample
  /// per-node instead -- see ScuWatchdog::arm() for the pattern.
  HealthSweep sweep();

  /// Run the engine for `duration` cycles, sweeping every sweep_period.
  /// Each sweep runs in its own host slice (a window seam); see sweep()
  /// for why the sweep cannot be decomposed into node-affine events.
  void monitor_for(Cycle duration);

  /// Targeted re-sweep: probe and re-classify only `nodes`, applying the
  /// full sweep policy (JTAG round trip, link/ECC deltas, retraining,
  /// quarantine) without touching the rest of the machine.  Partition
  /// teardown uses this so freed nodes return to the allocatable pool only
  /// after their health has been re-established -- a box released by a job
  /// that died on marginal hardware must not be handed to the next tenant
  /// unprobed.
  HealthSweep probe_nodes(std::span<const NodeId> nodes);

  /// Out-of-band failure report from another detector (e.g. the qdaemon's
  /// SCU watchdog): mark the node failed immediately -- without waiting for
  /// the next sweep -- and quarantine it when a qdaemon is attached.
  /// Idempotent.
  void report_external_failure(NodeId n, const std::string& reason);

  NodeHealth health(NodeId n) const { return health_[n.value]; }
  u64 sweeps() const { return sweeps_; }
  const sim::StatSet& stats() const { return stats_; }
  const HealthConfig& config() const { return cfg_; }

  /// Classification plus per-wire/per-node counter baselines as captured
  /// into a snapshot, so the first post-restore sweep judges the same
  /// interval it would have judged uninterrupted.
  struct State {
    std::vector<NodeHealth> health;  ///< per node
    std::vector<u64> resend_base;
    std::vector<u64> recv_err_base;
    std::vector<u64> mem_corrected_base;
    u64 sweeps = 0;
  };
  State capture_state() const;
  /// Returns false (and changes nothing) when the vector sizes do not match
  /// this machine's geometry.
  [[nodiscard]] bool restore_state(const State& state);

 private:
  /// One node's probe + classification + recovery actions -- the shared body
  /// of sweep() (all nodes) and probe_nodes() (a targeted subset).
  void classify_node(NodeId node, HealthSweep* rep);

  machine::Machine* machine_;
  net::EthernetTree* eth_;
  Qdaemon* qdaemon_;
  HealthConfig cfg_;

  std::vector<NodeHealth> health_;
  /// Per directed wire [node * kLinksPerNode + link]: counter baselines from
  /// the previous sweep, so each sweep judges the interval, not the total.
  std::vector<u64> resend_base_;
  std::vector<u64> recv_err_base_;
  /// Per node: ECC corrected-error baseline from the previous sweep.
  std::vector<u64> mem_corrected_base_;
  u64 sweeps_ = 0;
  sim::StatSet stats_;
};

}  // namespace qcdoc::host
