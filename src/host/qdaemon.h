// The qdaemon: host-side management software (paper Section 3.1).
//
// "Our primary host software is called the qdaemon.  This software is
// responsible for booting QCDOC, coordinating the initialization of the
// various networks, keeping track of the status of the nodes, allocating
// user partitions of QCDOC, loading and starting execution of applications,
// and returning application output to the user."
//
// The model provides exactly that surface: boot, node-status tracking,
// partition allocation (carving lower-dimensional sub-meshes out of the
// native six-dimensional machine, with the user choosing a dimensionality
// between one and six), and job execution against the communications API.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comms/comms.h"
#include "host/boot.h"
#include "host/health.h"
#include "machine/machine.h"
#include "net/ethernet.h"
#include "torus/partition.h"

namespace qcdoc::host {

/// A user's ticket for an allocated partition.  The embedded pointer is a
/// convenience for the common immediate-use path; code that holds a handle
/// across quarantine events (the job scheduler) must re-validate through
/// Qdaemon::valid() / Qdaemon::partition() instead of dereferencing a
/// possibly-revoked pointer -- quarantine revokes every allocation placed
/// over the bad node, and release destroys the Partition object.
struct PartitionHandle {
  int id = -1;
  std::string name;
  const torus::Partition* partition = nullptr;
};

struct JobResult {
  bool ok = false;
  Cycle cycles = 0;
  std::vector<std::string> output;  ///< lines returned to the user's qcsh
};

struct WatchdogConfig {
  /// Cycles between checks when watching continuously.
  Cycle check_period_cycles = 1 << 14;
  /// A node whose SCU has made no receive progress for this long, while a
  /// neighbour still has words queued for it, is declared stalled.
  Cycle stall_cycles = 1 << 16;
};

/// What one watchdog check found.
struct WatchdogReport {
  Cycle at = 0;
  std::vector<NodeId> stalled;  ///< nodes newly flagged this check
};

/// Host-side SCU receive-progress watchdog.  A hung CPU whose SCU still
/// acknowledges frames (fault::FaultKind::kNodeHang) is invisible to link
/// checks -- the wires are healthy -- but its neighbours' send queues back
/// up against it.  The watchdog reads each node's receive word counters
/// over JTAG; a node whose counters freeze while a facing neighbour still
/// has undrained send data is stalled, and gets reported to the
/// HealthMonitor for quarantine.  Idle nodes (no traffic pending) are
/// never flagged.
///
/// Two operating modes:
///   - check(): the synchronous diagnostic path.  The host reads live node
///     state directly, which is only legal with the engine stopped between
///     runs.
///   - arm(): the bounded-affinity monitoring path (DESIGN.md, "Host events
///     and the bounded-affinity contract").  Every check period each node
///     samples its OWN receive counters and send-drain bits with an event
///     carrying its own node affinity -- its touched set is exactly itself,
///     so samples execute inside parallel windows like any node traffic.
///     A host event one cycle later correlates the sampled slots using pure
///     host-side memory.  The watchdog therefore rides along a running job
///     without serializing the simulation.
class ScuWatchdog {
 public:
  /// `health` may be null (detection only, no escalation sink).
  ScuWatchdog(machine::Machine* m, HealthMonitor* health,
              WatchdogConfig cfg = WatchdogConfig{});

  /// Inspect every node now.  Flagging is sticky: a node is reported to
  /// the health monitor at most once.
  WatchdogReport check();

  /// Schedule the event-driven sampling mode for `duration` cycles from
  /// now, then return immediately; the caller runs the engine (typically by
  /// running a job).  Idempotent while armed; may be re-armed after the
  /// previous watch expires.
  void arm(Cycle duration);
  [[nodiscard]] bool armed() const { return armed_; }

  [[nodiscard]] bool stalled(NodeId n) const {
    return flagged_[n.value];
  }
  u64 checks() const { return checks_; }
  u64 nodes_flagged() const { return nodes_flagged_; }
  const WatchdogConfig& config() const { return cfg_; }

 private:
  /// Node-affine sampler body: node `i` records its receive-word sum and
  /// per-link send-undrained mask into its own slot.  Touches no other
  /// node's state.
  void sample_node(u32 i, Cycle end);
  /// Host correlation body: applies the check() stall policy to the
  /// sampled slots taken one cycle earlier; re-arms itself until the next
  /// sampling instant would pass `end`.
  void correlate(Cycle sampled_at, Cycle end);

  machine::Machine* machine_;
  HealthMonitor* health_;
  WatchdogConfig cfg_;
  /// Per node: last observed sum of receive-side word counters, the cycle
  /// at which that sum last advanced, and whether the node was reported.
  std::vector<u64> last_recv_;
  std::vector<Cycle> last_progress_;
  std::vector<bool> flagged_;
  /// arm() slots, one per node, each written only by its owning node's
  /// sampler event: receive-word sum and a bitmask of links whose send
  /// side still holds undrained data.
  std::vector<u64> sampled_recv_;
  std::vector<u32> sampled_undrained_;
  bool armed_ = false;
  u64 checks_ = 0;
  u64 nodes_flagged_ = 0;
};

class Qdaemon {
 public:
  explicit Qdaemon(machine::Machine* m,
                   net::EthernetConfig eth_cfg = net::EthernetConfig{},
                   BootParams boot_params = BootParams{});

  /// Boot the machine (idempotent).  Nodes become allocatable afterwards.
  const BootReport& boot();
  bool booted() const { return boot_report_.has_value(); }

  NodeBootState node_state(NodeId n) const;
  int machine_nodes() const;
  /// Nodes flagged by the boot hardware test or quarantined since; never
  /// allocated to partitions.
  std::vector<NodeId> failed_nodes() const;

  // --- Node-status tracking -----------------------------------------------
  /// Remove a node from the allocatable pool ("keeping track of the status
  /// of the nodes, including hardware problems").  Partitions already placed
  /// over it keep running -- their next job fails cleanly instead.
  void quarantine_node(NodeId n);
  bool is_quarantined(NodeId n) const {
    return quarantined_[n.value];
  }
  std::vector<NodeId> quarantined_nodes() const;

  /// Register a callback invoked synchronously whenever a node is newly
  /// quarantined (boot hardware test, health sweep, watchdog, or an explicit
  /// quarantine_node call).  The job scheduler uses this to learn that a
  /// running job's partition was revoked and must be migrated.  Callbacks
  /// run on the host thread with the engine stopped; they must not allocate
  /// or release partitions re-entrantly.
  void on_quarantine(std::function<void(NodeId)> cb);

  /// Periodic health sweeps over Ethernet/JTAG, wired back to this daemon
  /// for quarantining.  Created on first use.
  HealthMonitor& health(HealthConfig cfg = HealthConfig{});

  /// SCU receive-progress watchdog, wired to this daemon's health monitor
  /// so stalled nodes are quarantined.  Created on first use.
  ScuWatchdog& watchdog(WatchdogConfig cfg = WatchdogConfig{});

  /// Allocate a partition: a box of the machine with extents `box` (unused
  /// dims extent 1), remapped to `logical_dims` dimensions by folding
  /// trailing box dims together.  Returns nullopt when no aligned free box
  /// exists.  The user "requests that the qdaemon remap their partition to
  /// a dimensionality between one and six".
  std::optional<PartitionHandle> allocate_partition(const std::string& name,
                                                    const torus::Shape& box,
                                                    int logical_dims);
  /// Allocate with an explicit fold.
  std::optional<PartitionHandle> allocate_partition(const std::string& name,
                                                    const torus::Shape& box,
                                                    torus::FoldSpec fold);
  /// Tear down a partition.  The freed nodes are re-probed by the health
  /// monitor (JTAG round trip + counter deltas, advancing the engine) and
  /// only then returned to the allocatable pool -- a box released by a job
  /// that died on marginal hardware is never handed to the next tenant
  /// unprobed, and nodes the probe quarantines stay out of the pool.
  /// Synchronous: when this returns, the surviving nodes are allocatable.
  void release_partition(const PartitionHandle& h);
  int free_nodes() const;

  /// True while `h` refers to a live allocation that has not been revoked
  /// by quarantine.  A handle becomes invalid when release_partition() is
  /// called on it or when any node under it is quarantined.
  [[nodiscard]] bool valid(const PartitionHandle& h) const;
  /// The live partition behind `h`, or nullptr once the handle is invalid.
  /// Holders of long-lived handles must use this instead of the pointer
  /// embedded in the handle (which dangles after release).
  const torus::Partition* partition(const PartitionHandle& h) const;
  /// Why `h` stopped being valid ("" while valid or never allocated).
  std::string revocation_reason(const PartitionHandle& h) const;

  /// When set, the partition allocator also skips HealthMonitor-degraded
  /// nodes, not just quarantined ones.  Off by default (degraded nodes are
  /// usable, just marginal); the job scheduler turns it on so migrated jobs
  /// land on clean hardware.
  void set_allocation_excludes_degraded(bool on) { exclude_degraded_ = on; }

  /// Run an application (SPMD, expressed against the communications API) on
  /// a partition; output lines are returned as the qcsh data stream.
  JobResult run_job(const PartitionHandle& h,
                    const std::function<void(comms::Communicator&,
                                             std::vector<std::string>&)>& app);

  net::EthernetTree& ethernet() { return *eth_; }
  machine::Machine& machine() { return *machine_; }

 private:
  struct Allocation {
    std::string name;
    torus::Coord origin;
    torus::Shape box;
    std::unique_ptr<torus::Partition> partition;
    /// Set when quarantine hits a node under this allocation.  The
    /// Partition object stays alive (a draining job may still read its
    /// geometry) but valid() is false and run_job refuses to start.
    bool revoked = false;
    std::string revoke_reason;
  };

  bool box_free(const torus::Coord& origin, const torus::Shape& box) const;
  void mark_box(const torus::Coord& origin, const torus::Shape& box, bool used);

  machine::Machine* machine_;
  std::unique_ptr<net::EthernetTree> eth_;
  BootParams boot_params_;
  std::optional<BootReport> boot_report_;
  std::unique_ptr<BootSequencer> sequencer_;
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<ScuWatchdog> watchdog_;
  std::vector<bool> node_used_;
  std::vector<bool> quarantined_;
  /// Keyed by partition id; ids are never reused, so a stale handle's id
  /// simply misses the map and valid() is false.
  std::map<int, Allocation> partitions_;
  int next_partition_id_ = 0;
  bool exclude_degraded_ = false;
  std::vector<std::function<void(NodeId)>> quarantine_callbacks_;
};

}  // namespace qcdoc::host
