// Fault-injection campaigns (paper Sec. 4 bring-up, turned into a harness).
//
// Building and debugging a 10 Teraflops machine means living with marginal
// serial links, dead daughterboards and hung nodes.  This module schedules
// deterministic fault events against a MeshNet so the detection and recovery
// machinery (SCU link-fault escalation, host health sweeps, checksum audits,
// CG restart) can be exercised reproducibly: the same seed always yields the
// same campaign, the same simulation, the same recovery -- the repo-wide
// bit-reproducibility requirement applied to failure paths.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/mesh_net.h"
#include "torus/coords.h"

namespace qcdoc::fault {

/// Scheduler-visible failure classes: why a job submitted to the host's
/// JobScheduler ended (or re-queued) abnormally.  The scheduler classifies
/// every abnormal outcome into exactly one of these, so the fault-campaign
/// benches and the telemetry stream can aggregate failures by cause the
/// same way the injection side aggregates by FaultKind.
enum class JobFailure {
  kNone,              ///< job ran to completion
  kAdmissionRejected, ///< never accepted (queue bound / quota / bad request)
  kPartitionRevoked,  ///< quarantine hit the partition; triggers migration
  kLinkFault,         ///< SCU link fault escalated during the job
  kDeadlineExpired,   ///< exceeded its cycle budget; bounded re-queue
  kApplicationError,  ///< the job body reported failure
  kCheckpointLost,    ///< migration could not capture or restore job state
};

const char* to_string(JobFailure f);

enum class FaultKind {
  kBerSpike,        ///< transient: one wire's bit-error rate jumps
  kLinkDeath,       ///< permanent (until retrain): one wire dies outright
  kNodeCrash,       ///< one ASIC goes electrically dead: all 12 wires die
  kNodeHang,        ///< one CPU stops making progress; SCU still acks
  kAckDropBurst,    ///< a burst of acknowledgement frames is lost
  kDataCorruption,  ///< multi-bit flips that slip past parity (undetected)
  kMemUpset,        ///< soft error in EDRAM/DDR: bit flips in one codeword
};

const char* to_string(FaultKind k);

/// One scheduled fault.  Which fields matter depends on `kind`; unused ones
/// are ignored.
struct FaultEvent {
  Cycle at = 0;
  FaultKind kind = FaultKind::kBerSpike;
  NodeId node{0};               ///< owning node of the affected wire
  torus::LinkIndex link{0};     ///< outgoing link index on `node`
  double bit_error_rate = 0.0;  ///< kBerSpike: the spiked rate
  Cycle duration = 0;           ///< kBerSpike: 0 = permanent, else restore
  int count = 0;                ///< kAckDropBurst/kDataCorruption/kMemUpset
  // kMemUpset: target word and first bit.  With `mem_addr_is_index` the
  // address is entropy resolved at apply time against the node's allocated
  // words (a random upset only matters where software keeps data); `count`
  // bits starting at `mem_bit` flip within the same 64-bit word, so count=1
  // is SECDED-correctable and count>=2 is an uncorrectable codeword.
  u64 mem_addr = 0;
  int mem_bit = 0;
  bool mem_addr_is_index = false;
};

/// An ordered list of fault events, built by hand for targeted tests or
/// generated pseudo-randomly for soak campaigns.
class FaultPlan {
 public:
  FaultPlan& ber_spike(Cycle at, NodeId node, torus::LinkIndex link,
                       double rate, Cycle duration = 0);
  FaultPlan& link_death(Cycle at, NodeId node, torus::LinkIndex link);
  FaultPlan& node_crash(Cycle at, NodeId node);
  FaultPlan& node_hang(Cycle at, NodeId node);
  FaultPlan& ack_drop_burst(Cycle at, NodeId node, torus::LinkIndex link,
                            int count);
  FaultPlan& data_corruption(Cycle at, NodeId node, torus::LinkIndex link,
                             int count);
  /// A soft error in node memory: `bits` flips (starting at `bit`) within
  /// one 64-bit word at `word_addr`.  bits=1 is correctable by SECDED;
  /// bits>=2 makes the codeword uncorrectable and latches a machine check.
  FaultPlan& mem_upset(Cycle at, NodeId node, u64 word_addr, int bits = 1,
                       int bit = 0);
  /// Entropy-addressed variant: the injector resolves `index` against the
  /// node's allocated words at apply time, so campaigns hit live data
  /// without knowing the allocation layout in advance.
  FaultPlan& mem_upset_indexed(Cycle at, NodeId node, u64 index,
                               int bits = 1, int bit = 0);

  const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Rebuild a plan from raw events (the snapshot layer re-arms the unfired
  /// remainder of a campaign after a process restart).
  static FaultPlan from_events(std::vector<FaultEvent> events);

  /// A seed-deterministic soak campaign: `n` events of mixed kinds spread
  /// uniformly over [start, start + horizon) against random wires of a
  /// machine of the given shape.  Node crashes are excluded (they end a
  /// soak run immediately); use node_crash() explicitly when wanted.
  static FaultPlan random_campaign(u64 seed, const torus::Shape& shape, int n,
                                   Cycle start, Cycle horizon);

  /// A seed-deterministic sustained memory-upset campaign: `n` soft errors
  /// spread uniformly over [start, start + horizon) against random nodes,
  /// entropy-addressed into each node's allocated words.  A fraction
  /// `uncorrectable_fraction` of the events flip two bits of one word
  /// (beyond SECDED); the rest are single-bit and correctable.
  static FaultPlan sustained_mem_upsets(u64 seed, const torus::Shape& shape,
                                        int n, Cycle start, Cycle horizon,
                                        double uncorrectable_fraction = 0.0);

 private:
  std::vector<FaultEvent> events_;
};

/// Applies a FaultPlan to a live mesh by scheduling each event on the mesh's
/// engine.  The injector only *breaks* things; detection and recovery belong
/// to the SCU escalation path and the host health monitor.
class FaultInjector {
 public:
  explicit FaultInjector(net::MeshNet* mesh);

  /// Schedule every event of `plan`.  Events whose time is already in the
  /// past fire at now().  May be called repeatedly with different plans.
  void arm(const FaultPlan& plan);

  u64 injected() const { return injected_; }
  /// Fired events of `kind` among those this injector armed.
  u64 injected(FaultKind kind) const;

  /// Armed-but-unfired events: the plan remainder a snapshot carries so a
  /// restored process can re-arm exactly the faults still to come.  These
  /// are also the injector's pending events in the engine queue, which the
  /// snapshot layer must account for when requiring quiescence.
  std::vector<FaultEvent> pending_plan() const;
  std::size_t pending_count() const;
  /// Snapshot hook: restore the lifetime injected counter.
  void restore_injected(u64 n) { injected_ = n; }

 private:
  /// Break what `e` names: the body of every event arm() schedules.
  void apply(const FaultEvent& e);

  net::MeshNet* mesh_;
  u64 injected_ = 0;
  /// Every event ever armed, with its fired flag.  Host-affinity events run
  /// only on the coordinator thread, so no locking is needed.
  std::vector<std::pair<FaultEvent, bool>> armed_;
};

}  // namespace qcdoc::fault
