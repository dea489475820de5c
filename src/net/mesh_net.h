// The assembled mesh: every node's SCU wired to its 12 neighbours through
// bit-serial HSSL links over the 6-D torus (paper Figure 2, red network).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hssl/hssl.h"
#include "memsys/memsys.h"
#include "memsys/scrub.h"
#include "scu/partition_interrupt.h"
#include "scu/scu.h"
#include "sim/engine.h"
#include "torus/coords.h"

namespace qcdoc::net {

/// Physical condition of one node's ASIC, as set by fault injection and read
/// back (indirectly) by the host's health sweeps.  A hung node stops making
/// forward progress but its SCU hardware still acknowledges; a crashed node
/// is electrically gone -- all its outgoing wires are dead.
enum class NodeCondition {
  kOk,
  kHung,
  kCrashed,
};

const char* to_string(NodeCondition c);

/// One directed link endpoint: `node`'s outgoing wire on `link`.
struct LinkRef {
  NodeId node;
  torus::LinkIndex link;
};

struct MeshConfig {
  torus::Shape shape;
  hssl::HsslConfig hssl;
  scu::ScuConfig scu;
  memsys::MemConfig mem;
  u64 seed = 0x9c0dull;
  /// Partition-interrupt transmit window (a multiple of the ~40 MHz global
  /// clock period, long enough for a flood to cross the machine).
  Cycle pirq_window_cycles = 1 << 14;
};

class MeshNet {
 public:
  MeshNet(sim::Engine* engine, MeshConfig cfg);
  /// Untags this mesh's AFFSAN regions (no-op without QCDOC_AFFSAN), so a
  /// later mesh reusing the same heap addresses starts untainted.
  ~MeshNet();

  const torus::Torus& topology() const { return topology_; }
  int num_nodes() const { return topology_.num_nodes(); }
  sim::Engine& engine() { return *engine_; }
  const MeshConfig& config() const { return cfg_; }

  scu::Scu& scu(NodeId n) { return *scus_[n.value]; }
  memsys::NodeMemory& memory(NodeId n) { return *memories_[n.value]; }
  hssl::Hssl& wire(NodeId from, torus::LinkIndex l);

  /// Power on every HSSL; links train and then exchange idle bytes.
  void power_on();
  /// O(1): reads the count the wires keep of themselves (untrained_count).
  [[nodiscard]] bool all_trained() const { return untrained_count() == 0; }
  /// Number of wires not in the trained state, maintained by every HSSL
  /// state change (power-on, training done, fail, retrain).
  long untrained_count() const {
    return untrained_wires_.load(std::memory_order_acquire);
  }
  /// Every outgoing wire that is not currently in the trained state (a
  /// scan, for reports).
  std::vector<LinkRef> untrained_links() const;
  /// Every outgoing link whose send side has declared a fault.
  std::vector<LinkRef> faulted_links() const;

  /// Node condition (fault-injection state; kOk unless a fault was applied).
  NodeCondition condition(NodeId n) const {
    return conditions_[n.value];
  }
  void set_condition(NodeId n, NodeCondition c) { conditions_[n.value] = c; }

  /// Machine-wide partition-interrupt domain (flooding over all mesh links).
  scu::PirqDomain& pirq() { return *pirq_; }

  /// Compare the send/receive checksums of every directed link; the paper's
  /// end-of-calculation confirmation that no erroneous data was exchanged.
  [[nodiscard]] bool verify_link_checksums(
      std::vector<std::string>* mismatches = nullptr) const;

  /// Sum one link counter over every directed link.  `name` is one of
  /// hssl.{frames, bits, bits_flipped, trained, retrains} or
  /// scu.{data_received, acks, nack_resends, timeout_resends, sup_resends,
  /// detected_errors, undetected_errors, pirq_received}; any other name
  /// throws std::invalid_argument.
  u64 total_stat(const std::string& name) const;

  /// Start a background ECC scrubber on every node (idempotent; the config
  /// of the first call wins).  Off by default: an unscrubbed machine
  /// schedules no scrub events, keeping fault-free traces -- including the
  /// committed golden trace -- bit-identical.
  void start_scrubbing(memsys::ScrubConfig cfg = memsys::ScrubConfig{});
  [[nodiscard]] bool scrubbing() const { return !scrubbers_.empty(); }
  memsys::MemScrubber& scrubber(NodeId n) { return *scrubbers_[n.value]; }

  /// ECC counters summed over every node (corrected errors, machine
  /// checks, scrub effort) for health reports and benches.
  memsys::EccCounters total_ecc() const;

  /// True when no data transfer is in progress anywhere in the machine
  /// (O(1): the DMA engines maintain a shared in-flight counter).
  [[nodiscard]] bool quiescent() const {
    return active_transfers_.value() == 0;
  }

  /// Run the event engine until the mesh is quiescent.  Returns false (and
  /// stops) if the event queue empties while transfers are still pending --
  /// the signature of a stalled link, which on the real machine blocks the
  /// whole self-synchronizing calculation.
  [[nodiscard]] bool drain();

 private:
  sim::Engine* engine_;
  MeshConfig cfg_;
  torus::Torus topology_;
  std::vector<std::unique_ptr<memsys::NodeMemory>> memories_;
  std::vector<std::unique_ptr<scu::Scu>> scus_;
  // wires_[node * kLinksPerNode + link]: the outgoing serial wire.
  std::vector<std::unique_ptr<hssl::Hssl>> wires_;
  std::unique_ptr<scu::PirqDomain> pirq_;
  std::vector<std::unique_ptr<memsys::MemScrubber>> scrubbers_;
  std::vector<NodeCondition> conditions_;
  scu::ActiveCounter active_transfers_;
  std::atomic<long> untrained_wires_{0};
  bool powered_ = false;
};

}  // namespace qcdoc::net
