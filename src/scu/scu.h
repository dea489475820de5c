// The per-node Serial Communications Unit (paper Section 2.2).
//
// One SCU manages 24 independent unidirectional connections: a send side and
// a receive side for each of the 12 nearest neighbours in the 6-D mesh.  It
// owns the DMA engines, the supervisor-packet registers, and the per-link
// checksums.
//
// The paper's stored DMA instructions ("only a single write is needed to
// start up to 24 communications") save the CPU the register writes of a
// repeated transfer.  The model charges the CPU nothing for programming a
// descriptor, so a stored start would cost exactly what a
// Communicator::post_shift start costs; stored descriptors are not
// modelled.
#pragma once

#include <array>
#include <memory>

#include "common/rng.h"
#include "memsys/memsys.h"
#include "scu/dma.h"
#include "scu/link.h"
#include "sim/event_fn.h"
#include "torus/coords.h"

namespace qcdoc::scu {

struct ScuConfig {
  LinkParams link;
  /// Machine-wide in-flight transfer counter (owned by the network).
  ActiveCounter* active_transfers = nullptr;
};

class Scu {
 public:
  Scu(sim::EngineRef engine, memsys::NodeMemory* memory, ScuConfig cfg,
      Rng rng);

  /// Attach the outgoing serial wire for link `l`; creates the send side and
  /// its DMA engine.  Called once per link by the network builder.
  void attach_outgoing_wire(torus::LinkIndex l, hssl::Hssl* wire);

  /// Wire our outgoing link `l` to `neighbor`'s facing receive side, and
  /// route that side's acknowledgements back over the neighbour's facing
  /// send side.  Both SCUs must already have their wires attached.
  void connect_to(torus::LinkIndex l, Scu& neighbor);

  SendSide& send_side(torus::LinkIndex l);
  RecvSide& recv_side(torus::LinkIndex l);
  SendDma& send_dma(torus::LinkIndex l);
  RecvDma& recv_dma(torus::LinkIndex l);
  [[nodiscard]] bool has_link(torus::LinkIndex l) const {
    return send_[static_cast<std::size_t>(l.value)] != nullptr;
  }

  // --- Supervisor packets -------------------------------------------------
  /// Send a 64-bit supervisor word to the neighbour on `l`; its arrival
  /// raises an interrupt at the remote CPU.
  void send_supervisor(torus::LinkIndex l, u64 word);
  /// Handler invoked (with the arrival link and word) when a supervisor
  /// packet lands here.
  void set_supervisor_handler(sim::SmallFn<void(torus::LinkIndex, u64)> fn);

  // --- Link-fault escalation ----------------------------------------------
  /// Bit i set: our outgoing link i has been declared faulted.
  u32 faulted_links() const { return faulted_links_; }
  /// Clear the faulted flag for link `l` after a successful wire retrain,
  /// re-arming the send side's escalation machinery.
  void clear_link_fault(torus::LinkIndex l);

  // --- Checksums (end-of-run data-integrity confirmation) -----------------
  u64 send_checksum(torus::LinkIndex l);
  u64 recv_checksum(torus::LinkIndex l);

  /// True when no transfer is in progress on any link.
  [[nodiscard]] bool quiescent() const;

  memsys::NodeMemory& memory() { return *memory_; }
  sim::Engine& engine() { return *engine_.get(); }
  const ScuConfig& config() const { return cfg_; }

 private:
  sim::EngineRef engine_;
  memsys::NodeMemory* memory_;
  ScuConfig cfg_;
  Rng rng_;

  std::array<std::unique_ptr<SendSide>, torus::kLinksPerNode> send_;
  std::array<std::unique_ptr<RecvSide>, torus::kLinksPerNode> recv_;
  std::array<std::unique_ptr<SendDma>, torus::kLinksPerNode> send_dma_;
  std::array<std::unique_ptr<RecvDma>, torus::kLinksPerNode> recv_dma_;
  sim::SmallFn<void(torus::LinkIndex, u64)> supervisor_handler_;
  u32 faulted_links_ = 0;
};

}  // namespace qcdoc::scu
