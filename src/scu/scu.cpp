#include "scu/scu.h"

#include <cassert>

#include "sim/affinity_guard.h"

namespace qcdoc::scu {

using torus::LinkIndex;

Scu::Scu(sim::EngineRef engine, memsys::NodeMemory* memory, ScuConfig cfg,
         Rng rng)
    : engine_(engine), memory_(memory), cfg_(cfg), rng_(rng) {
  // Receive sides exist from power-on (they own the idle-receive registers);
  // send sides are created when the outgoing wires are attached.
  for (int l = 0; l < torus::kLinksPerNode; ++l) {
    recv_[static_cast<std::size_t>(l)] =
        std::make_unique<RecvSide>(engine_, cfg_.link, rng_.split());
    recv_dma_[static_cast<std::size_t>(l)] = std::make_unique<RecvDma>(
        engine_, memory_, recv_[static_cast<std::size_t>(l)].get(),
        cfg_.active_transfers);
    const LinkIndex link{l};
    recv_[static_cast<std::size_t>(l)]->set_supervisor_handler(
        [this, link](u64 word) {
          if (supervisor_handler_) supervisor_handler_(link, word);
        });
  }
}

void Scu::attach_outgoing_wire(LinkIndex l, hssl::Hssl* wire) {
  auto& slot = send_[static_cast<std::size_t>(l.value)];
  assert(!slot && "wire already attached");
  slot = std::make_unique<SendSide>(engine_, wire, cfg_.link);
  slot->set_on_link_fault([this, l] { faulted_links_ |= 1u << l.value; });
  send_dma_[static_cast<std::size_t>(l.value)] =
      std::make_unique<SendDma>(engine_, memory_, slot.get(),
                                cfg_.active_transfers);
}

void Scu::connect_to(LinkIndex l, Scu& neighbor) {
  // Our send side on link l feeds the neighbour's receive side on the facing
  // link; the neighbour acknowledges over its own facing send side.
  const LinkIndex facing = torus::facing_link(l);
  SendSide& ours = send_side(l);
  RecvSide& theirs = neighbor.recv_side(facing);
  ours.set_remote(&theirs);
  theirs.set_reverse(&neighbor.send_side(facing));
}

SendSide& Scu::send_side(LinkIndex l) {
  auto& p = send_[static_cast<std::size_t>(l.value)];
  assert(p && "no wire attached on this link");
  return *p;
}

RecvSide& Scu::recv_side(LinkIndex l) {
  return *recv_[static_cast<std::size_t>(l.value)];
}

SendDma& Scu::send_dma(LinkIndex l) {
  auto& p = send_dma_[static_cast<std::size_t>(l.value)];
  assert(p && "no wire attached on this link");
  return *p;
}

RecvDma& Scu::recv_dma(LinkIndex l) {
  return *recv_dma_[static_cast<std::size_t>(l.value)];
}

void Scu::send_supervisor(LinkIndex l, u64 word) {
  QCDOC_AFFSAN_CHECK(this);
  send_side(l).enqueue_supervisor(word);
}

void Scu::set_supervisor_handler(sim::SmallFn<void(LinkIndex, u64)> fn) {
  supervisor_handler_ = std::move(fn);
}

void Scu::clear_link_fault(LinkIndex l) {
  QCDOC_AFFSAN_CHECK(this);
  faulted_links_ &= ~(1u << l.value);
  send_side(l).clear_fault();
}

u64 Scu::send_checksum(LinkIndex l) { return send_side(l).checksum(); }

u64 Scu::recv_checksum(LinkIndex l) { return recv_side(l).checksum(); }

bool Scu::quiescent() const {
  for (int l = 0; l < torus::kLinksPerNode; ++l) {
    const auto idx = static_cast<std::size_t>(l);
    if (send_dma_[idx] && send_dma_[idx]->active()) return false;
    if (recv_dma_[idx] && recv_dma_[idx]->active()) return false;
    if (send_[idx] && !send_[idx]->data_drained()) return false;
  }
  return true;
}

}  // namespace qcdoc::scu
