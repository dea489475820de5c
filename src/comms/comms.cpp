#include "comms/comms.h"

#include <cassert>

#include "comms/global_sum.h"

namespace qcdoc::comms {

using torus::Dir;

Communicator::Communicator(machine::Machine* m, const torus::Partition* p)
    : machine_(m), partition_(p), nodes_(p->nodes()) {}

void Communicator::post_shift(int ldim, Dir dir,
                              std::span<const scu::DmaDescriptor> send_descs,
                              std::span<const scu::DmaDescriptor> recv_descs) {
  assert(send_descs.size() == nodes_.size());
  assert(recv_descs.size() == nodes_.size());
  const int n = num_nodes();
  for (int r = 0; r < n; ++r) {
    const torus::Coord lc = partition_->logical_coord(r);
    const auto step = partition_->step(lc, ldim, dir);
    assert(step.single_hop && "shift requires a nearest-neighbour embedding");
    // At logical extent 1 (step.to == step.from) the shift is a local copy:
    // the data loops back through this node's own wire pair (the torus
    // self-link).
    // Receiver rank: the logical coordinate one step along.
    torus::Coord to_lc = lc;
    const int e = partition_->logical_shape().extent[ldim];
    to_lc.c[ldim] = (to_lc.c[ldim] + static_cast<int>(dir) + e) % e;
    const int to_rank = partition_->rank(to_lc);

    auto& sender_scu = machine_->scu(step.from);
    auto& receiver_scu = machine_->scu(step.to);
    receiver_scu.recv_dma(torus::facing_link(step.link))
        .start(recv_descs[static_cast<std::size_t>(to_rank)]);
    sender_scu.send_dma(step.link).start(
        send_descs[static_cast<std::size_t>(r)]);
  }
}

Communicator::GlobalSumResult Communicator::global_sum(
    std::span<const double> per_rank, bool doubled, bool cut_through) const {
  GlobalSumResult result;
  result.value = partition_global_sum(*partition_, per_rank);
  result.cycles = partition_global_sum_cycles(
      *partition_, scu::GlobalOpTiming{.cut_through = cut_through}, doubled);
  return result;
}

}  // namespace qcdoc::comms
