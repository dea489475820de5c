// User-level message-passing API (paper Section 3.3).
//
// "The communications API allows the user to control the settings of the
// DMA units in the SCUs."  A Communicator binds a machine to a logical
// partition and exposes the operations QCD needs:
//
//   - shifts: every node transfers a block-strided region to its logical
//     neighbour along one partition axis (the halo exchange primitive);
//     posted as real SCU DMAs, drained by the BSP runtime.
//   - global sums (the SCU global mode), functional and bit-reproducible.
//
// The SCU's stored DMA instructions are not modelled (scu/scu.h says why):
// a stored start would make the same DMA starts post_shift makes.
//
// "The temporal ordering of a start send on one node and start receive on
// another is not important" -- the idle-receive hardware holds early words,
// and the shift API exposes that by allowing sends to be posted before the
// matching receives.
#pragma once

#include <span>
#include <vector>

#include "machine/machine.h"
#include "scu/dma.h"
#include "torus/partition.h"

namespace qcdoc::comms {

class Communicator {
 public:
  Communicator(machine::Machine* m, const torus::Partition* p);

  const torus::Partition& partition() const { return *partition_; }
  machine::Machine& machine() { return *machine_; }
  int num_nodes() const { return partition_->num_nodes(); }

  /// Machine node backing a partition rank.
  NodeId node_of_rank(int rank) const { return nodes_[static_cast<std::size_t>(rank)]; }

  /// Post a shift: rank r sends `send_descs[r]` one step along logical dim
  /// `ldim` in `dir`; the receiving rank lands it via its own entry of
  /// `recv_descs`.  Descriptors are indexed by partition rank.  Sends and
  /// receives may be posted in either order (idle receive covers the gap).
  void post_shift(int ldim, torus::Dir dir,
                  std::span<const scu::DmaDescriptor> send_descs,
                  std::span<const scu::DmaDescriptor> recv_descs);

  struct GlobalSumResult {
    double value = 0;  ///< identical on every node, bit-reproducible
    Cycle cycles = 0;  ///< dimension-wise ring time (doubled link sets)
  };
  /// Global sum of one double per rank, performed dimension-wise with the
  /// doubled SCU global mode (Sum Ni/2 hops; paper Section 2.2).
  GlobalSumResult global_sum(std::span<const double> per_rank,
                             bool doubled = true, bool cut_through = true) const;

 private:
  machine::Machine* machine_;
  const torus::Partition* partition_;
  std::vector<NodeId> nodes_;  // rank -> machine node
};

}  // namespace qcdoc::comms
