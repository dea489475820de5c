#include "comms/global_sum.h"

#include <cassert>
#include <vector>

#include "scu/packet.h"

namespace qcdoc::comms {

double partition_global_sum(const torus::Partition& p,
                            std::span<const double> per_rank) {
  const int n = p.num_nodes();
  assert(static_cast<int>(per_rank.size()) == n);
  // Dimension-wise combination, ring by ring, in canonical position order:
  // after processing dim d, every node in a d-ring holds the ring's sum.
  std::vector<double> values(per_rank.begin(), per_rank.end());
  for (int l = 0; l < p.logical_dims(); ++l) {
    const int e = p.logical_shape().extent[l];
    if (e <= 1) continue;
    std::vector<double> next(values.size(), 0.0);
    std::vector<bool> done(values.size(), false);
    for (int r = 0; r < n; ++r) {
      if (done[static_cast<std::size_t>(r)]) continue;
      // Sum this ring in position order.
      torus::Coord c = p.logical_coord(r);
      double ring_sum = 0.0;
      for (int x = 0; x < e; ++x) {
        c.c[l] = x;
        ring_sum += values[static_cast<std::size_t>(p.rank(c))];
      }
      for (int x = 0; x < e; ++x) {
        c.c[l] = x;
        const auto rr = static_cast<std::size_t>(p.rank(c));
        next[rr] = ring_sum;
        done[rr] = true;
      }
    }
    values.swap(next);
  }
  return values.empty() ? 0.0 : values[0];
}

Cycle partition_global_sum_cycles(const torus::Partition& p,
                                  const scu::GlobalOpTiming& t, bool doubled) {
  return partition_global_sum_cycles(p, t, doubled, 1);
}

Cycle partition_global_sum_cycles(const torus::Partition& p,
                                  const scu::GlobalOpTiming& t, bool doubled,
                                  int words) {
  Cycle total = 0;
  for (int l = 0; l < p.logical_dims(); ++l) {
    const int e = p.logical_shape().extent[l];
    if (e <= 1) continue;
    // One ring pass; rings of the same dimension are concurrent.  Timing
    // uses dummy values (identical ring length everywhere).
    std::vector<double> dummy(static_cast<std::size_t>(e), 0.0);
    const auto ring = scu::ring_allreduce(t, dummy, doubled);
    total += ring.completion_cycles;
    if (words > 1) {
      // Additional words pipeline behind the first: each adds one frame of
      // serialization per word already in flight on the busiest link.
      total += static_cast<Cycle>(words - 1) * ring.words_per_link *
               static_cast<Cycle>(scu::kWordFrameBits);
    }
  }
  return total;
}

}  // namespace qcdoc::comms
