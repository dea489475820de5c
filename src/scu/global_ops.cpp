#include "scu/global_ops.h"

#include <algorithm>
#include <cassert>

#include "hssl/hssl.h"
#include "scu/packet.h"

namespace qcdoc::scu {
namespace {

/// A word frame's serialization time at one bit per cycle.
constexpr auto kFrameCycles = static_cast<Cycle>(kWordFrameBits);
constexpr Cycle kWireDelay = hssl::kWireDelayCycles;

/// Per-hop forwarding delay from a word's head arriving to the relay being
/// able to start retransmitting it.
Cycle forward_bits(const GlobalOpTiming& t) {
  return t.cut_through ? static_cast<Cycle>(kPassthroughBits) : kFrameCycles;
}

/// One ring direction carrying every origin's word up to `max_dist` hops.
/// Fills `arrival[i]` with the completion time of the last word reaching
/// node i from this direction, and returns the per-link word count.
/// `step(node)` gives the next node in this direction.
template <typename StepFn>
u64 sweep_direction(const GlobalOpTiming& t, int n, int max_dist,
                    StepFn step, std::vector<Cycle>& arrival) {
  if (max_dist <= 0) return 0;
  // link_free[j]: edge out of node j.  head[j]: when the current word's head
  // is available for forwarding at node j.
  std::vector<Cycle> link_free(static_cast<std::size_t>(n), kInjectCycles);
  std::vector<Cycle> head(static_cast<std::size_t>(n), 0);

  // Hop 1: every node transmits its own word simultaneously.
  for (int o = 0; o < n; ++o) {
    const Cycle start = link_free[static_cast<std::size_t>(o)];
    link_free[static_cast<std::size_t>(o)] = start + kFrameCycles;
    const int next = step(o);
    head[static_cast<std::size_t>(next)] = start + forward_bits(t) + kWireDelay;
    arrival[static_cast<std::size_t>(next)] =
        std::max(arrival[static_cast<std::size_t>(next)],
                 start + kFrameCycles + kWireDelay);
  }
  // Hops 2..max_dist: forward in arrival order; per-link FIFO is preserved
  // because we advance all words one hop per outer iteration.
  std::vector<Cycle> next_head(static_cast<std::size_t>(n), 0);
  for (int h = 2; h <= max_dist; ++h) {
    for (int relay = 0; relay < n; ++relay) {
      const auto r = static_cast<std::size_t>(relay);
      const Cycle start = std::max(link_free[r], head[r]);
      link_free[r] = start + kFrameCycles;
      const int next = step(relay);
      const auto x = static_cast<std::size_t>(next);
      next_head[x] = start + forward_bits(t) + kWireDelay;
      arrival[x] = std::max(arrival[x], start + kFrameCycles + kWireDelay);
    }
    std::swap(head, next_head);
  }
  return static_cast<u64>(max_dist);
}

}  // namespace

RingReduceResult ring_allreduce(const GlobalOpTiming& t,
                                std::span<const double> values, bool doubled) {
  const int n = static_cast<int>(values.size());
  RingReduceResult r;
  // Canonical summation order: bit-identical on every node and every run.
  for (double v : values) r.sum += v;
  r.node_done.assign(static_cast<std::size_t>(std::max(n, 1)), 0);
  if (n <= 1) return r;

  std::vector<Cycle> arrival(static_cast<std::size_t>(n), 0);
  if (!doubled) {
    r.words_per_link = sweep_direction(
        t, n, n - 1, [n](int j) { return (j + 1) % n; }, arrival);
    r.max_hops = static_cast<u64>(n - 1);
  } else {
    // Two disjoint link sets: the plus direction carries each word
    // ceil((n-1)/2) hops, the minus direction floor((n-1)/2).
    const int d_plus = (n - 1 + 1) / 2;
    const int d_minus = (n - 1) / 2;
    sweep_direction(t, n, d_plus, [n](int j) { return (j + 1) % n; }, arrival);
    sweep_direction(t, n, d_minus, [n](int j) { return (j - 1 + n) % n; },
                    arrival);
    r.words_per_link = static_cast<u64>(d_plus);
    r.max_hops = static_cast<u64>(d_plus);
  }
  for (int i = 0; i < n; ++i) {
    r.node_done[static_cast<std::size_t>(i)] =
        arrival[static_cast<std::size_t>(i)] + kStoreCycles;
    r.completion_cycles =
        std::max(r.completion_cycles, r.node_done[static_cast<std::size_t>(i)]);
  }
  return r;
}

BroadcastResult ring_broadcast(const GlobalOpTiming& t, int n, bool doubled) {
  BroadcastResult r;
  r.node_done.assign(static_cast<std::size_t>(std::max(n, 1)), 0);
  if (n <= 1) return r;
  for (int i = 1; i < n; ++i) {
    const int dist_plus = i;
    const int dist_minus = n - i;
    const int hops = doubled ? std::min(dist_plus, dist_minus) : dist_plus;
    // A single word has no link contention: the head streams through each
    // relay after `forward_bits`, and the tail lands a frame after the head
    // left the origin.
    const Cycle arrival =
        kInjectCycles + kFrameCycles + kWireDelay +
        static_cast<Cycle>(hops - 1) * (forward_bits(t) + kWireDelay);
    r.node_done[static_cast<std::size_t>(i)] = arrival + kStoreCycles;
    r.completion_cycles =
        std::max(r.completion_cycles, r.node_done[static_cast<std::size_t>(i)]);
  }
  return r;
}

}  // namespace qcdoc::scu
