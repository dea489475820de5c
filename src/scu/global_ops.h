// SCU global operations (paper Section 2.2, "Global operations").
//
// In global mode the SCU forwards incoming link data to any combination of
// the other links (and to memory) after buffering only 8 bits -- cut-through
// rather than store-and-forward -- which "markedly reduces the latency" per
// node passed through.  The global functionality is doubled: two disjoint
// link sets can run concurrently, so a ring pass can proceed in both
// directions at once, halving the hop count of a dimension-wise global sum
// from Nd-1 to Nd/2.
//
// The model works at word granularity with two constraints per hop: a link
// serializes one 72-bit frame at a time, and a relay may start forwarding a
// word only kPassthroughBits after the word's head arrives (or after the
// full frame, in store-and-forward mode, for the ablation bench).
// Functional values travel with the words; sums are accumulated in canonical
// ring order so results are bit-identical across nodes and runs.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"

namespace qcdoc::scu {

/// Bits a relay buffers before forwarding a word in cut-through mode.
inline constexpr int kPassthroughBits = 8;
/// CPU write of the send register that injects a word.
inline constexpr Cycle kInjectCycles = 20;
/// Landing a word in memory or an SCU register.
inline constexpr Cycle kStoreCycles = 10;

/// Words travel as 72-bit frames (scu/packet.h) over wires with the HSSL
/// time of flight (hssl/hssl.h); only the forwarding mode varies.
struct GlobalOpTiming {
  bool cut_through = true;  ///< false = store-and-forward (ablation)
};

struct RingReduceResult {
  double sum = 0.0;                  ///< identical on every node
  Cycle completion_cycles = 0;       ///< when the slowest node has the sum
  std::vector<Cycle> node_done;      ///< per-node completion
  u64 max_hops = 0;                  ///< farthest distance any word travelled
  u64 words_per_link = 0;            ///< serialization load per link
};

/// All-reduce (sum) around one ring of `values.size()` nodes: every node
/// contributes one word and ends with the full sum.  `doubled` uses both
/// ring directions concurrently (the two disjoint SCU link sets).
RingReduceResult ring_allreduce(const GlobalOpTiming& t,
                                std::span<const double> values, bool doubled);

struct BroadcastResult {
  Cycle completion_cycles = 0;       ///< last node receives the word
  std::vector<Cycle> node_done;      ///< arrival time per ring position
};

/// Broadcast one word from ring position 0 around a ring of `n` nodes
/// (both directions when `doubled`).  This is where cut-through pays:
/// per-hop latency is kPassthroughBits instead of a whole frame.
BroadcastResult ring_broadcast(const GlobalOpTiming& t, int n, bool doubled);

}  // namespace qcdoc::scu
