// SCU DMA engines (paper Section 2.2, item 1).
//
// "The SCU's have DMA engines allowing block strided access to local memory.
// ... Data is not copied to a different memory location before it is sent,
// rather the SCUs are told the address of the starting word of a transfer
// and the SCU DMA engines handle the data from there."  This zero-copy path
// is where QCDOC's 600 ns memory-to-memory latency comes from: the send DMA
// fetches directly from EDRAM/DDR (setup ~150 cycles), the word serializes
// in 72 bit-times, and the receive DMA lands it in remote memory
// (~66 cycles), with no software in the loop.
#pragma once

#include <span>

#include "common/types.h"
#include "memsys/memsys.h"
#include "scu/link.h"
#include "sim/engine.h"
#include "sim/event_fn.h"

namespace qcdoc::scu {

/// Block-strided transfer: `num_blocks` blocks of `block_words` contiguous
/// 64-bit words, block starts `stride_words` apart.
struct DmaDescriptor {
  u64 base_word = 0;
  u32 block_words = 1;
  u32 num_blocks = 1;
  i64 stride_words = 0;

  u64 total_words() const {
    return static_cast<u64>(block_words) * num_blocks;
  }
  u64 word_addr(u64 i) const {
    const u64 block = i / block_words;
    const u64 within = i % block_words;
    return static_cast<u64>(static_cast<i64>(base_word) +
                            static_cast<i64>(block) * stride_words) +
           within;
  }
  /// Number of distinct contiguous streams this pattern touches at once.
  int streams() const { return num_blocks > 1 ? 2 : 1; }
};

/// Descriptor fetch, first memory access and SCU injection of a send.
inline constexpr Cycle kSendSetupCycles = 150;
/// Receive-side store path from the SCU to memory, per word.
inline constexpr Cycle kRecvLandingCycles = 66;

/// Shared count of in-flight transfers, used by the machine to detect
/// quiescence in O(1) instead of scanning every link after every event.
using ActiveCounter = sim::ActiveCounter;

/// Send engine for one link: fetches words from local memory and feeds the
/// link's transmit side.
class SendDma {
 public:
  SendDma(sim::EngineRef engine, memsys::NodeMemory* memory, SendSide* channel,
          ActiveCounter* active_counter = nullptr);

  /// Begin a transfer.  Completion (all words acknowledged by the remote
  /// SCU) is reported through `on_complete`.  Throws std::invalid_argument,
  /// changing nothing, on a descriptor of zero words: no word would ever
  /// drain, so the transfer could never complete.
  void start(const DmaDescriptor& desc, sim::SmallFn<void()> on_complete = {});

  [[nodiscard]] bool active() const { return active_; }
  u64 transfers_started() const { return transfers_; }

 private:
  sim::EngineRef engine_;
  memsys::NodeMemory* memory_;
  SendSide* channel_;
  bool active_ = false;
  u64 transfers_ = 0;
  ActiveCounter* active_counter_ = nullptr;
  sim::SmallFn<void()> on_complete_;
};

/// Receive engine for one link: lands arriving words into local memory.
class RecvDma {
 public:
  RecvDma(sim::EngineRef engine, memsys::NodeMemory* memory, RecvSide* channel,
          ActiveCounter* active_counter = nullptr);

  /// Program the destination.  Until this is called the link sits in idle
  /// receive; calling it drains any held words immediately.  Throws
  /// std::invalid_argument, changing nothing, on a descriptor of zero words.
  void start(const DmaDescriptor& desc, sim::SmallFn<void()> on_complete = {});

  [[nodiscard]] bool active() const { return active_; }
  /// Simulated time the first word of the current/last transfer reached
  /// memory (for latency measurements).
  Cycle first_word_landed_at() const { return first_landed_at_; }
  Cycle last_word_landed_at() const { return last_landed_at_; }

 private:
  void on_word(u64 word);

  sim::EngineRef engine_;
  memsys::NodeMemory* memory_;
  RecvSide* channel_;

  DmaDescriptor desc_;
  /// The destination, resolved once per transfer: every word the
  /// descriptor addresses, from `dest_base_` on, when they all lie in one
  /// allocation (empty otherwise; landings then go through write_word).
  std::span<u64> dest_;
  u64 dest_base_ = 0;
  bool active_ = false;
  u64 next_index_ = 0;
  Cycle first_landed_at_ = 0;
  Cycle last_landed_at_ = 0;
  ActiveCounter* active_counter_ = nullptr;
  sim::SmallFn<void()> on_complete_;
};

}  // namespace qcdoc::scu
