#include "scu/dma.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/affinity_guard.h"

namespace qcdoc::scu {

namespace {

void reject_empty(const DmaDescriptor& desc, const char* engine) {
  if (desc.total_words() == 0) {
    throw std::invalid_argument(std::string(engine) +
                                "::start: descriptor of zero words");
  }
}

}  // namespace

SendDma::SendDma(sim::EngineRef engine, memsys::NodeMemory* memory,
                 SendSide* channel, ActiveCounter* active_counter)
    : engine_(engine),
      memory_(memory),
      channel_(channel),
      active_counter_(active_counter) {
  channel_->set_on_data_drained([this] {
    if (!active_) return;
    active_ = false;
    if (active_counter_) active_counter_->decrement(engine_.now());
    if (on_complete_) on_complete_();
  });
}

void SendDma::start(const DmaDescriptor& desc,
                    sim::SmallFn<void()> on_complete) {
  reject_empty(desc, "SendDma");
  assert(!active_ && "send DMA already running on this link");
  active_ = true;
  if (active_counter_) active_counter_->increment();
  ++transfers_;
  on_complete_ = std::move(on_complete);
  // After the setup path (descriptor fetch, first memory access, SCU
  // injection) the DMA streams words faster than the 72-cycle serial link
  // can drain them, so the channel queue is filled in one go.
  engine_.schedule(kSendSetupCycles, [this, desc] {
    for (u64 i = 0; i < desc.total_words(); ++i) {
      channel_->enqueue_data(memory_->read_word(desc.word_addr(i)));
    }
  });
}

RecvDma::RecvDma(sim::EngineRef engine, memsys::NodeMemory* memory,
                 RecvSide* channel, ActiveCounter* active_counter)
    : engine_(engine),
      memory_(memory),
      channel_(channel),
      active_counter_(active_counter) {}

void RecvDma::start(const DmaDescriptor& desc,
                    sim::SmallFn<void()> on_complete) {
  reject_empty(desc, "RecvDma");
  assert(!active_ && "receive DMA already running on this link");
  desc_ = desc;
  // The lowest and highest word the strided pattern touches (the stride may
  // be negative): when one allocation holds them all, landings index a span
  // instead of looking the allocation up per word.
  const i64 last_block =
      static_cast<i64>(desc.num_blocks - 1) * desc.stride_words;
  const u64 lo = static_cast<u64>(static_cast<i64>(desc.base_word) +
                                  std::min<i64>(0, last_block));
  const u64 hi = static_cast<u64>(static_cast<i64>(desc.base_word) +
                                  std::max<i64>(0, last_block)) +
                 desc.block_words;
  dest_ = memory_->words_in_one_allocation(lo, hi - lo);
  dest_base_ = lo;
  active_ = true;
  if (active_counter_) active_counter_->increment();
  next_index_ = 0;
  first_landed_at_ = 0;
  on_complete_ = std::move(on_complete);
  // Installing the sink ends idle receive and drains any held words.
  channel_->set_data_sink([this](u64 word) { on_word(word); });
}

void RecvDma::on_word(u64 word) {
  assert(active_ && next_index_ < desc_.total_words());
  const u64 addr = desc_.word_addr(next_index_);
  const u64 index = next_index_++;
  const bool last = next_index_ == desc_.total_words();
  if (last) {
    // Stop consuming before further words arrive for a later transfer; the
    // engine stays active until the final landing completes.
    channel_->clear_data_sink();
  }
  engine_.schedule(kRecvLandingCycles, [this, addr, word, index, last] {
    if (dest_.empty()) {
      memory_->write_word(addr, word);
    } else {
      QCDOC_AFFSAN_CHECK(memory_);  // what write_word would check
      dest_[addr - dest_base_] = word;
    }
    last_landed_at_ = engine_.now();
    if (index == 0) first_landed_at_ = engine_.now();
    if (last) {
      active_ = false;
      if (active_counter_) active_counter_->decrement(engine_.now());
      if (on_complete_) on_complete_();
    }
  });
}

}  // namespace qcdoc::scu
