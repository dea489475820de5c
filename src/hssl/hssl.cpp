#include "hssl/hssl.h"

#include <cmath>

#include "common/log.h"
#include "sim/affinity_guard.h"

namespace qcdoc::hssl {

const char* to_string(LinkState s) {
  switch (s) {
    case LinkState::kDown: return "down";
    case LinkState::kTraining: return "training";
    case LinkState::kTrained: return "trained";
    case LinkState::kFailed: return "failed";
  }
  return "?";
}

Hssl::Hssl(sim::EngineRef engine, HsslConfig cfg, Rng error_stream,
           sim::StatSet* stats)
    : engine_(engine), delivery_(engine), cfg_(cfg), errors_(error_stream),
      stats_(stats) {
  if (stats_) {
    stat_frames_ = stats_->cell("hssl.frames");
    stat_bits_ = stats_->cell("hssl.bits");
  }
  set_bit_error_rate(cfg_.bit_error_rate);  // clamp whatever the config holds
}

void Hssl::track_untrained(std::atomic<long>* counter) {
  untrained_ = counter;
  if (untrained_ && state_ != LinkState::kTrained) {
    untrained_->fetch_add(1, std::memory_order_relaxed);
  }
}

void Hssl::set_state(LinkState s) {
  const bool was_trained = state_ == LinkState::kTrained;
  const bool now_trained = s == LinkState::kTrained;
  state_ = s;
  if (untrained_ == nullptr || was_trained == now_trained) return;
  if (now_trained) {
    untrained_->fetch_sub(1, std::memory_order_acq_rel);
  } else {
    untrained_->fetch_add(1, std::memory_order_acq_rel);
  }
}

void Hssl::begin_training() {
  set_state(LinkState::kTraining);
  engine_.schedule(cfg_.training_cycles, [this, epoch = epoch_] {
    if (epoch != epoch_) return;  // failed/retrained while training
    set_state(LinkState::kTrained);
    trained_at_ = engine_.now();
    busy_cycles_ = 0;
    ++times_trained_;
    if (stats_) stats_->add("hssl.trained");
    start_next();
    if (!busy_ && on_ready_) on_ready_();
  });
}

void Hssl::power_on() {
  if (state_ != LinkState::kDown) return;
  begin_training();
}

void Hssl::fail() {
  QCDOC_AFFSAN_CHECK(this);
  if (state_ == LinkState::kDown || state_ == LinkState::kFailed) {
    set_state(LinkState::kFailed);
    return;
  }
  set_state(LinkState::kFailed);
  busy_ = false;
  queue_.clear();  // bits in flight never arrive
  ++epoch_;
  if (stats_) stats_->add("hssl.failures");
}

void Hssl::retrain() {
  QCDOC_AFFSAN_CHECK(this);
  if (state_ == LinkState::kDown || state_ == LinkState::kTraining) return;
  ++epoch_;
  busy_ = false;
  queue_.clear();
  if (stats_) stats_->add("hssl.retrains");
  begin_training();
}

void Hssl::set_bit_error_rate(double rate) {
  QCDOC_AFFSAN_CHECK(this);
  if (!std::isfinite(rate) || rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  cfg_.bit_error_rate = rate;
}

u64 Hssl::transmit(const Frame& frame) {
  QCDOC_AFFSAN_CHECK(this);
  if (state_ == LinkState::kDown || state_ == LinkState::kFailed ||
      frame.bits <= 0) {
    ++rejected_frames_;
    if (stats_) stats_->add("hssl.rejected_frames");
    QCDOC_WARN << "hssl: transmit rejected (" << to_string(state_)
               << " link, " << frame.bits << " bits)";
    return kRejected;
  }
  const u64 id = next_frame_id_++;
  queue_.push_back(Queued{id, frame});
  if (state_ == LinkState::kTrained && !busy_) start_next();
  return id;
}

void Hssl::start_next() {
  if (state_ != LinkState::kTrained || busy_ || queue_.empty()) return;
  busy_ = true;
  const u64 id = queue_.front().id;
  const Frame frame = queue_.front().frame;
  queue_.pop_front();

  int flipped = 0;
  if (cfg_.bit_error_rate > 0.0) {
    for (int b = 0; b < frame.bits; ++b) {
      if (errors_.next_bool(cfg_.bit_error_rate)) ++flipped;
    }
  }
  busy_cycles_ += static_cast<Cycle>(frame.bits);
  if (stats_) {
    ++*stat_frames_;
    *stat_bits_ += static_cast<u64>(frame.bits);
    if (flipped > 0) stats_->add("hssl.bits_flipped", static_cast<u64>(flipped));
  }

  // The sender's serializer frees up after the last bit leaves; delivery at
  // the far end happens one wire delay later.  Both events are void if the
  // link fails or retrains in between (the bits die on the wire).
  const Cycle serialize = static_cast<Cycle>(frame.bits);
  engine_.schedule(serialize, [this, epoch = epoch_] {
    if (epoch != epoch_) return;
    busy_ = false;
    start_next();
    if (!busy_ && on_ready_) on_ready_();
  });
  // Delivery executes at the receiving node.  The serialization time plus
  // the wire delay is never shorter than a minimum frame plus the wire
  // delay, which is exactly the parallel engine's lookahead.  The frame
  // rides in the event by value: the capture fits EventFn's inline buffer,
  // so a frame costs no heap block and no lock.  (A per-wire ring of
  // in-flight frames would not do: inside one parallel window the sender's
  // worker writes it while the receiver's worker reads it.)
  auto deliver = [this, epoch = epoch_, id, frame, flipped] {
    // epoch_ moves only in host slices (fail/retrain), which fence every
    // node event, so this receiver-side read can never race the sender;
    // AFFSAN checks the mutators at runtime.
    // qcdoc-lint: allow(cross-affinity-access) epoch_ is window-frozen
    if (epoch != epoch_) return;
    if (receiver_) receiver_(id, frame, flipped);
  };
  delivery_.schedule(serialize + cfg_.wire_delay_cycles, std::move(deliver));
}

Cycle Hssl::idle_cycles() const {
  if (state_ != LinkState::kTrained) return 0;
  const Cycle since_trained = engine_.now() - trained_at_;
  return since_trained > busy_cycles_ ? since_trained - busy_cycles_ : 0;
}

}  // namespace qcdoc::hssl
