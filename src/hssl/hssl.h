// High Speed Serial Link model (paper Section 2.2).
//
// The fundamental physical link of the mesh is a unidirectional bit-serial
// connection running at the processor clock: one bit per CPU cycle.  On
// power-up the HSSL macros train by exchanging a known byte sequence to find
// the sampling point and byte boundaries; once trained they exchange idle
// bytes whenever no payload is queued.  The model serializes frames at
// 1 bit/cycle, adds a wire time-of-flight, and injects bit errors from a
// deterministic per-link stream so the SCU's parity/resend machinery is
// exercised for real.
//
// Each frame travels by value inside its delivery event to the wire's one
// receiver, set when the network is wired; the event fits EventFn's inline
// buffer, so a frame costs no heap block.
//
// Fault model: a link can die outright (`fail()` -- a broken cable or
// daughterboard, paper Sec. 4's bring-up debugging) and be brought back by
// host-commanded retraining (`retrain()`), the recovery action the
// Ethernet/JTAG path enables.  A failed link rejects traffic with a clear
// sentinel instead of queueing it silently.
#pragma once

#include <atomic>

#include "common/ring.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/engine.h"
#include "sim/event_fn.h"
#include "sim/stats.h"

namespace qcdoc::hssl {

struct HsslConfig {
  Cycle training_cycles = 2048;  ///< byte-sequence exchange after reset
  Cycle wire_delay_cycles = 2;   ///< time-of-flight through board + cable
  double bit_error_rate = 0.0;   ///< probability a transmitted bit flips
};

/// Lifecycle of one serial link.
enum class LinkState {
  kDown,      ///< not yet powered
  kTraining,  ///< exchanging the training byte sequence
  kTrained,   ///< carrying data / idle bytes
  kFailed,    ///< dead: rejects traffic until retrained
};

const char* to_string(LinkState s);

/// One frame as the wire carries it, by value from transmit() to the
/// receiver.  The wire reads only `bits`; `payload`, `tag` and `seq` are the
/// SCU's packet fields (word, type code, sequence), opaque at this layer.
/// Framing (headers, parity) belongs to the SCU layer above, which encodes
/// the wire image only when bits actually flip.
struct Frame {
  u64 payload = 0;
  int bits = 0;
  u8 tag = 0;
  u8 seq = 0;
};

/// One unidirectional serial link.
class Hssl {
 public:
  /// `receiver(frame_id, frame, flipped_bits)` runs at the far end when the
  /// last bit of a frame (plus wire delay) arrives.  Set once, when the
  /// network is wired; the frame itself travels inside the delivery event.
  using Receiver =
      sim::SmallFn<void(u64 frame_id, const Frame& frame, int flipped_bits)>;

  /// Returned by transmit() when the link refuses the frame (failed or
  /// unpowered).  Callers must treat it as a hard link fault.
  static constexpr u64 kRejected = ~0ull;

  Hssl(sim::EngineRef engine, HsslConfig cfg, Rng error_stream,
       sim::StatSet* stats);

  /// Deliveries happen at the *receiving* node: tell the engine which one,
  /// so the parallel engine can route the delivery event to the right shard.
  /// Set by the network builder when the wire's far end is connected.
  void set_delivery_affinity(sim::Affinity a) {
    delivery_ = sim::EngineRef(engine_.get(), a);
  }

  /// Begin the training sequence; the link carries data only once trained.
  void power_on();
  [[nodiscard]] bool trained() const { return state_ == LinkState::kTrained; }
  [[nodiscard]] bool failed() const { return state_ == LinkState::kFailed; }
  LinkState state() const { return state_; }
  Cycle trained_at() const { return trained_at_; }

  /// Kill the link: pending and in-flight frames are lost, and further
  /// transmit() calls are rejected until retrain().  Models a dead cable /
  /// daughterboard or an HSSL macro that dropped lock.
  void fail();

  /// Host-commanded recovery: re-run the training sequence.  Valid from the
  /// failed *or* trained state (retraining a marginal link re-finds the
  /// sampling point).  Anything queued is dropped, as on real re-lock.
  void retrain();

  /// The one receiver of this wire's frames (see Receiver).
  void set_receiver(Receiver r) { receiver_ = std::move(r); }

  /// Queue `frame` (of `frame.bits` bits) for transmission.  Returns its
  /// frame id, or kRejected (with a stat and a warning) when the link
  /// cannot carry it.  Frames serialize strictly in order at 1 bit/cycle.
  u64 transmit(const Frame& frame);

  /// Called whenever the serializer becomes free (including right after
  /// training completes), so the SCU layer can make a fresh priority
  /// decision per frame instead of queueing ahead.
  void set_ready_callback(sim::SmallFn<void()> fn) {
    on_ready_ = std::move(fn);
  }

  /// Keep `counter` equal to the number of tracked wires not in kTrained:
  /// counts this wire now if it is untrained, then follows every state
  /// change.  The network uses one counter for all its wires, so
  /// "all trained" is O(1).  Atomic because training completes inside
  /// parallel windows, on the sending node's worker.
  void track_untrained(std::atomic<long>* counter);

  [[nodiscard]] bool busy() const { return busy_; }
  /// Cycles this link spent sending idle bytes (trained but no payload).
  Cycle idle_cycles() const;

  /// Change the error rate at runtime (fault injection for diagnostics).
  /// Clamped to [0, 1]; non-finite rates are treated as 0.
  void set_bit_error_rate(double rate);
  double bit_error_rate() const { return cfg_.bit_error_rate; }

  u64 times_trained() const { return times_trained_; }
  u64 rejected_frames() const { return rejected_frames_; }

 private:
  void begin_training();
  void set_state(LinkState s);
  void start_next();

  sim::EngineRef engine_;
  sim::EngineRef delivery_;  ///< same engine, the receiving node's affinity
  HsslConfig cfg_;
  Rng errors_;
  sim::StatSet* stats_;
  // Per-frame hot counters, resolved once (StatSet::cell) instead of a
  // string-keyed map lookup per transmitted frame.
  u64* stat_frames_ = nullptr;
  u64* stat_bits_ = nullptr;

  LinkState state_ = LinkState::kDown;
  Cycle trained_at_ = 0;
  bool busy_ = false;
  u64 next_frame_id_ = 0;
  Cycle busy_cycles_ = 0;
  u64 times_trained_ = 0;
  u64 rejected_frames_ = 0;
  /// Bumped on fail()/retrain(): events scheduled under an older epoch
  /// (training completion, serializer free, deliveries) are void.
  u64 epoch_ = 0;

  struct Queued {
    u64 id = 0;
    Frame frame;
  };
  /// Frames waiting for the serializer.  The SCU hands over one frame at a
  /// time, so this holds at most one in the machine; a Ring keeps its
  /// capacity where a deque would churn nodes.
  Ring<Queued> queue_;
  Receiver receiver_;
  sim::SmallFn<void()> on_ready_;
  std::atomic<long>* untrained_ = nullptr;
};

}  // namespace qcdoc::hssl
