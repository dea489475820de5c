// Link-level protocol of one unidirectional SCU connection (paper Sec. 2.2).
//
// The sender multiplexes four packet classes onto one serial wire, priority
// high to low: link-control (ACK/NACK/SupAck, generated on behalf of the
// *reverse* direction), partition interrupts, supervisor packets, normal
// data.  Supervisor packets "take priority over normal data transfers".
//
// Normal data uses the paper's "three in the air" protocol: up to
// `ack_window` 64-bit words may be outstanding before an acknowledgement is
// required, which amortizes the round-trip handshake and sustains full link
// bandwidth.  A detected error (parity/type-code failure) triggers an
// automatic go-back-N resend in hardware; a timeout backstops lost or
// corrupted acknowledgements.  If the receiver has not been programmed with
// a destination ("idle receive"), it holds up to three words in SCU
// registers without acknowledging, which blocks the sender -- the mechanism
// that makes QCDOC self-synchronizing at the link level.
//
// Each side keeps a running checksum of the payload words handed to it /
// delivered by it; comparing the two at the end of a run is the paper's
// final confirmation that no erroneous data was exchanged.
#pragma once

#include "common/ring.h"
#include "common/rng.h"
#include "common/types.h"
#include "hssl/hssl.h"
#include "scu/packet.h"
#include "sim/engine.h"
#include "sim/event_fn.h"

namespace qcdoc::scu {

struct LinkParams {
  int ack_window = 3;                  ///< "three in the air"
  Cycle resend_timeout_cycles = 4096;  ///< backstop for lost/corrupted ACKs
  int idle_hold_words = 3;             ///< SCU registers for idle receive
  /// Consecutive timeout resend rounds with zero forward progress before
  /// the send side stops retrying and raises a link-fault supervisor
  /// interrupt (a working link recovers in one or two rounds; a dead one
  /// would otherwise retry forever).
  int fault_timeout_rounds = 8;
};

class RecvSide;

/// Transmit half of a directed link, owned by the sending node's SCU.
class SendSide {
 public:
  SendSide(sim::EngineRef engine, hssl::Hssl* wire, LinkParams params);

  /// The RecvSide on the *remote* node that this wire feeds: becomes the
  /// wire's one receiver.
  void set_remote(RecvSide* remote);

  /// Queue normal-transfer data words (from a send-DMA engine).
  void enqueue_data(u64 word);
  /// Queue a supervisor packet (one outstanding at a time; resent until
  /// acknowledged).
  void enqueue_supervisor(u64 word);
  /// Queue a partition-interrupt packet (unacknowledged; the flood protocol
  /// re-sends every global-clock window, so loss is tolerated).
  void enqueue_partition_irq(u8 mask);
  /// Queue a link-control packet acknowledging the reverse direction.
  void enqueue_control(PacketType type, u8 seq);

  /// Notifications from the remote receiver (via its reverse channel).
  /// ACK/NACK carry the receiver's next-expected sequence (cumulative), so
  /// a lost acknowledgement is recovered by any later one.
  void on_ack(u8 expected);
  void on_nack(u8 expected);
  void on_sup_ack(u8 seq);

  /// All data handed in so far has been sent and acknowledged.
  [[nodiscard]] bool data_drained() const {
    return data_queue_.empty() && unacked_.empty();
  }
  [[nodiscard]] bool supervisor_drained() const {
    return !sup_outstanding_ && sup_queue_.empty();
  }

  /// Called whenever data_drained() becomes true.
  void set_on_data_drained(sim::SmallFn<void()> fn) {
    on_data_drained_ = std::move(fn);
  }

  /// Called once when this side declares the link faulted (the model of the
  /// SCU raising a link-fault supervisor interrupt at its CPU).
  void set_on_link_fault(sim::SmallFn<void()> fn) {
    on_link_fault_ = std::move(fn);
  }
  /// The send side gave up: either the wire rejected a frame outright or
  /// `fault_timeout_rounds` consecutive timeout resends made no progress.
  [[nodiscard]] bool faulted() const { return faulted_; }

  /// Fault injection: silently discard the next `n` ACK/NACK notifications
  /// from the remote receiver, forcing the timeout/go-back machinery to
  /// recover (a burst of corrupted acknowledgement frames).
  void drop_acks(int n) { ack_drops_remaining_ += n; }

  /// Re-arm after the wire below was retrained: clears the faulted state
  /// and resumes pumping whatever survived in the queues.
  void clear_fault();

  u64 checksum() const { return checksum_; }
  u64 words_accepted() const { return words_accepted_; }
  /// Data words acknowledged by the remote receiver.
  u64 acks() const { return acks_; }
  /// Data words resent by NACK go-backs and by timeout go-backs.
  u64 nack_resends() const { return nack_resends_; }
  u64 timeout_resends() const { return timeout_resends_; }
  u64 resends() const { return nack_resends_ + timeout_resends_; }
  /// Supervisor packets resent after their SupAck timed out.
  u64 sup_resends() const { return sup_resends_; }

  /// Snapshot hook: restore the running payload checksum and lifetime
  /// counters so the end-of-run send/recv checksum comparison (the paper's
  /// final integrity check) spans process restarts.  Only valid on a
  /// drained link; in-flight protocol state is never serialized.  The
  /// snapshot carries only the resend total, booked as timeout resends.
  void restore_integrity(u64 checksum, u64 words_accepted, u64 resends) {
    checksum_ = checksum;
    words_accepted_ = words_accepted;
    nack_resends_ = 0;
    timeout_resends_ = resends;
  }

 private:
  /// Make the per-frame priority decision if the wire can take a frame.
  /// Inline, because most triggers (a queued word, an ACK) arrive while a
  /// frame is still serializing, and the serializer-free callback decides
  /// for them.
  void kick() {
    if (!frame_in_flight_) pump();
  }
  void pump();
  void transmit(const Packet& p);
  void arm_timeout();
  void on_timeout();
  void declare_fault();
  std::size_t pop_acked_below(u8 expected);

  sim::EngineRef engine_;
  hssl::Hssl* wire_;
  LinkParams params_;

  // Normal data stream (go-back-N with a 2-bit sequence, window 3).
  struct Pending {
    u64 word;
    u8 seq;
  };
  Ring<u64> data_queue_;         // not yet transmitted
  Ring<Pending> unacked_;        // transmitted, awaiting ACK: a fixed ring
                                 // of ack_window entries
  std::size_t send_cursor_ = 0;    // next unacked_ index to (re)transmit
  u8 next_seq_ = 0;
  u64 checksum_ = 0;
  u64 words_accepted_ = 0;
  u64 acks_ = 0;
  u64 nack_resends_ = 0;
  u64 timeout_resends_ = 0;
  u64 sup_resends_ = 0;
  Cycle oldest_unacked_since_ = 0;
  bool timeout_armed_ = false;
  int consecutive_timeouts_ = 0;
  bool faulted_ = false;
  int ack_drops_remaining_ = 0;
  sim::SmallFn<void()> on_link_fault_;

  // Supervisor stream (one outstanding, own 2-bit sequence).
  Ring<u64> sup_queue_;
  bool sup_outstanding_ = false;
  bool sup_needs_send_ = false;
  u64 sup_word_ = 0;
  u8 sup_seq_ = 0;
  u8 sup_next_seq_ = 0;
  Cycle sup_sent_at_ = 0;

  // Control + partition-interrupt queues.
  Ring<Packet> control_queue_;
  Ring<u8> pirq_queue_;

  bool frame_in_flight_ = false;
  sim::SmallFn<void()> on_data_drained_;
};

/// Receive half of a directed link, owned by the receiving node's SCU.
class RecvSide {
 public:
  RecvSide(sim::EngineRef engine, LinkParams params, Rng corruption_stream);

  /// `reverse` is the SendSide on *this* node facing the sender; it carries
  /// our acknowledgements and receives control notifications for its own
  /// outbound traffic.
  void set_reverse(SendSide* reverse) { reverse_ = reverse; }

  /// Entry point from the wire: `sent` is the packet the sender emitted,
  /// `flipped` the number of bits the link corrupted.  A clean frame is
  /// taken as sent; a corrupted one is encoded to its wire image, flipped
  /// here at the sampling point and decoded, so the parity/type checks
  /// decide what arrived.
  void on_frame(const Packet& sent, int flipped);

  /// Consumer interface (the receive-DMA engine).  `sink(word)` is called
  /// for every accepted data word in order; when no sink is installed the
  /// link is in idle receive.
  void set_data_sink(sim::SmallFn<void(u64)> sink);
  void clear_data_sink();
  [[nodiscard]] bool in_idle_receive() const { return !data_sink_; }

  /// Supervisor packets raise an interrupt at the receiving CPU.
  void set_supervisor_handler(sim::SmallFn<void(u64)> fn) {
    supervisor_handler_ = std::move(fn);
  }
  /// Partition-interrupt packets go to the flood controller.
  void set_pirq_handler(sim::SmallFn<void(u8)> fn) {
    pirq_handler_ = std::move(fn);
  }

  /// Fault injection: bit-flip the next `words` accepted data words as if a
  /// multi-bit wire error had slipped past the parity/type checks.  The
  /// corrupted value lands in memory and in the receive checksum, so only
  /// the end-to-end checksum comparison can expose it -- the deterministic
  /// stand-in for the rare undetected-corruption events of Sec. 2.2.
  void force_corrupt(int words) { forced_corrupt_remaining_ += words; }

  u64 checksum() const { return checksum_; }
  u64 words_received() const { return words_received_; }
  int held_words() const { return static_cast<int>(held_.size()); }
  u64 detected_errors() const { return detected_errors_; }
  u64 undetected_errors() const { return undetected_errors_; }
  u64 pirq_received() const { return pirq_received_; }

  /// Snapshot hooks (see SendSide::restore_integrity).
  void restore_integrity(u64 checksum, u64 words_received, u64 detected,
                         u64 undetected) {
    checksum_ = checksum;
    words_received_ = words_received;
    detected_errors_ = detected;
    undetected_errors_ = undetected;
  }
  /// The per-link corruption stream, exposed so its RNG state can be
  /// captured/restored with the rest of the machine.
  Rng& corruption_rng() { return corrupt_rng_; }

 private:
  void accept_data(u64 word, u8 seq);

  sim::EngineRef engine_;
  LinkParams params_;
  Rng corrupt_rng_;

  SendSide* reverse_ = nullptr;

  u8 expected_seq_ = 0;
  u8 sup_expected_seq_ = 0;
  u64 checksum_ = 0;
  u64 words_received_ = 0;
  u64 detected_errors_ = 0;
  u64 undetected_errors_ = 0;
  u64 pirq_received_ = 0;
  int forced_corrupt_remaining_ = 0;

  struct Held {
    u64 word;
    u8 seq;
  };
  Ring<Held> held_;  // idle-receive hold registers
  sim::SmallFn<void(u64)> data_sink_;
  sim::SmallFn<void(u64)> supervisor_handler_;
  sim::SmallFn<void(u8)> pirq_handler_;
};

}  // namespace qcdoc::scu
