#include "scu/link.h"

#include <algorithm>
#include <cassert>

namespace qcdoc::scu {

// ---------------------------------------------------------------------------
// SendSide
// ---------------------------------------------------------------------------

SendSide::SendSide(sim::EngineRef engine, hssl::Hssl* wire, LinkParams params)
    : engine_(engine),
      wire_(wire),
      params_(params),
      unacked_(static_cast<std::size_t>(std::max(params.ack_window, 1))) {
  wire_->set_ready_callback([this] {
    frame_in_flight_ = false;
    pump();
  });
}

void SendSide::set_remote(RecvSide* remote) {
  assert(remote != nullptr);
  wire_->set_receiver([remote](u64 /*frame_id*/, const hssl::Frame& f,
                               int flipped) {
    remote->on_frame(Packet{static_cast<PacketType>(f.tag), f.payload, f.seq},
                     flipped);
  });
}

void SendSide::enqueue_data(u64 word) {
  data_queue_.push_back(word);
  checksum_ += word;
  ++words_accepted_;
  kick();
}

void SendSide::enqueue_supervisor(u64 word) {
  sup_queue_.push_back(word);
  kick();
}

void SendSide::enqueue_partition_irq(u8 mask) {
  pirq_queue_.push_back(mask);
  kick();
}

void SendSide::enqueue_control(PacketType type, u8 seq) {
  assert(type == PacketType::kAck || type == PacketType::kNack ||
         type == PacketType::kSupAck);
  control_queue_.push_back(Packet{type, seq, static_cast<u8>(seq & 0x3)});
  kick();
}

void SendSide::pump() {
  if (frame_in_flight_) return;
  if (faulted_) {
    // A faulted link stops originating traffic; control packets for the
    // reverse direction still flow in case only our outbound data path (or
    // the remote's ack path) is broken.
    if (!control_queue_.empty()) {
      Packet p = control_queue_.front();
      control_queue_.pop_front();
      transmit(p);
    }
    return;
  }

  // Per-frame priority decision, high to low: link control, partition
  // interrupts, supervisor, normal data (paper: supervisor packets take
  // priority over normal data transfers; control keeps the reverse
  // direction's window moving and so outranks everything).
  if (!control_queue_.empty()) {
    Packet p = control_queue_.front();
    control_queue_.pop_front();
    transmit(p);
    return;
  }
  if (!pirq_queue_.empty()) {
    const u8 mask = pirq_queue_.front();
    pirq_queue_.pop_front();
    transmit(Packet{PacketType::kPartitionIrq, mask, 0});
    return;
  }
  if (sup_outstanding_ && sup_needs_send_) {
    sup_needs_send_ = false;
    sup_sent_at_ = engine_.now();
    transmit(Packet{PacketType::kSupervisor, sup_word_, sup_seq_});
    // Backstop resend for a lost/corrupted supervisor frame or SupAck.
    engine_.schedule(params_.resend_timeout_cycles,
                      [this, sent_at = sup_sent_at_] {
                        if (sup_outstanding_ && sup_sent_at_ == sent_at) {
                          sup_needs_send_ = true;
                          ++sup_resends_;
                          kick();
                        }
                      });
    return;
  }
  if (!sup_outstanding_ && !sup_queue_.empty()) {
    sup_word_ = sup_queue_.front();
    sup_queue_.pop_front();
    sup_seq_ = sup_next_seq_;
    sup_next_seq_ = static_cast<u8>((sup_next_seq_ + 1) & 0x3);
    sup_outstanding_ = true;
    sup_needs_send_ = true;
    pump();
    return;
  }
  if (send_cursor_ < unacked_.size()) {
    // (Re)transmission of an already-windowed word.
    const Pending& p = unacked_[send_cursor_++];
    transmit(Packet{PacketType::kData, p.word, p.seq});
    return;
  }
  if (!data_queue_.empty() &&
      unacked_.size() < static_cast<std::size_t>(params_.ack_window)) {
    const u64 word = data_queue_.front();
    data_queue_.pop_front();
    const u8 seq = next_seq_;
    next_seq_ = static_cast<u8>((next_seq_ + 1) & 0x3);
    if (unacked_.empty()) oldest_unacked_since_ = engine_.now();
    unacked_.push_back(Pending{word, seq});
    send_cursor_ = unacked_.size();
    arm_timeout();
    transmit(Packet{PacketType::kData, word, seq});
    return;
  }
}

void SendSide::transmit(const Packet& p) {
  // The receiver takes a clean frame as sent, so every packet must already
  // be what decode(encode(p)) yields: a 2-bit seq, a byte for short types.
  assert(p.seq <= 0x3 && (has_word_payload(p.type) || p.payload <= 0xff));
  frame_in_flight_ = true;
  const u64 id = wire_->transmit(hssl::Frame{
      p.payload, frame_bits(p.type), static_cast<u8>(p.type), p.seq});
  if (id == hssl::Hssl::kRejected) {
    // The wire is dead: there will be no serializer-free callback.  Escalate
    // immediately instead of queueing into the void.
    frame_in_flight_ = false;
    declare_fault();
  }
}

void SendSide::arm_timeout() {
  if (timeout_armed_) return;
  timeout_armed_ = true;
  engine_.schedule(params_.resend_timeout_cycles, [this] { on_timeout(); });
}

void SendSide::on_timeout() {
  timeout_armed_ = false;
  if (faulted_ || unacked_.empty()) return;
  const Cycle age = engine_.now() - oldest_unacked_since_;
  if (age >= params_.resend_timeout_cycles) {
    // Lost/corrupted acknowledgement: go back and resend the window.  Count
    // consecutive no-progress rounds; a healthy link is repaired within one
    // or two, so a long streak means the link (or its ack path) is dead.
    if (++consecutive_timeouts_ >= params_.fault_timeout_rounds) {
      declare_fault();
      return;
    }
    send_cursor_ = 0;
    timeout_resends_ += unacked_.size();
    oldest_unacked_since_ = engine_.now();
    kick();
  }
  arm_timeout();
}

void SendSide::declare_fault() {
  if (faulted_) return;
  faulted_ = true;
  if (on_link_fault_) on_link_fault_();
}

void SendSide::clear_fault() {
  if (!faulted_) return;
  faulted_ = false;
  consecutive_timeouts_ = 0;
  frame_in_flight_ = false;  // whatever was on the dead wire is gone
  // Anything still windowed must be resent from the start of the window.
  send_cursor_ = 0;
  if (!unacked_.empty()) {
    oldest_unacked_since_ = engine_.now();
    arm_timeout();
  }
  pump();
}

std::size_t SendSide::pop_acked_below(u8 expected) {
  // Cumulative acknowledgement: `expected` is the receiver's next expected
  // sequence number, so every window entry with seq != expected, up to the
  // first match, has been delivered.  Window (3) < sequence space (4) makes
  // the distance unambiguous.
  if (unacked_.empty()) return 0;
  const std::size_t d =
      static_cast<std::size_t>((expected - unacked_.front().seq) & 0x3);
  if (d > unacked_.size()) return 0;  // stale control packet
  for (std::size_t i = 0; i < d; ++i) unacked_.pop_front();
  send_cursor_ = send_cursor_ > d ? send_cursor_ - d : 0;
  if (d > 0) {
    oldest_unacked_since_ = engine_.now();
    consecutive_timeouts_ = 0;  // forward progress: the link is alive
    acks_ += d;
    if (data_drained() && on_data_drained_) on_data_drained_();
  }
  return d;
}

void SendSide::on_ack(u8 expected) {
  if (ack_drops_remaining_ > 0) {
    --ack_drops_remaining_;
    return;
  }
  pop_acked_below(expected);
  kick();
}

void SendSide::on_nack(u8 expected) {
  if (ack_drops_remaining_ > 0) {
    --ack_drops_remaining_;
    return;
  }
  pop_acked_below(expected);
  if (!unacked_.empty() && unacked_.front().seq == (expected & 0x3)) {
    send_cursor_ = 0;  // go back: resend the whole window in order
    nack_resends_ += unacked_.size();
  }
  kick();
}

void SendSide::on_sup_ack(u8 seq) {
  if (!sup_outstanding_ || seq != sup_seq_) return;
  sup_outstanding_ = false;
  kick();
}

// ---------------------------------------------------------------------------
// RecvSide
// ---------------------------------------------------------------------------

RecvSide::RecvSide(sim::EngineRef engine, LinkParams params,
                   Rng corruption_stream)
    : engine_(engine),
      params_(params),
      corrupt_rng_(corruption_stream),
      held_(static_cast<std::size_t>(std::max(params.idle_hold_words, 1))) {}

void RecvSide::on_frame(const Packet& sent, int flipped) {
  // A clean frame decodes to exactly the packet sent (the codec round-trips
  // every packet a SendSide emits), so only a corrupted one pays for it.
  Packet arrived = sent;
  if (flipped > 0) {
    WireFrame frame = encode(sent);
    frame.corrupt(flipped, corrupt_rng_);
    const auto pkt = decode(frame);
    if (!pkt) {
      ++detected_errors_;
      // A corrupted long frame was (most likely) a data word: request the
      // automatic hardware resend.  Short frames are control/interrupt
      // traffic, recovered by timeouts / window re-floods instead.
      if (frame.bits == frame_bits(PacketType::kData) && reverse_) {
        reverse_->enqueue_control(PacketType::kNack, expected_seq_);
      }
      return;
    }
    if (pkt->type != sent.type || pkt->payload != sent.payload ||
        pkt->seq != sent.seq) {
      // Corruption slipped past the parity/type checks.  Only the
      // end-to-end link checksums can expose this, as on the hardware.
      ++undetected_errors_;
    }
    arrived = *pkt;
  }
  switch (arrived.type) {
    case PacketType::kData:
      if (arrived.seq != expected_seq_) {
        // Stale duplicate from a go-back or timeout resend.  Re-send the
        // cumulative acknowledgement so a lost ACK cannot stall the link --
        // unless we are in idle receive, where withholding acknowledgement
        // is exactly how the hardware blocks the sender.
        if (data_sink_ && reverse_) {
          reverse_->enqueue_control(PacketType::kAck, expected_seq_);
        }
        return;
      }
      accept_data(arrived.payload, arrived.seq);
      return;
    case PacketType::kSupervisor:
      if (arrived.seq == sup_expected_seq_) {
        sup_expected_seq_ = static_cast<u8>((sup_expected_seq_ + 1) & 0x3);
        if (supervisor_handler_) supervisor_handler_(arrived.payload);
      }
      // Always (re-)acknowledge: a duplicate means our SupAck was lost.
      if (reverse_) reverse_->enqueue_control(PacketType::kSupAck, arrived.seq);
      return;
    case PacketType::kPartitionIrq:
      ++pirq_received_;
      if (pirq_handler_) pirq_handler_(static_cast<u8>(arrived.payload & 0xff));
      return;
    case PacketType::kAck:
      if (reverse_) reverse_->on_ack(static_cast<u8>(arrived.payload & 0x3));
      return;
    case PacketType::kNack:
      if (reverse_) reverse_->on_nack(static_cast<u8>(arrived.payload & 0x3));
      return;
    case PacketType::kSupAck:
      if (reverse_) {
        reverse_->on_sup_ack(static_cast<u8>(arrived.payload & 0x3));
      }
      return;
  }
}

void RecvSide::accept_data(u64 word, u8 seq) {
  if (forced_corrupt_remaining_ > 0) {
    // Injected undetected corruption: flip the sign bit and a mantissa bit
    // of the landed word (keeping a double payload finite), exactly as a
    // multi-bit error that defeats parity would.  The checksum absorbs the
    // corrupted value, so the end-to-end comparison diverges.
    --forced_corrupt_remaining_;
    word ^= (1ull << 63) | (1ull << 40);
    ++undetected_errors_;
  }
  if (data_sink_) {
    expected_seq_ = static_cast<u8>((expected_seq_ + 1) & 0x3);
    checksum_ += word;
    ++words_received_;
    // Cumulative acknowledgement: "everything before expected_seq_".
    if (reverse_) reverse_->enqueue_control(PacketType::kAck, expected_seq_);
    data_sink_(word);
    return;
  }
  // Idle receive: hold without acknowledging, blocking the sender once its
  // window fills.  Capacity equals the ack window, so overflow cannot occur
  // for in-sequence traffic.
  if (static_cast<int>(held_.size()) < params_.idle_hold_words) {
    expected_seq_ = static_cast<u8>((expected_seq_ + 1) & 0x3);
    held_.push_back(Held{word, seq});
  }
  // else: drop; the sender's timeout will retry until we have space.
}

void RecvSide::set_data_sink(sim::SmallFn<void(u64)> sink) {
  data_sink_ = std::move(sink);
  while (!held_.empty() && data_sink_) {
    const Held h = held_.front();
    held_.pop_front();
    checksum_ += h.word;
    ++words_received_;
    // expected_seq_ already advanced when the word was held; acknowledge
    // cumulatively up to one past this word's sequence.
    if (reverse_) {
      reverse_->enqueue_control(PacketType::kAck,
                                static_cast<u8>((h.seq + 1) & 0x3));
    }
    data_sink_(h.word);
  }
}

void RecvSide::clear_data_sink() { data_sink_.reset(); }

}  // namespace qcdoc::scu
