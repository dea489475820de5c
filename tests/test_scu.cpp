#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "scu/dma.h"
#include "scu/global_ops.h"
#include "scu/link.h"
#include "scu/packet.h"
#include "sim/engine.h"

namespace qcdoc::scu {
namespace {

// --- Packet format ----------------------------------------------------------

TEST(Packet, FrameBitsMatchPaper) {
  // 8-bit header + 64-bit word = 72 bits for data and supervisor packets;
  // partition interrupts and acks are short 16-bit frames.
  EXPECT_EQ(frame_bits(PacketType::kData), 72);
  EXPECT_EQ(frame_bits(PacketType::kSupervisor), 72);
  EXPECT_EQ(frame_bits(PacketType::kPartitionIrq), 16);
  EXPECT_EQ(frame_bits(PacketType::kAck), 16);
}

TEST(Packet, EncodeDecodeRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.type = (i % 2) ? PacketType::kData : PacketType::kSupervisor;
    p.payload = rng.next_u64();
    p.seq = static_cast<u8>(i & 3);
    const auto decoded = decode(encode(p));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, p.type);
    EXPECT_EQ(decoded->payload, p.payload);
    EXPECT_EQ(decoded->seq, p.seq);
  }
}

TEST(Packet, ShortFrameRoundTrip) {
  for (int v = 0; v < 256; ++v) {
    Packet p{PacketType::kPartitionIrq, static_cast<u64>(v), 0};
    const auto decoded = decode(encode(p));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->payload, static_cast<u64>(v));
  }
}

TEST(Packet, EverySingleBitErrorIsDetectedOrHarmless) {
  // The paper: type codes are chosen "so that a single bit error will not
  // cause a packet to be misinterpreted".  Flip every bit position of many
  // frames: decode must either fail (detected -> resend) or, if it
  // succeeds, reproduce the original content exactly (flip in an unused
  // padding position cannot exist in our dense frames, so success with
  // altered content would be a misinterpretation).
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Packet p;
    p.type = PacketType::kData;
    p.payload = rng.next_u64();
    p.seq = static_cast<u8>(trial & 3);
    const WireFrame clean = encode(p);
    for (int bit = 0; bit < clean.bits; ++bit) {
      WireFrame corrupted = clean;
      corrupted.bytes[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<u8>(1u << (bit % 8));
      const auto decoded = decode(corrupted);
      if (decoded.has_value()) {
        // A seq-field flip decodes fine but is caught by the window
        // protocol; any other field must be intact.
        EXPECT_EQ(decoded->type, p.type);
        EXPECT_EQ(decoded->payload, p.payload);
        EXPECT_NE(decoded->seq, p.seq);
      }
    }
  }
}

TEST(Packet, CorruptFlipsExactlyNBits) {
  Packet p{PacketType::kData, 0xdeadbeefcafef00dull, 2};
  WireFrame f = encode(p);
  const WireFrame orig = f;
  Rng rng(3);
  f.corrupt(5, rng);
  int flipped = 0;
  for (std::size_t i = 0; i < f.bytes.size(); ++i) {
    u8 diff = static_cast<u8>(f.bytes[i] ^ orig.bytes[i]);
    while (diff) {
      flipped += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped, 5);
}

// --- Link protocol harness --------------------------------------------------

struct LinkPair {
  sim::Engine engine;
  hssl::HsslConfig hssl_cfg;
  std::unique_ptr<hssl::Hssl> wire_ab, wire_ba;
  std::unique_ptr<SendSide> send_a, send_b;
  std::unique_ptr<RecvSide> recv_a, recv_b;  // recv_b receives from A

  explicit LinkPair(double ber = 0.0, LinkParams params = LinkParams{}) {
    hssl_cfg.training_cycles = 16;
    hssl_cfg.bit_error_rate = ber;
    Rng rng(42);
    wire_ab = std::make_unique<hssl::Hssl>(&engine, hssl_cfg, rng.split());
    wire_ba = std::make_unique<hssl::Hssl>(&engine, hssl_cfg, rng.split());
    send_a = std::make_unique<SendSide>(&engine, wire_ab.get(), params);
    send_b = std::make_unique<SendSide>(&engine, wire_ba.get(), params);
    recv_a = std::make_unique<RecvSide>(&engine, params, rng.split());
    recv_b = std::make_unique<RecvSide>(&engine, params, rng.split());
    send_a->set_remote(recv_b.get());
    send_b->set_remote(recv_a.get());
    recv_b->set_reverse(send_b.get());
    recv_a->set_reverse(send_a.get());
    wire_ab->power_on();
    wire_ba->power_on();
  }
};

TEST(Link, DeliversDataInOrder) {
  LinkPair link;
  std::vector<u64> got;
  link.recv_b->set_data_sink([&](u64 w) { got.push_back(w); });
  for (u64 i = 0; i < 20; ++i) link.send_a->enqueue_data(1000 + i);
  link.engine.run_until_idle();
  ASSERT_EQ(got.size(), 20u);
  for (u64 i = 0; i < 20; ++i) EXPECT_EQ(got[i], 1000 + i);
  EXPECT_TRUE(link.send_a->data_drained());
  EXPECT_EQ(link.send_a->checksum(), link.recv_b->checksum());
}

TEST(Link, ThreeInTheAirSustainsFullBandwidth) {
  // With the window-3 protocol, back-to-back 72-bit frames should saturate
  // the serial wire: N words take ~N*72 cycles despite the ack round trip.
  LinkPair link;
  link.recv_b->set_data_sink([](u64) {});
  const int n = 200;
  for (int i = 0; i < n; ++i) link.send_a->enqueue_data(static_cast<u64>(i));
  link.engine.run_until_idle();
  const Cycle elapsed = link.engine.now();
  // training (16) + n*72 serialization + protocol tail; allow 15% slack.
  EXPECT_LT(elapsed, static_cast<Cycle>(16 + n * 72 * 1.15));
  EXPECT_EQ(link.send_a->resends(), 0u);
}

TEST(Link, WindowOfOneIsRoundTripLimited) {
  LinkParams params;
  params.ack_window = 1;
  LinkPair link(0.0, params);
  link.recv_b->set_data_sink([](u64) {});
  const int n = 50;
  for (int i = 0; i < n; ++i) link.send_a->enqueue_data(static_cast<u64>(i));
  link.engine.run_until_idle();
  // Each word now waits for its ack (72 + wire + 16 + wire) before the next
  // can go: strictly slower than the pipelined case.
  EXPECT_GT(link.engine.now(), static_cast<Cycle>(n * (72 + 16)));
}

TEST(Link, IdleReceiveHoldsThreeWordsAndBlocksSender) {
  LinkPair link;
  for (u64 i = 0; i < 10; ++i) link.send_a->enqueue_data(i);
  // No sink installed: the receiver may hold at most 3 words unacked.
  for (int step = 0; step < 20000 && link.engine.step();) {
    ++step;
    if (link.engine.now() > 5000) break;
  }
  EXPECT_EQ(link.recv_b->held_words(), 3);
  EXPECT_FALSE(link.send_a->data_drained());
  // Programming the destination drains the held words and unblocks.
  std::vector<u64> got;
  link.recv_b->set_data_sink([&](u64 w) { got.push_back(w); });
  link.engine.run_until_idle();
  ASSERT_EQ(got.size(), 10u);
  for (u64 i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
  EXPECT_TRUE(link.send_a->data_drained());
}

TEST(Link, SingleBitErrorsAreRepairedByAutomaticResend) {
  LinkPair link(2e-4);  // roughly one flip per ~70 frames
  std::vector<u64> got;
  link.recv_b->set_data_sink([&](u64 w) { got.push_back(w); });
  Rng payloads(5);
  std::vector<u64> sent;
  for (int i = 0; i < 500; ++i) {
    sent.push_back(payloads.next_u64());
    link.send_a->enqueue_data(sent.back());
  }
  link.engine.run_until_idle();
  ASSERT_EQ(got.size(), sent.size());
  EXPECT_EQ(got, sent);
  EXPECT_EQ(link.send_a->checksum(), link.recv_b->checksum());
  // Errors must actually have occurred for this test to mean anything.
  EXPECT_GT(link.recv_b->detected_errors() + link.send_a->resends(), 0u);
}

TEST(Link, SupervisorPacketRaisesHandlerAndTakesPriority) {
  LinkPair link;
  u64 sup_word = 0;
  link.recv_b->set_supervisor_handler([&](u64 w) { sup_word = w; });
  link.recv_b->set_data_sink([](u64) {});
  for (u64 i = 0; i < 50; ++i) link.send_a->enqueue_data(i);
  link.send_a->enqueue_supervisor(0xabcdull);
  link.engine.run_until_idle();
  EXPECT_EQ(sup_word, 0xabcdull);
  EXPECT_TRUE(link.send_a->supervisor_drained());
}

TEST(Link, ChecksumExposesUndetectedCorruption) {
  // Force heavy corruption; whenever multi-bit flips slip past parity the
  // end-to-end checksums must disagree -- the paper's final confirmation.
  LinkParams params;
  params.resend_timeout_cycles = 512;
  LinkPair link(5e-3, params);
  link.recv_b->set_data_sink([](u64) {});
  Rng payloads(6);
  for (int i = 0; i < 2000; ++i) link.send_a->enqueue_data(payloads.next_u64());
  link.engine.run_until_idle();
  if (link.recv_b->undetected_errors() > 0) {
    EXPECT_NE(link.send_a->checksum(), link.recv_b->checksum());
  } else {
    EXPECT_EQ(link.send_a->checksum(), link.recv_b->checksum());
  }
}

// --- DMA engines ------------------------------------------------------------

TEST(Dma, DescriptorAddressesBlockStrided) {
  DmaDescriptor d;
  d.base_word = 100;
  d.block_words = 4;
  d.num_blocks = 3;
  d.stride_words = 10;
  EXPECT_EQ(d.total_words(), 12u);
  EXPECT_EQ(d.word_addr(0), 100u);
  EXPECT_EQ(d.word_addr(3), 103u);
  EXPECT_EQ(d.word_addr(4), 110u);
  EXPECT_EQ(d.word_addr(11), 123u);
}

TEST(Dma, MemoryToMemoryTransferMatchesPaperLatency) {
  LinkPair link;
  memsys::MemConfig mc;
  memsys::NodeMemory mem_a(mc), mem_b(mc);
  const auto src = mem_a.alloc(32, "src");
  const auto dst = mem_b.alloc(32, "dst");
  for (u64 i = 0; i < 32; ++i) mem_a.write_word(src.word_addr + i, 7000 + i);

  SendDma send(&link.engine, &mem_a, link.send_a.get());
  RecvDma recv(&link.engine, &mem_b, link.recv_b.get());

  DmaDescriptor d;
  d.base_word = src.word_addr;
  d.block_words = 32;
  recv.start(DmaDescriptor{dst.word_addr, 32, 1, 0});
  // Let training complete so latency measures the transfer itself.
  link.engine.run_until(64);
  const Cycle start = link.engine.now();
  send.start(d);
  link.engine.run_until_idle();

  for (u64 i = 0; i < 32; ++i) {
    EXPECT_EQ(mem_b.read_word(dst.word_addr + i), 7000 + i);
  }
  // First-word memory-to-memory: setup 150 + 72-bit frame + wire 2 +
  // landing 66 = 290 cycles = 580 ns at 500 MHz (paper: "about 600 ns").
  const Cycle first = recv.first_word_landed_at() - start;
  EXPECT_EQ(first, 290u);
  // Remaining 31 words stream at 72 cycles each (paper: 24 words = 600 ns
  // + 3.3 us).
  const Cycle last = recv.last_word_landed_at() - start;
  EXPECT_NEAR(static_cast<double>(last - first), 31 * 72, 8.0);
}

TEST(Dma, SendMayStartBeforeReceiveIsProgrammed) {
  // Paper Section 3.3: "the temporal ordering of a start send on one node
  // and start receive on another is not important".
  LinkPair link;
  memsys::NodeMemory mem_a, mem_b;
  const auto src = mem_a.alloc(16, "src");
  const auto dst = mem_b.alloc(16, "dst");
  for (u64 i = 0; i < 16; ++i) mem_a.write_word(src.word_addr + i, 42 + i);

  SendDma send(&link.engine, &mem_a, link.send_a.get());
  RecvDma recv(&link.engine, &mem_b, link.recv_b.get());
  send.start(DmaDescriptor{src.word_addr, 16, 1, 0});
  // Run a while with no receive programmed: idle receive blocks the sender.
  link.engine.run_until(20000);
  EXPECT_FALSE(send.active() == false);  // still in flight
  bool done = false;
  recv.start(DmaDescriptor{dst.word_addr, 16, 1, 0}, [&] { done = true; });
  link.engine.run_until_idle();
  EXPECT_TRUE(done);
  for (u64 i = 0; i < 16; ++i) {
    EXPECT_EQ(mem_b.read_word(dst.word_addr + i), 42 + i);
  }
}

// --- Global operations ------------------------------------------------------

TEST(GlobalOps, RingAllreduceSumsAndReportsHops) {
  GlobalOpTiming t;
  std::vector<double> values{1.0, 2.5, -0.5, 3.0};
  const auto single = ring_allreduce(t, values, false);
  EXPECT_DOUBLE_EQ(single.sum, 6.0);
  EXPECT_EQ(single.max_hops, 3u);  // N-1 hops
  const auto doubled = ring_allreduce(t, values, true);
  EXPECT_DOUBLE_EQ(doubled.sum, 6.0);
  EXPECT_EQ(doubled.max_hops, 2u);  // N/2 hops with the doubled link sets
  EXPECT_LT(doubled.completion_cycles, single.completion_cycles);
}

TEST(GlobalOps, DoubledModeHalvesHopCountAcrossSizes) {
  GlobalOpTiming t;
  for (int n : {2, 4, 8, 16, 32}) {
    std::vector<double> values(static_cast<std::size_t>(n), 1.0);
    const auto single = ring_allreduce(t, values, false);
    const auto doubled = ring_allreduce(t, values, true);
    EXPECT_EQ(single.max_hops, static_cast<u64>(n - 1));
    EXPECT_EQ(doubled.max_hops, static_cast<u64>(n / 2));
    EXPECT_DOUBLE_EQ(single.sum, static_cast<double>(n));
  }
}

TEST(GlobalOps, CutThroughBeatsStoreAndForwardForBroadcast) {
  GlobalOpTiming cut;
  GlobalOpTiming sf = cut;
  sf.cut_through = false;
  const int n = 16;
  const auto fast = ring_broadcast(cut, n, false);
  const auto slow = ring_broadcast(sf, n, false);
  EXPECT_LT(fast.completion_cycles, slow.completion_cycles);
  // Per-hop latency: 8 bits instead of 72 bits.
  const auto hops = static_cast<Cycle>(n - 2);
  EXPECT_EQ(slow.completion_cycles - fast.completion_cycles,
            hops * static_cast<Cycle>(kWordFrameBits - kPassthroughBits));
}

TEST(GlobalOps, SumIsBitReproducible) {
  GlobalOpTiming t;
  std::vector<double> values;
  Rng rng(17);
  for (int i = 0; i < 64; ++i) values.push_back(rng.next_gaussian());
  const double s1 = ring_allreduce(t, values, true).sum;
  const double s2 = ring_allreduce(t, values, true).sum;
  const double s3 = ring_allreduce(t, values, false).sum;
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s3);  // canonical order regardless of mode
}

TEST(GlobalOps, TrivialRing) {
  GlobalOpTiming t;
  std::vector<double> one{5.0};
  const auto r = ring_allreduce(t, one, true);
  EXPECT_DOUBLE_EQ(r.sum, 5.0);
  EXPECT_EQ(r.completion_cycles, 0u);
}

}  // namespace
}  // namespace qcdoc::scu

namespace qcdoc::scu {
namespace {

TEST(Link, SupervisorQueueDeliversInOrder) {
  LinkPair link;
  std::vector<u64> got;
  link.recv_b->set_supervisor_handler([&](u64 w) { got.push_back(w); });
  for (u64 i = 0; i < 8; ++i) link.send_a->enqueue_supervisor(100 + i);
  link.engine.run_until_idle();
  ASSERT_EQ(got.size(), 8u);
  for (u64 i = 0; i < 8; ++i) EXPECT_EQ(got[i], 100 + i);
  EXPECT_TRUE(link.send_a->supervisor_drained());
}

TEST(Link, SupervisorSurvivesCorruptedAcks) {
  LinkParams params;
  params.resend_timeout_cycles = 256;
  LinkPair link(2e-3, params);
  std::vector<u64> got;
  link.recv_b->set_supervisor_handler([&](u64 w) { got.push_back(w); });
  for (u64 i = 0; i < 20; ++i) link.send_a->enqueue_supervisor(i);
  link.engine.run_until_idle();
  // Exactly-once delivery in order, despite corrupted frames and SupAcks.
  ASSERT_EQ(got.size(), 20u);
  for (u64 i = 0; i < 20; ++i) EXPECT_EQ(got[i], i);
}

TEST(Link, BidirectionalTrafficSharesTheWirePair) {
  LinkPair link;
  std::vector<u64> at_b, at_a;
  link.recv_b->set_data_sink([&](u64 w) { at_b.push_back(w); });
  link.recv_a->set_data_sink([&](u64 w) { at_a.push_back(w); });
  for (u64 i = 0; i < 50; ++i) {
    link.send_a->enqueue_data(1000 + i);
    link.send_b->enqueue_data(2000 + i);
  }
  link.engine.run_until_idle();
  ASSERT_EQ(at_b.size(), 50u);
  ASSERT_EQ(at_a.size(), 50u);
  for (u64 i = 0; i < 50; ++i) {
    EXPECT_EQ(at_b[i], 1000 + i);
    EXPECT_EQ(at_a[i], 2000 + i);
  }
  // Both directions' checksums close.
  EXPECT_EQ(link.send_a->checksum(), link.recv_b->checksum());
  EXPECT_EQ(link.send_b->checksum(), link.recv_a->checksum());
}

TEST(Dma, BlockStridedTransferGathersAndScatters) {
  LinkPair link;
  memsys::NodeMemory mem_a, mem_b;
  const auto src = mem_a.alloc(64, "src");
  const auto dst = mem_b.alloc(64, "dst");
  for (u64 i = 0; i < 64; ++i) mem_a.write_word(src.word_addr + i, i);

  SendDma send(&link.engine, &mem_a, link.send_a.get());
  RecvDma recv(&link.engine, &mem_b, link.recv_b.get());
  // Gather every other group of 4 words; scatter contiguously.
  DmaDescriptor sd{src.word_addr, 4, 8, 8};
  DmaDescriptor rd{dst.word_addr, 32, 1, 0};
  recv.start(rd);
  send.start(sd);
  link.engine.run_until_idle();
  for (u64 blk = 0; blk < 8; ++blk) {
    for (u64 w = 0; w < 4; ++w) {
      EXPECT_EQ(mem_b.read_word(dst.word_addr + blk * 4 + w), blk * 8 + w);
    }
  }
}

TEST(Dma, ScatterLandsEveryWordWithinAndAcrossAllocations) {
  // A receive indexes one span when a single allocation holds its whole
  // pattern and looks each word up otherwise; negative strides put the
  // pattern's lowest word at its last block in both cases.
  LinkPair link;
  memsys::NodeMemory mem_a, mem_b;
  const auto src = mem_a.alloc(16, "src");
  const auto low = mem_b.alloc(16, "low");
  const auto high = mem_b.alloc(16, "high");
  ASSERT_EQ(high.word_addr, low.word_addr + 16);
  for (u64 i = 0; i < 16; ++i) mem_a.write_word(src.word_addr + i, 100 + i);

  SendDma send(&link.engine, &mem_a, link.send_a.get());
  RecvDma recv(&link.engine, &mem_b, link.recv_b.get());
  const DmaDescriptor within{high.word_addr + 12, 4, 4, -4};
  const DmaDescriptor across{high.word_addr + 8, 4, 4, -8};
  for (const DmaDescriptor& rd : {within, across}) {
    recv.start(rd);
    send.start(DmaDescriptor{src.word_addr, 16, 1, 0});
    link.engine.run_until_idle();
    for (u64 i = 0; i < 16; ++i) {
      EXPECT_EQ(mem_b.read_word(rd.word_addr(i)), 100 + i) << i;
    }
  }
}

TEST(GlobalOps, OddRingSizes) {
  GlobalOpTiming t;
  for (int n : {3, 5, 7}) {
    std::vector<double> values(static_cast<std::size_t>(n), 2.0);
    const auto single = ring_allreduce(t, values, false);
    const auto doubled = ring_allreduce(t, values, true);
    EXPECT_DOUBLE_EQ(single.sum, 2.0 * n);
    EXPECT_DOUBLE_EQ(doubled.sum, 2.0 * n);
    EXPECT_EQ(single.max_hops, static_cast<u64>(n - 1));
    EXPECT_EQ(doubled.max_hops, static_cast<u64>((n - 1 + 1) / 2));
  }
}

// --- Fault injection and escalation -----------------------------------------

TEST(Link, AckLossBurstIsRecoveredByTimeout) {
  LinkParams params;
  params.resend_timeout_cycles = 512;
  LinkPair link(0.0, params);
  std::vector<u64> got;
  link.recv_b->set_data_sink([&](u64 w) { got.push_back(w); });
  link.send_a->drop_acks(4);
  for (u64 i = 0; i < 30; ++i) link.send_a->enqueue_data(3000 + i);
  link.engine.run_until_idle();
  ASSERT_EQ(got.size(), 30u);
  for (u64 i = 0; i < 30; ++i) EXPECT_EQ(got[i], 3000 + i);
  EXPECT_TRUE(link.send_a->data_drained());
  EXPECT_EQ(link.send_a->checksum(), link.recv_b->checksum());
  // The dropped acknowledgements forced the timeout machinery to resend.
  EXPECT_GT(link.send_a->resends(), 0u);
  EXPECT_FALSE(link.send_a->faulted());
}

TEST(Link, HighErrorRateGoBackNKeepsChecksumsMatched) {
  LinkParams params;
  params.resend_timeout_cycles = 512;
  LinkPair link(1e-3, params);
  std::vector<u64> got;
  link.recv_b->set_data_sink([&](u64 w) { got.push_back(w); });
  Rng payloads(11);
  std::vector<u64> sent;
  for (int i = 0; i < 600; ++i) {
    sent.push_back(payloads.next_u64());
    link.send_a->enqueue_data(sent.back());
  }
  link.engine.run_until_idle();
  ASSERT_EQ(got.size(), sent.size());
  // At this rate parity failures and NACK go-backs are guaranteed.
  EXPECT_GT(link.recv_b->detected_errors(), 0u);
  EXPECT_GT(link.send_a->resends(), 0u);
  if (link.recv_b->undetected_errors() == 0) {
    EXPECT_EQ(got, sent);
    EXPECT_EQ(link.send_a->checksum(), link.recv_b->checksum());
  } else {
    EXPECT_NE(link.send_a->checksum(), link.recv_b->checksum());
  }
}

TEST(Link, ErrorRecoveryIsSeedDeterministic) {
  // The whole failure path -- error injection, NACKs, timeouts, resends --
  // must be bit-reproducible for a fixed seed (paper Section 4).
  auto run = [] {
    LinkParams params;
    params.resend_timeout_cycles = 512;
    LinkPair link(1e-3, params);
    link.recv_b->set_data_sink([](u64) {});
    Rng payloads(13);
    for (int i = 0; i < 400; ++i) link.send_a->enqueue_data(payloads.next_u64());
    link.engine.run_until_idle();
    return std::make_tuple(link.send_a->resends(),
                           link.recv_b->detected_errors(),
                           link.recv_b->checksum(), link.engine.now());
  };
  EXPECT_EQ(run(), run());
}

TEST(Link, DeadWireEscalatesToLinkFaultInsteadOfRetryingForever) {
  LinkParams params;
  params.resend_timeout_cycles = 256;
  params.fault_timeout_rounds = 4;
  LinkPair link(0.0, params);
  std::vector<u64> got;
  link.recv_b->set_data_sink([&](u64 w) { got.push_back(w); });
  int faults = 0;
  link.send_a->set_on_link_fault([&] { ++faults; });
  for (u64 i = 0; i < 10; ++i) link.send_a->enqueue_data(i);
  link.engine.run_until(400);  // a few words get through
  link.wire_ab->fail();
  link.engine.run_until_idle();  // must terminate: no infinite retry
  EXPECT_TRUE(link.send_a->faulted());
  EXPECT_EQ(faults, 1);
  EXPECT_FALSE(link.send_a->data_drained());

  // Host-commanded recovery: retrain the wire, clear the fault, and the
  // window protocol re-delivers whatever the dead wire swallowed.
  link.wire_ab->retrain();
  link.send_a->clear_fault();
  link.engine.run_until_idle();
  EXPECT_FALSE(link.send_a->faulted());
  EXPECT_TRUE(link.send_a->data_drained());
  ASSERT_EQ(got.size(), 10u);
  for (u64 i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(link.send_a->checksum(), link.recv_b->checksum());
}

TEST(Link, ForcedCorruptionLandsInChecksumOnly) {
  LinkPair link;
  std::vector<u64> got;
  link.recv_b->set_data_sink([&](u64 w) { got.push_back(w); });
  link.recv_b->force_corrupt(1);
  for (u64 i = 0; i < 10; ++i) link.send_a->enqueue_data(i);
  link.engine.run_until_idle();
  // The transfer "succeeds" -- only the end-to-end checksum can tell.
  ASSERT_EQ(got.size(), 10u);
  EXPECT_TRUE(link.send_a->data_drained());
  EXPECT_EQ(link.recv_b->undetected_errors(), 1u);
  EXPECT_NE(link.send_a->checksum(), link.recv_b->checksum());
}

// Window-size sweep as a property: bandwidth must be monotone in the
// window and saturate at 3 (the paper's design point).
class WindowSweep : public ::testing::TestWithParam<int> {};

TEST_P(WindowSweep, BandwidthMonotoneAndSaturating) {
  auto run = [](int window) {
    LinkParams params;
    params.ack_window = window;
    LinkPair link(0.0, params);
    link.recv_b->set_data_sink([](u64) {});
    for (int i = 0; i < 100; ++i) link.send_a->enqueue_data(static_cast<u64>(i));
    link.engine.run_until_idle();
    return static_cast<double>(link.engine.now());
  };
  const int w = GetParam();
  EXPECT_LE(run(w + 1), run(w));
  if (w >= 3) {
    // Already saturated: growing the window gains nothing.
    EXPECT_NEAR(run(w + 1), run(w), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace qcdoc::scu
