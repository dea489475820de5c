// Unit tests for the bit-serial HSSL link model (paper Section 2.2).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "hssl/hssl.h"
#include "sim/engine.h"

namespace qcdoc::hssl {
namespace {

/// A frame of `bits` bits; the wire reads nothing else.
Frame frame(int bits) { return Frame{.bits = bits}; }

/// One wire whose receiver records every delivery.
struct Wire {
  struct Delivery {
    u64 id;
    Frame frame;
    int flipped;
    Cycle at;
  };

  sim::Engine engine;
  HsslConfig cfg;
  std::unique_ptr<Hssl> link;
  std::vector<Delivery> delivered;

  explicit Wire(HsslConfig c = HsslConfig{}) : cfg(c) {
    link = std::make_unique<Hssl>(&engine, cfg, Rng(5));
    link->set_receiver([this](u64 id, const Frame& f, int flipped) {
      delivered.push_back(Delivery{id, f, flipped, engine.now()});
    });
  }
};

TEST(Hssl, NoTrafficBeforeTraining) {
  // "When powered on and released from reset, these HSSL controllers
  // transmit a known byte sequence ... establishing optimal times for
  // sampling": payload queued before training waits for it.
  Wire w;
  w.link->power_on();
  w.link->transmit(frame(72));
  w.engine.run_until_idle();
  EXPECT_TRUE(w.link->trained());
  EXPECT_EQ(w.link->trained_at(), w.cfg.training_cycles);
  ASSERT_EQ(w.delivered.size(), 1u);
  EXPECT_EQ(w.delivered[0].at,
            w.cfg.training_cycles + 72 + kWireDelayCycles);
}

TEST(Hssl, FramesSerializeInFifoOrderAtOneBitPerCycle) {
  HsslConfig cfg;
  cfg.training_cycles = 8;
  Wire w(cfg);
  w.link->power_on();
  for (int i = 0; i < 4; ++i) w.link->transmit(frame(72));
  w.engine.run_until_idle();
  ASSERT_EQ(w.delivered.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w.delivered[i].id, i);
    // Back-to-back frames: one every 72 cycles after training.
    EXPECT_EQ(w.delivered[i].at,
              cfg.training_cycles + 72 * (i + 1) + kWireDelayCycles);
  }
}

TEST(Hssl, MixedFrameSizesKeepOrdering) {
  HsslConfig cfg;
  cfg.training_cycles = 4;
  Wire w(cfg);
  w.link->power_on();
  w.link->transmit(frame(72));
  w.link->transmit(frame(16));
  w.link->transmit(frame(72));
  w.engine.run_until_idle();
  ASSERT_EQ(w.delivered.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(w.delivered[i].id, i);
  EXPECT_EQ(w.delivered[1].frame.bits, 16);
}

TEST(Hssl, FrameFieldsArriveAsSent) {
  // The wire carries the SCU's packet fields by value and never reads them.
  HsslConfig cfg;
  cfg.training_cycles = 4;
  Wire w(cfg);
  w.link->power_on();
  const Frame sent{.payload = 0x0123456789abcdefull, .bits = 72, .tag = 0x3,
                   .seq = 2};
  w.link->transmit(sent);
  w.engine.run_until_idle();
  ASSERT_EQ(w.delivered.size(), 1u);
  const Frame& got = w.delivered[0].frame;
  EXPECT_EQ(got.payload, sent.payload);
  EXPECT_EQ(got.bits, sent.bits);
  EXPECT_EQ(got.tag, sent.tag);
  EXPECT_EQ(got.seq, sent.seq);
  EXPECT_EQ(w.delivered[0].flipped, 0);
}

TEST(Hssl, ErrorInjectionIsDeterministicAndCounted) {
  HsslConfig cfg;
  cfg.training_cycles = 4;
  cfg.bit_error_rate = 0.01;
  auto run = [&] {
    Wire w(cfg);
    w.link->power_on();
    for (int i = 0; i < 200; ++i) w.link->transmit(frame(72));
    w.engine.run_until_idle();
    std::vector<int> flips;
    for (const auto& d : w.delivered) flips.push_back(d.flipped);
    return std::make_pair(flips, w.link->bits_flipped());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);  // same seed, same corruption pattern
  EXPECT_EQ(a.second, b.second);
  u64 total = 0;
  for (int f : a.first) total += static_cast<u64>(f);
  EXPECT_EQ(total, a.second);
  // ~144 expected flips over 14400 bits; demand the right order of magnitude.
  EXPECT_GT(total, 50u);
  EXPECT_LT(total, 300u);
}

TEST(Hssl, ReadyCallbackFiresPerFreeSlot) {
  HsslConfig cfg;
  cfg.training_cycles = 4;
  Wire w(cfg);
  int ready = 0;
  w.link->set_ready_callback([&] { ++ready; });
  w.link->power_on();
  w.link->transmit(frame(72));
  w.link->transmit(frame(72));
  w.engine.run_until_idle();
  // The callback reports "serializer free AND queue empty": with two
  // pre-queued frames it fires exactly once, after the last frame -- the
  // contract the SCU send side relies on (it queues one frame at a time).
  EXPECT_EQ(ready, 1);
  w.link->transmit(frame(16));
  w.engine.run_until_idle();
  EXPECT_EQ(ready, 2);
}

TEST(Hssl, RuntimeErrorRateChange) {
  Wire w;
  EXPECT_DOUBLE_EQ(w.link->bit_error_rate(), 0.0);
  w.link->set_bit_error_rate(1e-3);
  EXPECT_DOUBLE_EQ(w.link->bit_error_rate(), 1e-3);
}

TEST(Hssl, ErrorRateIsClampedToProbabilityRange) {
  Wire w;
  w.link->set_bit_error_rate(-0.5);
  EXPECT_DOUBLE_EQ(w.link->bit_error_rate(), 0.0);
  w.link->set_bit_error_rate(7.0);
  EXPECT_DOUBLE_EQ(w.link->bit_error_rate(), 1.0);
  w.link->set_bit_error_rate(std::nan(""));
  EXPECT_DOUBLE_EQ(w.link->bit_error_rate(), 0.0);
  HsslConfig cfg;
  cfg.bit_error_rate = 42.0;  // a bad config value is clamped on construction
  Wire clamped(cfg);
  EXPECT_DOUBLE_EQ(clamped.link->bit_error_rate(), 1.0);
}

TEST(Hssl, UnpoweredOrFailedLinkRejectsTraffic) {
  Wire w;
  // Never powered on: no training sequence has run.
  EXPECT_EQ(w.link->state(), LinkState::kDown);
  EXPECT_EQ(w.link->transmit(frame(72)), Hssl::kRejected);

  w.link->power_on();
  w.engine.run_until_idle();
  EXPECT_TRUE(w.link->trained());

  w.link->fail();
  EXPECT_TRUE(w.link->failed());
  EXPECT_EQ(w.link->transmit(frame(72)), Hssl::kRejected);
}

TEST(Hssl, FailDropsInFlightFramesAndRetrainRecovers) {
  HsslConfig cfg;
  cfg.training_cycles = 8;
  Wire w(cfg);
  w.link->power_on();
  w.engine.run_until_idle();

  w.link->transmit(frame(72));
  w.engine.run_until(cfg.training_cycles + 10);  // mid-serialization
  w.link->fail();
  w.engine.run_until_idle();
  EXPECT_TRUE(w.delivered.empty());  // the bits died on the wire
  EXPECT_TRUE(w.link->failed());

  // Host-commanded recovery: retraining re-runs the byte sequence and the
  // link carries traffic again.
  w.link->retrain();
  EXPECT_EQ(w.link->state(), LinkState::kTraining);
  w.link->transmit(frame(72));
  w.engine.run_until_idle();
  EXPECT_TRUE(w.link->trained());
  EXPECT_EQ(w.delivered.size(), 1u);
  EXPECT_EQ(w.link->times_trained(), 2u);
  EXPECT_EQ(w.link->retrains(), 1u);
}

TEST(Hssl, RetrainFromTrainedRefindsSamplingPoint) {
  HsslConfig cfg;
  cfg.training_cycles = 8;
  Wire w(cfg);
  w.link->power_on();
  w.engine.run_until_idle();
  const Cycle first_trained_at = w.link->trained_at();
  w.link->retrain();
  w.engine.run_until_idle();
  EXPECT_TRUE(w.link->trained());
  EXPECT_GT(w.link->trained_at(), first_trained_at);
  EXPECT_EQ(w.link->times_trained(), 2u);
}

}  // namespace
}  // namespace qcdoc::hssl
