// Unit tests for the bit-serial HSSL link model (paper Section 2.2).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "hssl/hssl.h"
#include "sim/engine.h"

namespace qcdoc::hssl {
namespace {

struct Wire {
  sim::Engine engine;
  sim::StatSet stats;
  HsslConfig cfg;
  std::unique_ptr<Hssl> link;

  explicit Wire(HsslConfig c = HsslConfig{}) : cfg(c) {
    link = std::make_unique<Hssl>(&engine, cfg, Rng(5), &stats);
  }
};

TEST(Hssl, NoTrafficBeforeTraining) {
  // "When powered on and released from reset, these HSSL controllers
  // transmit a known byte sequence ... establishing optimal times for
  // sampling": payload queued before training waits for it.
  Wire w;
  Cycle delivered_at = 0;
  w.link->power_on();
  w.link->transmit(72, [&](u64, int) { delivered_at = w.engine.now(); });
  w.engine.run_until_idle();
  EXPECT_TRUE(w.link->trained());
  EXPECT_EQ(w.link->trained_at(), w.cfg.training_cycles);
  EXPECT_EQ(delivered_at,
            w.cfg.training_cycles + 72 + w.cfg.wire_delay_cycles);
}

TEST(Hssl, FramesSerializeInFifoOrderAtOneBitPerCycle) {
  HsslConfig cfg;
  cfg.training_cycles = 8;
  Wire w(cfg);
  w.link->power_on();
  std::vector<std::pair<u64, Cycle>> deliveries;
  for (int i = 0; i < 4; ++i) {
    w.link->transmit(72, [&](u64 id, int) {
      deliveries.emplace_back(id, w.engine.now());
    });
  }
  w.engine.run_until_idle();
  ASSERT_EQ(deliveries.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(deliveries[i].first, i);
    // Back-to-back frames: one every 72 cycles after training.
    EXPECT_EQ(deliveries[i].second,
              cfg.training_cycles + 72 * (i + 1) + cfg.wire_delay_cycles);
  }
}

TEST(Hssl, MixedFrameSizesKeepOrdering) {
  HsslConfig cfg;
  cfg.training_cycles = 4;
  Wire w(cfg);
  w.link->power_on();
  std::vector<u64> order;
  w.link->transmit(72, [&](u64 id, int) { order.push_back(id); });
  w.link->transmit(16, [&](u64 id, int) { order.push_back(id); });
  w.link->transmit(72, [&](u64 id, int) { order.push_back(id); });
  w.engine.run_until_idle();
  EXPECT_EQ(order, (std::vector<u64>{0, 1, 2}));
}

TEST(Hssl, ErrorInjectionIsDeterministicAndCounted) {
  HsslConfig cfg;
  cfg.training_cycles = 4;
  cfg.bit_error_rate = 0.01;
  auto run = [&] {
    Wire w(cfg);
    w.link->power_on();
    std::vector<int> flips;
    for (int i = 0; i < 200; ++i) {
      w.link->transmit(72, [&](u64, int f) { flips.push_back(f); });
    }
    w.engine.run_until_idle();
    return std::make_pair(flips, w.stats.get("hssl.bits_flipped"));
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

TEST(Hssl, IdleCyclesAccountTrainedButUnusedTime) {
  HsslConfig cfg;
  cfg.training_cycles = 10;
  Wire w(cfg);
  w.link->power_on();
  w.engine.run_until_idle();
  w.engine.run_until(1010);  // 1000 idle cycles after training
  EXPECT_EQ(w.link->idle_cycles(), 1000u);
  bool done = false;
  w.link->transmit(72, [&](u64, int) { done = true; });
  w.engine.run_until_idle();
  EXPECT_TRUE(done);
  // The 72 busy cycles do not count as idle.
  EXPECT_EQ(w.link->idle_cycles(),
            w.engine.now() - w.cfg.training_cycles - 72);
}

TEST(Hssl, ReadyCallbackFiresPerFreeSlot) {
  HsslConfig cfg;
  cfg.training_cycles = 4;
  Wire w(cfg);
  int ready = 0;
  w.link->set_ready_callback([&] { ++ready; });
  w.link->power_on();
  w.link->transmit(72, {});
  w.link->transmit(72, {});
  w.engine.run_until_idle();
  // The callback reports "serializer free AND queue empty": with two
  // pre-queued frames it fires exactly once, after the last frame -- the
  // contract the SCU send side relies on (it queues one frame at a time).
  EXPECT_EQ(ready, 1);
  w.link->transmit(16, {});
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
  EXPECT_EQ(w.link->transmit(72, {}), Hssl::kRejected);
  EXPECT_EQ(w.link->rejected_frames(), 1u);

  w.link->power_on();
  w.engine.run_until_idle();
  EXPECT_TRUE(w.link->trained());

  w.link->fail();
  EXPECT_TRUE(w.link->failed());
  EXPECT_FALSE(w.link->busy());
  EXPECT_EQ(w.link->transmit(72, {}), Hssl::kRejected);
  EXPECT_EQ(w.link->rejected_frames(), 2u);
  EXPECT_EQ(w.stats.get("hssl.rejected_frames"), 2u);
}

TEST(Hssl, FailDropsInFlightFramesAndRetrainRecovers) {
  HsslConfig cfg;
  cfg.training_cycles = 8;
  Wire w(cfg);
  w.link->power_on();
  w.engine.run_until_idle();

  bool lost_delivered = false;
  w.link->transmit(72, [&](u64, int) { lost_delivered = true; });
  w.engine.run_until(cfg.training_cycles + 10);  // mid-serialization
  w.link->fail();
  w.engine.run_until_idle();
  EXPECT_FALSE(lost_delivered);  // the bits died on the wire
  EXPECT_EQ(w.stats.get("hssl.failures"), 1u);

  // Host-commanded recovery: retraining re-runs the byte sequence and the
  // link carries traffic again.
  w.link->retrain();
  EXPECT_EQ(w.link->state(), LinkState::kTraining);
  bool delivered = false;
  w.link->transmit(72, [&](u64, int) { delivered = true; });
  w.engine.run_until_idle();
  EXPECT_TRUE(w.link->trained());
  EXPECT_TRUE(delivered);
  EXPECT_EQ(w.link->times_trained(), 2u);
  EXPECT_EQ(w.stats.get("hssl.retrains"), 1u);
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
