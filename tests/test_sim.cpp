#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/engine.h"
#include "sim/stats.h"

namespace qcdoc::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, EqualTimestampsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule(5, [&order, i] { order.push_back(i); });
  }
  e.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) e.schedule(10, chain);
  };
  e.schedule(10, chain);
  e.run_until_idle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), 50u);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  int fired = 0;
  e.schedule(10, [&] { ++fired; });
  e.schedule(20, [&] { ++fired; });
  e.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 15u);
  e.run_until_idle();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilAdvancesTimeWithNoEvents) {
  Engine e;
  e.run_until(1000);
  EXPECT_EQ(e.now(), 1000u);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule(1, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, PendingEventsCount) {
  Engine e;
  e.schedule(1, [] {});
  e.schedule(2, [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  e.run_until_idle();
  EXPECT_EQ(e.pending_events(), 0u);
}

// Contract: scheduling into the past is a model bug and must be rejected
// loudly, never silently reordered (it used to corrupt the queue order).
TEST(Engine, ScheduleAtRejectsThePast) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run_until_idle();
  ASSERT_EQ(e.now(), 100u);
  EXPECT_THROW(e.schedule_at(99, [] {}), std::invalid_argument);
  // t == now() stays legal: zero-delay events are idiomatic in the model.
  e.schedule_at(100, [] {});
  EXPECT_EQ(e.pending_events(), 1u);
  e.run_until_idle();
}

TEST(Engine, ScheduleAtRejectsThePastFromInsideAnEvent) {
  Engine e;
  bool threw = false;
  e.schedule(50, [&] {
    try {
      e.schedule_at(10, [] {});
    } catch (const std::invalid_argument& ex) {
      threw = true;
      EXPECT_NE(std::string(ex.what()).find("past"), std::string::npos);
    }
  });
  e.run_until_idle();
  EXPECT_TRUE(threw);
  EXPECT_EQ(e.events_executed(), 1u);
}

TEST(Engine, OrderDigestDetectsDifferentSchedules) {
  Engine a, b, c;
  for (Engine* e : {&a, &b}) {
    e->schedule(10, [] {});
    e->schedule(20, [] {});
    e->run_until_idle();
  }
  c.schedule(10, [] {});
  c.schedule(21, [] {});
  c.run_until_idle();
  EXPECT_EQ(a.trace_digest(), b.trace_digest());
  EXPECT_NE(a.trace_digest(), c.trace_digest());
}

TEST(Stats, Accumulates) {
  StatSet s;
  s.add("a");
  s.add("a", 4);
  s.add("b", 2);
  EXPECT_EQ(s.get("a"), 5u);
  EXPECT_EQ(s.get("b"), 2u);
  EXPECT_EQ(s.get("missing"), 0u);
}

}  // namespace
}  // namespace qcdoc::sim
