// Property tests for the bucketed calendar queue (sim/calendar_queue.h):
// against a reference std::priority_queue it must pop the exact same
// (time, src, seq) key sequence under randomized schedules, including
// same-cycle ties across sources and sequence numbers, the link's own
// frame distances, wheel-horizon overflow, the sliding window, pushes
// below the window, re-anchoring and slab-slot reuse.
#include <gtest/gtest.h>

#include <iterator>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "sim/calendar_queue.h"

using namespace qcdoc;
using namespace qcdoc::sim;

namespace {

struct KeyLater {
  bool operator()(const EventKey& a, const EventKey& b) const {
    return b < a;
  }
};
using RefQueue =
    std::priority_queue<EventKey, std::vector<EventKey>, KeyLater>;

/// The link's own schedule distances at the default 2-cycle wire delay: an
/// ACK frame's serializer-free event and delivery (+16/+18) and a data
/// frame's (+72/+74).
constexpr Cycle kLinkOffsets[] = {16, 18, 72, 74};

/// The engine's schedule-time pattern: events land at `now + offset` where
/// the offset distribution mixes same-cycle ties, link-frame distances,
/// in-wheel offsets, offsets past the wheel horizon, and scrubber-period
/// jumps.
Cycle random_offset(Rng& rng) {
  switch (rng.next_below(10)) {
    case 0:
      return 0;  // same-cycle tie
    case 1:
    case 2:
    case 3:
      return rng.next_below(18);  // within the lookahead window
    case 4:
    case 5:
      return kLinkOffsets[rng.next_below(std::size(kLinkOffsets))];
    case 6:
    case 7:
      return rng.next_below(CalendarQueue::kWheelSize);  // wheel edge
    case 8:
      return CalendarQueue::kWheelSize + rng.next_below(1000);  // past it
    default:
      return 1 << 14;  // scrubber period, overflow heap for sure
  }
}

/// Pop everything left and check it comes out as `want`, in order.
void expect_pops(CalendarQueue& cq, const std::vector<EventKey>& want) {
  for (const EventKey& k : want) {
    ASSERT_FALSE(cq.empty());
    EXPECT_EQ(cq.min_time(), k.time);
    const QueuedEvent ev = cq.pop_min();
    EXPECT_EQ(ev.time, k.time);
    EXPECT_EQ(ev.src_rank, k.src_rank);
    EXPECT_EQ(ev.seq, k.seq);
  }
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(cq.min_time(), CalendarQueue::kNoEvent);
}

void run_campaign(u64 seed, int steps, double push_prob) {
  Rng rng(seed);
  CalendarQueue cq;
  RefQueue ref;
  Cycle now = 0;
  std::vector<u64> seq_per_src(4, 0);
  u64 executed = 0;

  for (int step = 0; step < steps; ++step) {
    const bool do_push = cq.empty() || rng.next_double() < push_prob;
    if (do_push) {
      const u32 src = static_cast<u32>(rng.next_below(4));
      const Cycle t = now + random_offset(rng);
      const u64 seq = seq_per_src[src]++;
      const bool expect_new_min = ref.empty() || t < ref.top().time;
      // Payload checks the stored action survives its slab slot intact
      // while its key moves between buckets and the overflow heap.
      u64* out = &executed;
      const u64 stamp = t ^ (u64{src} << 48) ^ seq;
      EXPECT_EQ(cq.push(QueuedEvent{t, src, seq,
                                    [out, stamp] { *out ^= stamp; }}),
                expect_new_min)
          << "push return at step " << step;
      ref.push(EventKey{t, src, seq});
    } else {
      ASSERT_FALSE(cq.empty());
      ASSERT_EQ(cq.size(), ref.size());
      const EventKey want = ref.top();
      ref.pop();
      EXPECT_EQ(cq.min_time(), want.time);
      const EventKey head = cq.min_key();
      EXPECT_EQ(head.time, want.time);
      EXPECT_EQ(head.src_rank, want.src_rank);
      EXPECT_EQ(head.seq, want.seq);
      QueuedEvent ev = cq.pop_min();
      ASSERT_EQ(ev.time, want.time) << "at step " << step;
      ASSERT_EQ(ev.src_rank, want.src_rank) << "at step " << step;
      ASSERT_EQ(ev.seq, want.seq) << "at step " << step;
      const u64 before = executed;
      ev.fn();
      EXPECT_EQ(executed,
                before ^ (ev.time ^ (u64{ev.src_rank} << 48) ^ ev.seq));
      now = ev.time;
    }
  }
  // Drain what remains; order must still match exactly.
  while (!ref.empty()) {
    const EventKey want = ref.top();
    ref.pop();
    ASSERT_FALSE(cq.empty());
    QueuedEvent ev = cq.pop_min();
    ASSERT_EQ(ev.time, want.time);
    ASSERT_EQ(ev.src_rank, want.src_rank);
    ASSERT_EQ(ev.seq, want.seq);
  }
  EXPECT_TRUE(cq.empty());
  EXPECT_EQ(cq.min_time(), CalendarQueue::kNoEvent);
}

TEST(CalendarQueue, MatchesReferencePushHeavy) {
  for (const u64 seed : {1u, 2u, 3u, 4u}) {
    run_campaign(seed, 20000, 0.65);
  }
}

TEST(CalendarQueue, MatchesReferencePopHeavy) {
  for (const u64 seed : {11u, 12u, 13u, 14u}) {
    run_campaign(seed, 20000, 0.45);
  }
}

TEST(CalendarQueue, SameCycleTieStormAcrossSources) {
  // Many sources all scheduling onto one timestamp: pop order must be
  // (src, seq) lexicographic within the shared cycle.
  CalendarQueue cq;
  Rng rng(99);
  RefQueue ref;
  for (int burst = 0; burst < 50; ++burst) {
    const Cycle t = 1000 * static_cast<Cycle>(burst);
    std::vector<u64> seq(8, u64{0} + static_cast<u64>(burst) * 100);
    for (int i = 0; i < 64; ++i) {
      const u32 src = static_cast<u32>(rng.next_below(8));
      const u64 s = seq[src]++;
      cq.push(QueuedEvent{t, src, s, [] {}});
      ref.push(EventKey{t, src, s});
    }
  }
  while (!ref.empty()) {
    const EventKey want = ref.top();
    ref.pop();
    QueuedEvent ev = cq.pop_min();
    ASSERT_EQ(ev.time, want.time);
    ASSERT_EQ(ev.src_rank, want.src_rank);
    ASSERT_EQ(ev.seq, want.seq);
  }
  EXPECT_TRUE(cq.empty());
}

TEST(CalendarQueue, RebaseOnBelowBasePush) {
  // Drain the wheel with a far event pending, then push below the far
  // event: the empty wheel re-anchors on the new event.
  CalendarQueue cq;
  cq.push(QueuedEvent{10, 0, 0, [] {}});
  cq.push(QueuedEvent{100000, 0, 1, [] {}});
  EXPECT_EQ(cq.pop_min().time, 10u);
  EXPECT_EQ(cq.min_time(), 100000u);
  EXPECT_TRUE(cq.push(QueuedEvent{50, 1, 0, [] {}}));
  EXPECT_EQ(cq.min_time(), 50u);
  EXPECT_EQ(cq.pop_min().time, 50u);
  EXPECT_EQ(cq.pop_min().time, 100000u);
  EXPECT_TRUE(cq.empty());
}

TEST(CalendarQueue, PushBelowTheWindowWithANonEmptyWheel) {
  // The window starts at 1000 and holds 1000, 1100 and 1250.  A push at
  // 900 moves it down to [900, 1156): 1250 spills to the overflow heap,
  // 1000 and 1100 stay in their buckets.
  CalendarQueue cq;
  EXPECT_TRUE(cq.push(QueuedEvent{1000, 2, 0, [] {}}));
  EXPECT_FALSE(cq.push(QueuedEvent{1100, 2, 1, [] {}}));
  EXPECT_FALSE(cq.push(QueuedEvent{1250, 2, 2, [] {}}));
  EXPECT_TRUE(cq.push(QueuedEvent{900, 1, 0, [] {}}));
  EXPECT_EQ(cq.min_key().src_rank, 1u);
  // A second push far below: every bucketed event spills.
  EXPECT_TRUE(cq.push(QueuedEvent{100, 3, 0, [] {}}));
  EXPECT_FALSE(cq.push(QueuedEvent{1100, 0, 0, [] {}}));  // ties 2/1
  EXPECT_EQ(cq.size(), 6u);
  expect_pops(cq, {{100, 3, 0},
                   {900, 1, 0},
                   {1000, 2, 0},
                   {1100, 0, 0},
                   {1100, 2, 1},
                   {1250, 2, 2}});
}

TEST(CalendarQueue, EmptyWheelReanchorsWithOverflowPending) {
  CalendarQueue cq;
  cq.push(QueuedEvent{0, 0, 0, [] {}});
  cq.push(QueuedEvent{300, 0, 1, [] {}});  // past [0, 256)
  cq.push(QueuedEvent{400, 0, 2, [] {}});
  cq.push(QueuedEvent{5000, 0, 3, [] {}});
  EXPECT_EQ(cq.pop_min().time, 0u);  // the wheel is empty now
  EXPECT_EQ(cq.min_time(), 300u);
  // Below the overflow head: the window re-anchors at 200 and pulls 300
  // and 400 into buckets; 5000 stays in the overflow heap.
  EXPECT_TRUE(cq.push(QueuedEvent{200, 1, 0, [] {}}));
  EXPECT_EQ(cq.pop_min().time, 200u);
  // Past the overflow head: the window re-anchors on that head instead.
  EXPECT_EQ(cq.pop_min().time, 300u);
  EXPECT_EQ(cq.pop_min().time, 400u);
  EXPECT_FALSE(cq.push(QueuedEvent{5100, 1, 1, [] {}}));
  EXPECT_FALSE(cq.push(QueuedEvent{5000, 1, 2, [] {}}));
  expect_pops(cq, {{5000, 0, 3}, {5000, 1, 2}, {5100, 1, 1}});
}

TEST(CalendarQueue, WindowSlidesOntoTheMinimumForFrameDistances) {
  // A rank that keeps one frame in flight pushes +72/+74 from each popped
  // event; the window slides along, and a long timer keeps its key.
  CalendarQueue cq;
  RefQueue ref;
  u64 seq = 0;
  const auto push = [&](Cycle t) {
    cq.push(QueuedEvent{t, 0, seq, [] {}});
    ref.push(EventKey{t, 0, seq});
    ++seq;
  };
  push(1 << 20);
  push(0);
  for (int i = 0; i < 2000; ++i) {
    const EventKey want = ref.top();
    ref.pop();
    const QueuedEvent ev = cq.pop_min();
    ASSERT_EQ(ev.time, want.time);
    ASSERT_EQ(ev.seq, want.seq);
    if (ev.time < (1 << 20)) {
      push(ev.time + kLinkOffsets[i % 4]);
      if (i % 3 == 0) push(ev.time + kLinkOffsets[(i + 1) % 4]);
    }
  }
  EXPECT_EQ(cq.size(), ref.size());
}

TEST(CalendarQueue, PoppedActionPushingIntoItsOwnQueueReusesItsSlot) {
  // Each action pushes its successor into the queue that held it -- the
  // successor takes the slab slot the action was popped from -- and only
  // then reads its own captures.
  struct Bouncer {
    CalendarQueue* q;
    std::vector<u64>* seen;
    void arm(Cycle t, u64 seq, u64 tag) {
      q->push(QueuedEvent{t, 1, seq, [this, t, seq, tag] {
                            if (seq + 1 < 1000) {
                              arm(t + kLinkOffsets[seq % 4], seq + 1,
                                  tag * 3 + 1);
                            }
                            seen->push_back(tag ^ t);
                          }});
    }
  };
  CalendarQueue cq;
  std::vector<u64> seen;
  Bouncer b{&cq, &seen};
  cq.push(QueuedEvent{Cycle{1} << 30, 0, 0, [] {}});  // a standing timer
  b.arm(5, 0, 7);
  while (cq.size() > 1) {
    QueuedEvent ev = cq.pop_min();
    ev.fn();
  }
  ASSERT_EQ(seen.size(), 1000u);
  Cycle t = 5;
  u64 tag = 7;
  for (u64 i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], tag ^ t) << "event " << i;
    t += kLinkOffsets[i % 4];
    tag = tag * 3 + 1;
  }
  EXPECT_EQ(cq.slots(), 2u) << "the bouncing event must reuse its slot";
  EXPECT_EQ(cq.pop_min().time, Cycle{1} << 30);
}

TEST(CalendarQueue, PushReturnsTrueOnlyOnStrictlyNewMinimum) {
  CalendarQueue cq;
  EXPECT_TRUE(cq.push(QueuedEvent{20, 0, 0, [] {}}));   // empty -> true
  EXPECT_FALSE(cq.push(QueuedEvent{20, 0, 1, [] {}}));  // tie -> false
  EXPECT_FALSE(cq.push(QueuedEvent{30, 0, 2, [] {}}));
  EXPECT_TRUE(cq.push(QueuedEvent{19, 1, 0, [] {}}));
  EXPECT_EQ(cq.size(), 4u);
}

}  // namespace
