// Bucketed calendar queue (timing wheel) for per-rank event storage.
//
// The engine's lookahead is ~18 cycles, so nearly every pending
// event on a rank lands within a few tens of cycles of the queue's current
// minimum.  A binary heap pays O(log n) comparisons *and* O(log n) moves of
// a 70-byte event per push and pop; the calendar queue instead keeps a ring
// of 64 one-cycle buckets covering [base, base + 64) -- push is an append
// to the right bucket, pop scans the earliest occupied bucket (tracked by a
// 64-bit occupancy mask, so finding it is one countr_zero).  Events beyond
// the wheel horizon (scrubber periods, watchdog ticks, refresh timers) go
// to a small overflow heap and migrate into the wheel when it drains
// forward to them.
//
// Pop order is exactly the engine's per-rank key order (time, src, seq):
// a bucket holds a single timestamp, so the tie-break is a linear scan of
// one (almost always tiny) bucket.  The property test in
// tests/test_calendar_queue.cpp checks this queue against a reference
// std::priority_queue over randomized schedules.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <queue>
#include <vector>

#include "common/types.h"
#include "sim/event_fn.h"

namespace qcdoc::sim {

/// One pending event as stored per destination rank.  The destination is
/// implied by which queue holds it.
struct QueuedEvent {
  Cycle time;
  u32 src_rank;
  u64 seq;
  EventFn fn;
};

/// The engine's per-rank ordering key: (time, src, seq).
struct EventKey {
  Cycle time;
  u32 src_rank;
  u64 seq;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.src_rank != b.src_rank) return a.src_rank < b.src_rank;
    return a.seq < b.seq;
  }
};

class CalendarQueue {
 public:
  static constexpr Cycle kNoEvent = ~Cycle{0};
  static constexpr u32 kWheelBits = 6;
  static constexpr u32 kWheelSize = 1u << kWheelBits;  ///< 64 one-cycle buckets

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Timestamp of the earliest pending event, kNoEvent when empty.  O(1).
  Cycle min_time() const { return min_time_; }

  /// Full key of the earliest pending event.  Requires non-empty.
  EventKey min_key() const {
    if (wheel_count_ > 0) {
      const Bucket& b = near_[static_cast<std::size_t>(min_time_) &
                              (kWheelSize - 1)];
      const QueuedEvent* best = &b[0];
      for (std::size_t i = 1; i < b.size(); ++i) {
        if (key_of(b[i]) < key_of(*best)) best = &b[i];
      }
      return key_of(*best);
    }
    return key_of(far_.top());
  }

  /// Insert an event.  Returns true when it became the queue's new earliest
  /// event (strictly earlier than the previous minimum, or the queue was
  /// empty) -- the signal the engine uses to maintain its shard heaps.
  bool push(QueuedEvent ev) {
    const Cycle t = ev.time;
    if (size_ == 0) {
      // Re-anchor the wheel on the first event so long idle gaps (a
      // scrubber waking every 2^14 cycles) stay on the fast path.
      base_ = t;
      occupied_ = 0;
    }
    if (t >= base_ && t - base_ < kWheelSize) {
      const std::size_t b = static_cast<std::size_t>(t) & (kWheelSize - 1);
      near_[b].push_back(std::move(ev));
      occupied_ |= u64{1} << b;
      ++wheel_count_;
    } else if (t < base_) {
      // A push below the wheel window: only possible via host-time schedules
      // after the wheel advanced.  Rare; rebuild the wheel around it.
      rebase(t, std::move(ev));
    } else {
      far_.push(std::move(ev));
    }
    ++size_;
    if (t < min_time_ || size_ == 1) {
      min_time_ = t;
      return true;
    }
    return false;
  }

  /// Remove and return the earliest event (by (time, src, seq)).  Requires
  /// non-empty.
  QueuedEvent pop_min() {
    if (wheel_count_ == 0) migrate();
    const std::size_t bi =
        static_cast<std::size_t>(min_time_) & (kWheelSize - 1);
    Bucket& b = near_[bi];
    std::size_t best = 0;
    for (std::size_t i = 1; i < b.size(); ++i) {
      if (key_of(b[i]) < key_of(b[best])) best = i;
    }
    QueuedEvent ev = std::move(b[best]);
    if (best + 1 != b.size()) b[best] = std::move(b.back());
    b.pop_back();
    --wheel_count_;
    --size_;
    if (b.empty()) occupied_ &= ~(u64{1} << bi);
    advance_min();
    return ev;
  }

 private:
  using Bucket = std::vector<QueuedEvent>;

  struct FarLater {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      return key_of(b) < key_of(a);
    }
  };

  static EventKey key_of(const QueuedEvent& e) {
    return EventKey{e.time, e.src_rank, e.seq};
  }

  /// Recompute min_time_ after a pop emptied (or drained) buckets.
  void advance_min() {
    if (size_ == 0) {
      min_time_ = kNoEvent;
      return;
    }
    if (wheel_count_ > 0) {
      // All wheel events are >= the popped minimum and < base_ + 64, so the
      // occupancy bit j positions past min_time_'s residue is exactly the
      // event time min_time_ + j.
      const u64 rot = std::rotr(occupied_,
                                static_cast<int>(min_time_ & (kWheelSize - 1)));
      min_time_ += static_cast<Cycle>(std::countr_zero(rot));
      return;
    }
    min_time_ = far_.top().time;
  }

  /// Move the wheel window forward onto the overflow heap's head and pull
  /// every event within the new window into buckets.
  void migrate() {
    base_ = far_.top().time;
    occupied_ = 0;
    while (!far_.empty() && far_.top().time - base_ < kWheelSize) {
      QueuedEvent ev = std::move(const_cast<QueuedEvent&>(far_.top()));
      far_.pop();
      const std::size_t b =
          static_cast<std::size_t>(ev.time) & (kWheelSize - 1);
      near_[b].push_back(std::move(ev));
      occupied_ |= u64{1} << b;
      ++wheel_count_;
    }
    min_time_ = base_;
  }

  /// Rebuild the wheel around a new, earlier base: spill every bucketed
  /// event to the overflow heap, then re-pull the new window.
  void rebase(Cycle t, QueuedEvent ev) {
    for (Bucket& b : near_) {
      for (QueuedEvent& e : b) far_.push(std::move(e));
      b.clear();
    }
    wheel_count_ = 0;
    base_ = t;
    occupied_ = u64{1} << (static_cast<std::size_t>(t) & (kWheelSize - 1));
    near_[static_cast<std::size_t>(t) & (kWheelSize - 1)].push_back(
        std::move(ev));
    ++wheel_count_;
    while (!far_.empty() && far_.top().time >= base_ &&
           far_.top().time - base_ < kWheelSize) {
      QueuedEvent e = std::move(const_cast<QueuedEvent&>(far_.top()));
      far_.pop();
      const std::size_t b =
          static_cast<std::size_t>(e.time) & (kWheelSize - 1);
      near_[b].push_back(std::move(e));
      occupied_ |= u64{1} << b;
      ++wheel_count_;
    }
  }

  std::array<Bucket, kWheelSize> near_;
  u64 occupied_ = 0;           ///< bit b set iff near_[b] is non-empty
  Cycle base_ = 0;             ///< wheel covers [base_, base_ + kWheelSize)
  std::size_t wheel_count_ = 0;
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, FarLater> far_;
  std::size_t size_ = 0;
  Cycle min_time_ = kNoEvent;
};

}  // namespace qcdoc::sim
