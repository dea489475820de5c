// Bucketed calendar queue (timing wheel) for per-rank event storage.
//
// The links are bit-serial at one bit per cycle, so most of a rank's pending
// events sit within one link frame of its current minimum: a 72-bit data
// frame schedules its serializer-free event 72 cycles ahead and its delivery
// 74 (16 and 18 for an ACK).  The queue keeps a ring of 256 one-cycle buckets
// covering [base, base + 256), with a four-word occupancy mask, so finding
// the next occupied bucket is a countr_zero per word.  The window slides:
// a push past the wheel but less than one wheel ahead of the current
// minimum moves the base onto that minimum and pulls the overflow events
// now inside into buckets.  Only events a wheel or more ahead (link resend
// timeouts, scrubber periods, watchdog ticks) stay in the overflow heap.
//
// Each event is stored once, in a per-queue slab: a vector of nodes plus an
// intrusive free list.  A bucket is an intrusive u32 list of slab slots,
// kept sorted by key, and the overflow heap holds (key, slot) entries, so
// neither moves an action when events change places.  The slab and the
// heap keep their capacity, so a warm queue allocates nothing.
//
// Pop order is exactly the engine's per-rank key order (time, src, seq):
// a bucket holds a single timestamp and its list is sorted by (src, seq),
// so the head of the earliest bucket is the minimum.  The property test in
// tests/test_calendar_queue.cpp checks this queue against a reference
// std::priority_queue over randomized schedules.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <utility>
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
  static constexpr u32 kWheelBits = 8;
  static constexpr u32 kWheelSize = 1u << kWheelBits;  ///< 256 one-cycle buckets

  CalendarQueue() { head_.fill(kNil); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Slab slots carved so far: the queue's high-water pending count, since
  /// popped slots are reused before the slab grows.
  std::size_t slots() const { return slab_.size(); }

  /// Timestamp of the earliest pending event, kNoEvent when empty.  O(1).
  Cycle min_time() const { return min_time_; }

  /// Full key of the earliest pending event.  Requires non-empty.  O(1).
  EventKey min_key() const {
    if (wheel_count_ > 0) return key_of(slab_[head_[bucket_of(min_time_)]]);
    const FarEntry& f = far_.front();
    return EventKey{f.time, f.src_rank, f.seq};
  }

  /// Insert an event.  Returns true when it became the queue's new earliest
  /// event (strictly earlier than the previous minimum, or the queue was
  /// empty) -- the signal the engine uses to maintain its shard heaps.
  bool push(QueuedEvent&& ev) {
    const Cycle t = ev.time;
    const u32 s = store(std::move(ev));
    if (wheel_count_ == 0) {
      // Empty buckets: anchor the window on the earliest pending time, this
      // event or the overflow head, so idle gaps stay on the fast path.
      base_ = std::min(t, min_time_);
      pull();
    } else if (t < base_) {
      lower(t);
    } else if (t - base_ >= kWheelSize && t - min_time_ < kWheelSize) {
      base_ = min_time_;  // slide: the minimum is at or after the old base
      pull();
    }
    if (t - base_ < kWheelSize) {
      link(s);
    } else {
      far_push(s);
    }
    ++size_;
    if (t < min_time_) {
      min_time_ = t;
      return true;
    }
    return false;
  }

  /// Remove and return the earliest event (by (time, src, seq)).  Requires
  /// non-empty.
  QueuedEvent pop_min() {
    if (wheel_count_ == 0) {
      base_ = min_time_;  // the overflow head
      pull();
    }
    const std::size_t b = bucket_of(min_time_);
    const u32 s = head_[b];
    Node& n = slab_[s];
    head_[b] = n.next;
    if (head_[b] == kNil) occupied_[b / 64] &= ~(u64{1} << (b % 64));
    --wheel_count_;
    --size_;
    QueuedEvent ev{n.time, n.src_rank, n.seq, std::move(n.fn)};
    n.next = free_;
    free_ = s;
    advance_min();
    return ev;
  }

 private:
  static constexpr u32 kNil = ~u32{0};
  static constexpr std::size_t kWords = kWheelSize / 64;

  /// One slab slot.  `next` links the slot into its bucket's list, or into
  /// the free list once popped; it fills the padding a QueuedEvent has after
  /// src_rank, so a node is no bigger than the event it holds.
  struct Node {
    Cycle time;
    u32 src_rank;
    u32 next;
    u64 seq;
    EventFn fn;
  };

  /// Overflow-heap entry: the event's key and its slab slot.
  struct FarEntry {
    Cycle time;
    u32 src_rank;
    u32 slot;
    u64 seq;
  };
  struct FarLater {
    bool operator()(const FarEntry& a, const FarEntry& b) const {
      return EventKey{b.time, b.src_rank, b.seq} <
             EventKey{a.time, a.src_rank, a.seq};
    }
  };

  static EventKey key_of(const Node& n) {
    return EventKey{n.time, n.src_rank, n.seq};
  }
  static std::size_t bucket_of(Cycle t) {
    return static_cast<std::size_t>(t) & (kWheelSize - 1);
  }

  /// Move an event into a free slab slot and return the slot.
  u32 store(QueuedEvent&& ev) {
    if (free_ == kNil) {
      slab_.push_back(
          Node{ev.time, ev.src_rank, kNil, ev.seq, std::move(ev.fn)});
      return static_cast<u32>(slab_.size() - 1);
    }
    const u32 s = free_;
    Node& n = slab_[s];
    free_ = n.next;
    n.time = ev.time;
    n.src_rank = ev.src_rank;
    n.seq = ev.seq;
    n.fn = std::move(ev.fn);
    return s;
  }

  /// Insert slot `s` into its bucket, keeping the list sorted by key.
  /// Events mostly arrive in key order, so the tail is checked first.
  void link(u32 s) {
    Node& n = slab_[s];
    const std::size_t b = bucket_of(n.time);
    ++wheel_count_;
    if (head_[b] == kNil) {
      n.next = kNil;
      head_[b] = s;
      tail_[b] = s;
      occupied_[b / 64] |= u64{1} << (b % 64);
      return;
    }
    if (key_of(slab_[tail_[b]]) < key_of(n)) {
      n.next = kNil;
      slab_[tail_[b]].next = s;
      tail_[b] = s;
      return;
    }
    u32* at = &head_[b];
    while (key_of(slab_[*at]) < key_of(n)) at = &slab_[*at].next;
    n.next = *at;
    *at = s;
  }

  void far_push(u32 s) {
    const Node& n = slab_[s];
    far_.push_back(FarEntry{n.time, n.src_rank, s, n.seq});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
  }

  /// Pull every overflow event inside [base_, base_ + kWheelSize) into its
  /// bucket.  Requires the overflow head at or after base_.
  void pull() {
    while (!far_.empty() && far_.front().time - base_ < kWheelSize) {
      const u32 s = far_.front().slot;
      std::pop_heap(far_.begin(), far_.end(), FarLater{});
      far_.pop_back();
      link(s);
    }
  }

  /// Move the window down to start at `t` (below base_, wheel non-empty):
  /// the bucketed events at or past t + kWheelSize spill to the overflow
  /// heap, which only ever holds events at or past the window's end.
  void lower(Cycle t) {
    // The times [t + kWheelSize, base_ + kWheelSize) no longer fit: scan
    // that many buckets from t + kWheelSize on (all of them at most).
    std::size_t left = base_ - t < kWheelSize ? base_ - t : kWheelSize;
    std::size_t p = bucket_of(t + kWheelSize);
    for (;;) {
      const std::size_t d = next_occupied(p);
      if (d >= left) break;
      const std::size_t b = bucket_of(p + d);
      for (u32 s = head_[b]; s != kNil; s = slab_[s].next) {
        far_push(s);
        --wheel_count_;
      }
      head_[b] = kNil;
      occupied_[b / 64] &= ~(u64{1} << (b % 64));
      p = bucket_of(p + d + 1);
      left -= d + 1;
    }
    base_ = t;
  }

  /// Ring distance from bucket `from` to the first occupied bucket at or
  /// after it, kWheelSize when every bucket is empty.
  std::size_t next_occupied(std::size_t from) const {
    std::size_t w = from / 64;
    u64 bits = occupied_[w] & (~u64{0} << (from % 64));
    for (std::size_t i = 0; i <= kWords; ++i) {
      if (bits != 0) {
        return (w * 64 + static_cast<std::size_t>(std::countr_zero(bits)) -
                from) &
               (kWheelSize - 1);
      }
      w = (w + 1) % kWords;
      bits = occupied_[w];
    }
    return kWheelSize;
  }

  /// Recompute min_time_ after a pop.  Every bucketed event is at or after
  /// the popped minimum and before base_ + kWheelSize, so the ring distance
  /// to the next occupied bucket is the time to the next event.
  void advance_min() {
    if (size_ == 0) {
      min_time_ = kNoEvent;
    } else if (wheel_count_ > 0) {
      min_time_ += next_occupied(bucket_of(min_time_));
    } else {
      min_time_ = far_.front().time;
    }
  }

  static_assert(sizeof(Node) == sizeof(QueuedEvent));

  std::vector<Node> slab_;
  u32 free_ = kNil;                   ///< free-list head over slab_
  std::array<u32, kWheelSize> head_;  ///< bucket list heads, kNil if empty
  std::array<u32, kWheelSize> tail_{};  ///< valid only for non-empty buckets
  std::array<u64, kWords> occupied_{};  ///< bit b set iff bucket b non-empty
  Cycle base_ = 0;  ///< buckets cover [base_, base_ + kWheelSize)
  std::size_t wheel_count_ = 0;
  std::vector<FarEntry> far_;  ///< min-heap (FarLater) of later events
  std::size_t size_ = 0;
  Cycle min_time_ = kNoEvent;
};

}  // namespace qcdoc::sim
