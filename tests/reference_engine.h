// Single-heap reference executor: the oracle the engine tests compare
// sim::Engine's event order against.
//
// One std::priority_queue ordered by the full (time, dest rank, src rank,
// seq) key of sim/engine.h, run on the calling thread, with the same
// per-rank order digest.  No shards, no windows, no lookahead: the total
// order with nothing in the way.  The golden digests cannot stand in for
// it: they are folded per destination rank, so they cannot see two ranks
// swapped at one timestamp.
#pragma once

#include <cstddef>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.h"

namespace qcdoc::sim {

class ReferenceEngine {
 public:
  using Action = EventFn;

  ReferenceEngine() = default;
  ReferenceEngine(const ReferenceEngine&) = delete;
  ReferenceEngine& operator=(const ReferenceEngine&) = delete;

  Cycle now() const {
    const detail::ExecCtx& ctx = detail::exec_ctx();
    return ctx.engine == this ? ctx.now : now_;
  }

  void schedule(Cycle delay, Action fn) {
    schedule_at_on(current_affinity(), now() + delay, std::move(fn));
  }

  void schedule_on(Affinity dest, Cycle delay, Action fn) {
    schedule_at_on(dest, now() + delay, std::move(fn));
  }

  void schedule_at_on(Affinity dest, Cycle t, Action fn) {
    if (t < now()) {
      throw std::invalid_argument("ReferenceEngine: schedule into the past");
    }
    const u32 src = detail::affinity_rank(current_affinity());
    queue_.push(Event{t, detail::affinity_rank(dest), src,
                      stream(src).scheduled++, std::move(fn)});
  }

  bool step() {
    if (queue_.empty()) return false;
    // Moving out of a priority_queue requires const_cast; the element is
    // popped immediately afterwards so the broken ordering invariant is
    // never observed.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    Stream& dst = stream(ev.dest_rank);
    dst.digest = detail::fnv1a(dst.digest, ev.time);
    dst.digest =
        detail::fnv1a(dst.digest, (u64{ev.dest_rank} << 32) | ev.src_rank);
    dst.digest = detail::fnv1a(dst.digest, ev.seq);
    ++dst.executed;
    ++events_;
    const detail::ScopedExecCtx ctx(this, ev.time,
                                    detail::rank_affinity(ev.dest_rank),
                                    detail::rank_affinity(ev.src_rank), ev.seq);
    ev.fn();
    return true;
  }

  Cycle run_until_idle() {
    while (step()) {
    }
    return now_;
  }

  void run_until(Cycle t) {
    while (!queue_.empty() && queue_.top().time <= t) step();
    if (t > now_) now_ = t;
  }

  bool drain(const ActiveCounter& counter) {
    while (counter.value() != 0) {
      if (!step()) return false;
    }
    return true;
  }

  std::size_t pending_events() const { return queue_.size(); }
  u64 events_executed() const { return events_; }

  u64 trace_digest() const {
    u64 h = detail::kFnvOffset;
    for (u32 r = 0; r < streams_.size(); ++r) {
      if (streams_[r].executed == 0) continue;
      h = detail::fnv1a(h, r);
      h = detail::fnv1a(h, streams_[r].executed);
      h = detail::fnv1a(h, streams_[r].digest);
    }
    return h;
  }

 private:
  struct Event {
    Cycle time;
    u32 dest_rank;
    u32 src_rank;
    u64 seq;
    Action fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.dest_rank != b.dest_rank) return a.dest_rank > b.dest_rank;
      if (a.src_rank != b.src_rank) return a.src_rank > b.src_rank;
      return a.seq > b.seq;
    }
  };
  /// Per-rank bookkeeping: schedule counter as a source, execution count and
  /// order digest as a destination.
  struct Stream {
    u64 scheduled = 0;
    u64 executed = 0;
    u64 digest = detail::kFnvOffset;
  };

  Affinity current_affinity() const {
    const detail::ExecCtx& ctx = detail::exec_ctx();
    return ctx.engine == this ? ctx.affinity : kHostAffinity;
  }

  Stream& stream(u32 rank) {
    if (streams_.size() <= rank) streams_.resize(rank + 1);
    return streams_[rank];
  }

  Cycle now_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Stream> streams_;
  u64 events_ = 0;
};

}  // namespace qcdoc::sim
