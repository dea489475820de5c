// Discrete-event simulation engine.
//
// All timed behaviour in the machine model (serial-link bit timing, DMA
// engines, memory controllers, the 40 MHz global clock) is expressed as
// events on one engine, a conservative executor over per-node calendar
// queues (calendar_queue.h) that runs at any thread count, 1 included.
//
// Determinism is a correctness requirement, mirroring the paper's demand
// that repeated runs of a physics evolution be identical in all bits
// (Section 4).  The engine therefore executes events in one well-defined
// total order, keyed by
//
//     (time, destination rank, source rank, per-source sequence number)
//
// where the "rank" of an event is the node it acts on (the host controller
// is rank 0 and fires first at equal timestamps; node i is rank i+1).  The
// source rank is the rank that scheduled the event, and the sequence number
// counts schedules per source.  Unlike a global schedule counter, this key
// does not depend on the interleaving of independent nodes, so every thread
// count computes it identically -- and it reduces to plain scheduling order
// for events scheduled from one context at one timestamp.
//
// Ranks are sharded across threads, each shard a contiguous block of rank
// queues plus a lazy min-heap of their (time, rank) heads; stale heap
// entries are dropped when they fail to match the live queue head.
// Execution proceeds in adaptive slices chosen from the pending-event
// picture at the global minimum time T:
//
//   - Host slice: the earliest pending event is a host event (rank 0).
//     The coordinator runs every host event at T inline, in exact key
//     order, with all node queues untouched -- host events never demote
//     node execution to serial windows; they only bound them.
//   - Parallel window: two or more shards have events in [T, end), where
//     end = min(T + lookahead, next host event).  Workers drain their own
//     shards' events concurrently with no synchronization, legal because
//     the model guarantees no cross-node effect sooner than L cycles (the
//     HSSL physics: a frame delivery costs a full serialization of at least
//     the 16-bit minimum frame plus the wire time of flight, so
//     L = min_frame_bits + wire_delay_cycles).  A node-to-node schedule
//     made inside a window onto a rank of the executing worker's own shard
//     goes straight into that rank's queue (and, as its new head, into the
//     worker's shard heap).  Only host-bound and cross-shard schedules are
//     buffered in per-worker outboxes and merged at the barrier; every
//     queue orders by the key, so neither the merge order nor the moment
//     of the push matters.
//   - Single-shard fast-forward: only one shard is occupied (an idle
//     machine with a lone scrubber, a single hot node, one thread).  The
//     coordinator runs that shard with no barrier at all, as far as
//     min(next host event, earliest foreign-shard event) -- which coalesces
//     what would otherwise be thousands of 18-cycle windows.
//
// step() runs exactly the globally next event: the earliest (time, rank)
// front across the shard heaps, whose calendar queue breaks the (src, seq)
// tie.  The single-heap executor in tests/reference_engine.h is the oracle
// the engine tests compare this order against.
//
// The cross-node lookahead contract is enforced uniformly: a node event
// scheduling onto another node closer than L cycles throws, on every
// execution path, so model bugs cannot hide in serially-executed phases.
// Node-to-host schedules are exempt (the host queue serializes them
// exactly) except inside a parallel window, where they must clear the
// window end like any other cross-rank schedule.
//
// The engine also maintains an order digest (FNV-1a over the key tuples,
// folded per destination rank) so tests can assert that two runs -- at any
// thread counts -- executed the exact same events at the exact same times.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/calendar_queue.h"
#include "sim/event_fn.h"

namespace qcdoc::sim {

/// Which node's state an event acts on: picks the rank queue (and so the
/// shard) an event lands in, and its place in the total order.
using Affinity = u32;

/// Affinity of host-controller events (boot, Ethernet, fault injection,
/// partition-interrupt windows).  Host events execute before node events at
/// equal timestamps and only ever run on the coordinating thread.
inline constexpr Affinity kHostAffinity = 0xffffffffu;

namespace detail {

/// Total-order rank of an affinity: host first, then nodes in id order.
inline u32 affinity_rank(Affinity a) {
  return a == kHostAffinity ? 0u : a + 1u;
}
inline Affinity rank_affinity(u32 rank) {
  return rank == 0 ? kHostAffinity : rank - 1;
}

inline constexpr u64 kFnvOffset = 1469598103934665603ull;
inline constexpr u64 kFnvPrime = 1099511628211ull;

/// Fold one 64-bit value into an FNV-1a digest, byte by byte.
inline u64 fnv1a(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xffu)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

/// Per-thread execution context: which engine is running an event on this
/// thread, at what time, on behalf of which node.  Lets now() and schedule()
/// work unchanged from worker threads, and lets newly scheduled events
/// inherit the scheduling node as their source rank.
struct ExecCtx {
  const void* engine = nullptr;
  Cycle now = 0;
  Affinity affinity = kHostAffinity;
  /// Scheduling provenance of the running event, carried so diagnostics
  /// (the AFFSAN sanitizer above all) can say who created it: the affinity
  /// that scheduled it and its per-source sequence number.
  Affinity src = kHostAffinity;
  u64 seq = 0;
};

ExecCtx& exec_ctx();

/// Installs an event's context for the duration of its action and restores
/// the previous one even when the action throws, so a failed event can never
/// leave a dangling engine pointer in the thread-local context.
class ScopedExecCtx {
 public:
  ScopedExecCtx(const void* engine, Cycle now, Affinity affinity,
                Affinity src = kHostAffinity, u64 seq = 0)
      : saved_(exec_ctx()) {
    exec_ctx() = {engine, now, affinity, src, seq};
  }
  ~ScopedExecCtx() { exec_ctx() = saved_; }
  ScopedExecCtx(const ScopedExecCtx&) = delete;
  ScopedExecCtx& operator=(const ScopedExecCtx&) = delete;

 private:
  ExecCtx saved_;
};

}  // namespace detail

/// Shared count of in-flight activity (the mesh uses one for DMA transfers),
/// used to detect quiescence in O(1) instead of scanning every link after
/// every event.  Atomic so DMA completions on worker threads can decrement
/// it; `last_zero_at` records the event time of the decrement that reached
/// zero, which is where a drain stops the clock.
class ActiveCounter {
 public:
  void increment() { count_.fetch_add(1, std::memory_order_relaxed); }
  void decrement(Cycle at) {
    if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      last_zero_at_.store(at, std::memory_order_release);
    }
  }
  long value() const { return count_.load(std::memory_order_acquire); }
  Cycle last_zero_at() const {
    return last_zero_at_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<long> count_{0};
  std::atomic<Cycle> last_zero_at_{0};
};

/// Execution statistics, for perf reports and the scaling bench.
struct EngineReport {
  int threads = 1;
  Cycle lookahead = 0;
  u64 events = 0;
  u64 windows_parallel = 0;          ///< windows run with workers engaged
  u64 windows_serial = 0;            ///< single-shard slices, coordinator only
  u64 windows_host = 0;              ///< host-event slices at window seams
  u64 cross_shard_events = 0;        ///< events scheduled inside parallel
                                     ///< windows onto a rank another shard
                                     ///< owns (merged at the barrier)
  u64 parallel_window_events = 0;    ///< events executed inside parallel windows
  u64 peak_pending_events = 0;       ///< high-water pending count (sampled
                                     ///< after every slice, step and
                                     ///< single-shard rank batch)
  double barrier_stall_seconds = 0;  ///< coordinator wall time at barriers
  /// Wall time the coordinator waited per barrier, bucketed by log2
  /// microseconds: [0] no wait, [1] <2us, [2] <4us ... [15] >=16ms.
  std::array<u64, 16> barrier_wait_hist{};
  std::vector<u64> shard_events;   ///< events executed per shard
};

/// One rank's order-bookkeeping stream as captured into a snapshot.  Rank
/// numbering follows detail::affinity_rank (host 0, node i at i+1).
struct EngineStreamState {
  u32 rank = 0;
  u64 scheduled = 0;
  u64 executed = 0;
  u64 digest = detail::kFnvOffset;
};

/// The engine state that must survive a process restart for the order digest
/// to stay continuous: the clock plus every rank's stream.  Pending events
/// are deliberately NOT here -- snapshots are taken at quiescent points
/// (pending_events() == 0, or events owned by re-armable services), because
/// EventFn closures capture raw pointers and cannot be serialized.
struct EngineClockState {
  Cycle now = 0;
  u64 events_executed = 0;
  std::vector<EngineStreamState> streams;
};

struct EngineConfig {
  int threads = 1;     ///< total, including the coordinating caller
  Cycle lookahead = 1; ///< window length; no cross-node effect sooner
  int num_nodes = 0;   ///< valid node affinities are [0, num_nodes)
};

/// The simulation engine.  See the file comment for the execution-order
/// contract; the thread count changes wall-clock time, never a result.
class Engine {
 public:
  /// Event actions are inline small-buffer callables, not std::function --
  /// a typical action's captures overflow std::function's inline buffer and
  /// would cost one heap allocation per scheduled event (see event_fn.h).
  using Action = EventFn;

  explicit Engine(EngineConfig cfg = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in CPU cycles (valid from any thread running an
  /// event of this engine; elsewhere it is the engine's global clock).
  Cycle now() const {
    const detail::ExecCtx& ctx = detail::exec_ctx();
    return ctx.engine == this ? ctx.now : now_;
  }

  /// Schedule `fn` to run `delay` cycles from now on the current node (the
  /// node whose event is executing, or the host outside event context).
  void schedule(Cycle delay, Action fn) {
    schedule_at_on(current_affinity(), now() + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` on the current node.  Throws
  /// std::invalid_argument when `t < now()`.
  void schedule_at(Cycle t, Action fn) {
    schedule_at_on(current_affinity(), t, std::move(fn));
  }

  /// Schedule `fn` to run `delay` cycles from now on node `dest`.
  void schedule_on(Affinity dest, Cycle delay, Action fn) {
    schedule_at_on(dest, now() + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute time `t` (>= now(), else throws
  /// std::invalid_argument) acting on node `dest`.
  void schedule_at_on(Affinity dest, Cycle t, Action fn);

  /// Run the globally earliest pending event.  Returns false when no events
  /// remain.  Always executes exactly one event in total-key order, on the
  /// calling thread -- so predicate-bounded loops behave identically at
  /// every thread count.
  bool step();

  /// Step while `pred()` holds.  Returns false when the queue empties with
  /// the predicate still true (a stall).
  template <typename Pred>
  bool run_while(Pred&& pred) {
    while (pred()) {
      if (!step()) return false;
    }
    return true;
  }

  /// Run events until the queue drains.  Returns the final time.
  Cycle run_until_idle();

  /// Run events with timestamp <= t, then set now() = t.
  void run_until(Cycle t);

  /// Advance the clock with no event processing (used by the BSP runtime to
  /// account for pure-compute phases).  `t` must be >= now() and no pending
  /// event may be earlier than `t`.
  void advance_to(Cycle t);

  /// Run until `counter` reads zero; now() ends at the time of the event
  /// that zeroed it.  A parallel window may also have run events on other
  /// shards up to lookahead-1 cycles past that time; they stay run.  Returns
  /// false (stopping) if the queue empties first -- the signature of a
  /// stall.
  bool drain(const ActiveCounter& counter);

  std::size_t pending_events() const;
  u64 events_executed() const;

  /// Order digest over every executed event's (time, dest, src, seq) key,
  /// folded per destination rank so it is independent of how independent
  /// nodes interleaved.  Equal digests => the runs executed the same events
  /// at the same times in the same per-node order.
  u64 trace_digest() const;

  EngineReport report() const;

  /// Capture now() plus every rank's (scheduled, executed, digest) stream.
  /// Restored via restore_clock() -- possibly at a different thread count --
  /// the digest continues bit-identically.
  EngineClockState capture_clock() const;

  /// Install captured clock state on a fresh engine.  Throws
  /// std::logic_error when events are pending (restore order: clock first,
  /// then services re-arm their standing events) or when a stream's rank
  /// does not exist on this engine (geometry mismatch).
  void restore_clock(const EngineClockState& state);

 private:
  static constexpr Cycle kNoEvent = CalendarQueue::kNoEvent;

  /// One rank's event queue plus its bookkeeping.  During a parallel window
  /// each RankQ is touched only by its owning worker; outside windows only
  /// the coordinator runs.
  struct RankQ {
    CalendarQueue q;
    u64 scheduled = 0;  ///< seq counter for events *sourced* by this rank
    u64 executed = 0;
    u64 digest = detail::kFnvOffset;
    Cycle last_exec = 0;  ///< monotonicity check: catches ordering bugs loudly
  };

  /// Shard-heap entry: the head position of one rank queue, validated
  /// lazily against the live queue head, by (time, rank) only -- the
  /// within-rank tie-break lives in the calendar queue itself.
  struct HeadPos {
    Cycle time;
    u32 rank;
  };
  struct HeadPosAfter {
    bool operator()(const HeadPos& a, const HeadPos& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.rank > b.rank;  // host rank 0 first at equal times
    }
  };

  struct alignas(64) WorkerSlot {
    std::vector<std::pair<u32, QueuedEvent>> outbox;
    /// Lazy min-heap over this shard's rank-queue heads (std::push_heap /
    /// std::pop_heap with HeadPosAfter).  Workers touch only their own
    /// shard's heap inside a window; the coordinator owns all of them
    /// between windows.
    std::vector<HeadPos> heap;
    Cycle window_max = 0;  ///< latest event time executed this window
    u64 window_pushed = 0;    ///< schedules made by this worker this window
    u64 window_executed = 0;  ///< events run by this worker this window
    std::exception_ptr error;
  };

  Affinity current_affinity() const {
    const detail::ExecCtx& ctx = detail::exec_ctx();
    return ctx.engine == this ? ctx.affinity : kHostAffinity;
  }
  [[noreturn]] static void throw_past(Cycle t, Cycle now);
  void check_not_in_event() const;
  /// Cleanse every shard heap's top and return the earliest pending event
  /// time.  After it returns, every non-empty shard heap front is valid.
  Cycle global_min();
  Cycle shard_top(int w);
  void shard_push_entry(u32 rank, Cycle t);
  void sample_pending();
  /// Run one adaptive slice starting at the global minimum (host slice,
  /// parallel window, or single-shard fast-forward).  `limit` is exclusive;
  /// returns false when nothing is pending below it.
  bool run_slice(Cycle limit, const ActiveCounter* stop);
  void run_host_slice(Cycle t, const ActiveCounter* stop);
  void run_shard_serial(int w, Cycle limit, const ActiveCounter* stop);
  void run_window_parallel(Cycle end);
  void process_shard(int w);
  void exec_event(u32 rank, QueuedEvent ev);
  void push_serial(u32 dest_rank, QueuedEvent&& ev);
  void worker_main(int w);

  EngineConfig cfg_;
  Cycle now_ = 0;
  std::vector<RankQ> ranks_;
  std::vector<u32> shard_begin_;  ///< shard w owns ranks [w, w+1) bounds
  std::vector<u32> rank_owner_;   ///< rank -> owning shard

  // Window state, written by the coordinator before releasing a generation.
  Cycle win_end_ = 0;

  // Single-shard fast-forward state: while a shard runs serially, foreign
  // pushes it makes tighten the execution bound live.
  int serial_shard_ = -1;
  Cycle serial_foreign_min_ = 0;

  std::vector<WorkerSlot> slots_;
  std::vector<std::thread> workers_;
  std::atomic<u64> go_gen_{0};
  std::atomic<int> done_count_{0};
  std::atomic<bool> exit_{false};

  u64 windows_parallel_ = 0;
  u64 windows_serial_ = 0;  ///< single-shard fast-forward slices
  u64 windows_host_ = 0;
  u64 cross_shard_events_ = 0;
  u64 pushed_total_ = 0;    ///< all schedules (slot counters folded in)
  u64 executed_total_ = 0;  ///< all executions (slot counters folded in)
  u64 parallel_window_events_ = 0;
  u64 peak_pending_ = 0;
  double barrier_stall_seconds_ = 0;
  std::array<u64, 16> barrier_hist_{};
};

/// A (engine, node) pair: the handle components hold so their schedules are
/// attributed to the right node.  Implicitly constructible from a bare
/// Engine* (host affinity) so host-side code and tests stay unchanged.
class EngineRef {
 public:
  using Action = Engine::Action;

  EngineRef() = default;
  EngineRef(Engine* engine) : engine_(engine) {}  // NOLINT: implicit, host
  EngineRef(Engine* engine, Affinity affinity)
      : engine_(engine), affinity_(affinity) {}

  Engine* get() const { return engine_; }
  Affinity affinity() const { return affinity_; }

  Cycle now() const { return engine_->now(); }
  void schedule(Cycle delay, Action fn) const {
    engine_->schedule_at_on(affinity_, engine_->now() + delay, std::move(fn));
  }
  void schedule_at(Cycle t, Action fn) const {
    engine_->schedule_at_on(affinity_, t, std::move(fn));
  }

 private:
  Engine* engine_ = nullptr;
  Affinity affinity_ = kHostAffinity;
};

/// Worker-thread count from QCDOC_SIM_THREADS (default 1, clamped to
/// [1, 256]); the knob every bench and example routes through.
int threads_from_env();

}  // namespace qcdoc::sim
