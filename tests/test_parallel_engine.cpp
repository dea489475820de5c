// Contract tests for the simulation engine: bit-identical order with the
// single-heap oracle (reference_engine.h) at 1, 2 and 4 threads, loud
// failure on lookahead violations, and the drain/step/advance semantics of
// engine.h's execution-order contract at every thread count.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "machine/machine.h"
#include "reference_engine.h"
#include "sim/engine.h"

namespace qcdoc::sim {
namespace {

constexpr Cycle kLookahead = 20;

/// An engine at `threads` threads over `nodes` nodes, lookahead kLookahead.
EngineConfig config(int threads, int nodes = 8) {
  return {.threads = threads, .lookahead = kLookahead, .num_nodes = nodes};
}

// A synthetic multi-node workload: every node keeps a private counter, each
// event re-arms itself on its own node (any delay is legal) and pokes the
// next node no sooner than the lookahead (the only legal cross-node delay,
// mirroring the HSSL's serialization + wire time).
template <typename E>
struct Workload {
  E* e;
  int n;
  std::vector<u64> hits;  // per node; only that node's events touch it

  explicit Workload(E* engine, int nodes)
      : e(engine), n(nodes), hits(static_cast<std::size_t>(nodes), 0) {}

  void fire(int node, int depth) {
    hits[static_cast<std::size_t>(node)] += static_cast<u64>(depth) + 1;
    if (depth == 0) return;
    e->schedule(3 + static_cast<Cycle>(depth % 4),
                [this, node, depth] { fire(node, depth - 1); });
    const int next = (node + 1) % n;
    e->schedule_on(static_cast<Affinity>(next),
                   kLookahead + static_cast<Cycle>(depth % 3),
                   [this, next, depth] { fire(next, depth - 1); });
  }

  void seed_and_run() {
    for (int i = 0; i < n; ++i) {
      e->schedule_on(static_cast<Affinity>(i), static_cast<Cycle>(i % 5),
                     [this, i] { fire(i, 6); });
    }
    e->run_until_idle();
  }
};

struct RunResult {
  u64 digest;
  u64 events;
  Cycle end;
  std::vector<u64> hits;
};

template <typename E>
RunResult run_workload(E& e, int nodes) {
  Workload<E> w(&e, nodes);
  w.seed_and_run();
  return {e.trace_digest(), e.events_executed(), e.now(), w.hits};
}

TEST(ParallelEngine, BitIdenticalToSerialOnSyntheticWorkload) {
  ReferenceEngine oracle;
  const RunResult ref = run_workload(oracle, 8);
  ASSERT_GT(ref.events, 100u);

  for (const int threads : {1, 2, 4}) {
    Engine e(config(threads));
    const RunResult got = run_workload(e, 8);
    EXPECT_EQ(got.digest, ref.digest) << threads << " threads";
    EXPECT_EQ(got.events, ref.events) << threads << " threads";
    EXPECT_EQ(got.end, ref.end) << threads << " threads";
    EXPECT_EQ(got.hits, ref.hits) << threads << " threads";
  }
}

TEST(ParallelEngine, StepByStepMatchesSerialEngine) {
  ReferenceEngine oracle;
  Engine e(config(2, 4));
  for (int i = 3; i >= 0; --i) {
    oracle.schedule_on(static_cast<Affinity>(i), static_cast<Cycle>(10 * i),
                       [] {});
    e.schedule_on(static_cast<Affinity>(i), static_cast<Cycle>(10 * i), [] {});
  }
  // step() must execute exactly one event in global key order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(e.step());
    EXPECT_TRUE(oracle.step());
    EXPECT_EQ(e.now(), oracle.now());
    EXPECT_EQ(e.trace_digest(), oracle.trace_digest());
  }
  EXPECT_FALSE(e.step());
  EXPECT_FALSE(oracle.step());
}

TEST(ParallelEngine, CrossNodeScheduleInsideLookaheadThrows) {
  for (const int threads : {1, 2}) {
    Engine e(EngineConfig{threads, 10, 2});
    // Node 0 tries to poke node 1 after a single cycle -- faster than any
    // frame could physically arrive.  The engine must fail loudly at every
    // thread count rather than silently depend on the execution path.
    e.schedule_on(0, 0, [&e] { e.schedule_on(1, 1, [] {}); });
    EXPECT_THROW(e.run_until_idle(), std::logic_error) << threads;
  }
}

TEST(ParallelEngine, AffinityOutOfRangeThrows) {
  Engine e(EngineConfig{2, 10, 2});
  EXPECT_THROW(e.schedule_on(2, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule_on(17, 0, [] {}), std::invalid_argument);
  e.schedule_on(kHostAffinity, 0, [] {});  // host is always valid
  e.schedule_on(1, 0, [] {});
  e.run_until_idle();
  EXPECT_EQ(e.events_executed(), 2u);
}

TEST(ParallelEngine, ReentrantSteppingThrows) {
  Engine e(EngineConfig{2, 10, 2});
  e.schedule_on(kHostAffinity, 0, [&e] { e.step(); });
  EXPECT_THROW(e.run_until_idle(), std::logic_error);
}

// Satellite contract: schedule_at into the past must be rejected with a
// clear error at one thread and with worker windows, instead of corrupting
// the event order.
TEST(EngineContract, ScheduleAtPastThrowsOnBothEngines) {
  for (const int threads : {1, 2}) {
    Engine e(EngineConfig{threads, 10, 2});
    e.schedule_at(100, [] {});
    e.run_until_idle();
    ASSERT_EQ(e.now(), 100u);
    EXPECT_THROW(e.schedule_at(50, [] {}), std::invalid_argument);
    try {
      e.schedule_at(50, [] {});
      FAIL() << "no exception";
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find("past"), std::string::npos);
      EXPECT_NE(std::string(ex.what()).find("t=50"), std::string::npos);
    }
    // t == now() is legal (zero-delay events are common in the SCU model).
    e.schedule_at(100, [] {});
    e.run_until_idle();
  }
}

TEST(EngineContract, DrainStopsTheClockAtTheZeroingEvent) {
  for (const int threads : {1, 2, 4}) {
    Engine e(EngineConfig{threads, 10, 8});
    ActiveCounter c;
    c.increment();
    bool late_ran = false;
    e.schedule_on(0, 50, [&] { c.decrement(e.now()); });
    // Node 7 sits on another shard from 2 threads up, inside the window
    // that zeroes the counter: the window may run it, but the clock must
    // still stop at 50.
    e.schedule_on(7, 55, [] {});
    e.schedule_on(1, 80, [&] { late_ran = true; });  // beyond the window
    EXPECT_TRUE(e.drain(c));
    EXPECT_EQ(e.now(), 50u) << threads << " threads";
    EXPECT_EQ(c.last_zero_at(), 50u);
    EXPECT_FALSE(late_ran) << threads << " threads";
    e.run_until_idle();
    EXPECT_EQ(e.events_executed(), 3u);
  }
}

TEST(EngineContract, DrainReportsStallWhenQueueEmptiesFirst) {
  for (const int threads : {1, 2}) {
    Engine e(EngineConfig{threads, 10, 2});
    ActiveCounter c;
    c.increment();
    e.schedule_on(0, 5, [] {});
    EXPECT_FALSE(e.drain(c));  // counter never reaches zero: a stall
  }
}

TEST(EngineContract, AdvanceToRefusesToSkipPendingEvents) {
  for (const int threads : {1, 2}) {
    Engine e(EngineConfig{threads, 10, 2});
    e.schedule_at(10, [] {});
    EXPECT_THROW(e.advance_to(20), std::logic_error);
    e.run_until_idle();
    e.advance_to(200);
    EXPECT_EQ(e.now(), 200u);
  }
}

struct PingPongResult {
  u64 digest;
  u64 events;
  std::vector<std::vector<Cycle>> log;  ///< per node, its hit times
};

/// Two node pairs, (1, 2) and (5, 6), each bouncing one event between its
/// nodes 50 times at the lookahead distance.
template <typename E>
PingPongResult run_ping_pong(E& e) {
  struct PingPong {
    E* e;
    std::vector<std::vector<Cycle>> log =
        std::vector<std::vector<Cycle>>(8);
    void hit(Affinity from, Affinity to, int left) {
      log[from].push_back(e->now());  // only `from`'s events touch its log
      if (left == 0) return;
      e->schedule_on(to, kLookahead,
                     [this, from, to, left] { hit(to, from, left - 1); });
    }
  };
  PingPong p{&e};
  e.schedule_on(1, 0, [&p] { p.hit(1, 2, 50); });
  e.schedule_on(5, 3, [&p] { p.hit(5, 6, 50); });
  e.run_until_idle();
  return {e.trace_digest(), e.events_executed(), std::move(p.log)};
}

TEST(ParallelEngine, ReportCountsWindowsAndShards) {
  for (const int threads : {1, 2}) {
    Engine e(config(threads));
    run_workload(e, 8);
    const EngineReport r = e.report();
    EXPECT_EQ(r.threads, threads);
    EXPECT_EQ(r.lookahead, kLookahead);
    if (threads == 1) {
      EXPECT_EQ(r.windows_parallel, 0u);
      EXPECT_EQ(r.cross_shard_events, 0u);
      EXPECT_GT(r.windows_serial, 0u);
    } else {
      EXPECT_GT(r.windows_parallel, 0u);
      EXPECT_GT(r.cross_shard_events, 0u);
    }
    EXPECT_GT(r.peak_pending_events, 0u) << threads << " threads";
    ASSERT_EQ(r.shard_events.size(), static_cast<std::size_t>(threads));
    u64 total = 0;
    for (const u64 s : r.shard_events) total += s;
    EXPECT_EQ(total, r.events);
    EXPECT_EQ(r.events, e.events_executed());
  }

  // Nodes 1 and 2 share a shard at 2 and at 4 threads, and so do nodes 5
  // and 6, on another shard (2 threads: host and nodes 0-2 | nodes 3-7;
  // 4 threads: host, 0 | 1, 2 | 3, 4 | 5-7).  Ping-pong within each pair is
  // all cross-rank, so both shards run parallel windows, and every schedule
  // goes straight into a queue of the executing worker's shard: none
  // crosses shards, and the order matches the oracle.
  ReferenceEngine oracle;
  const PingPongResult ref = run_ping_pong(oracle);
  for (const int threads : {2, 4}) {
    Engine e(config(threads));
    const PingPongResult got = run_ping_pong(e);
    EXPECT_EQ(got.digest, ref.digest) << threads << " threads";
    EXPECT_EQ(got.events, ref.events) << threads << " threads";
    EXPECT_EQ(got.log, ref.log) << threads << " threads";
    const EngineReport r = e.report();
    EXPECT_GT(r.windows_parallel, 0u) << threads << " threads";
    EXPECT_EQ(r.parallel_window_events, r.events) << threads << " threads";
    EXPECT_EQ(r.cross_shard_events, 0u) << threads << " threads";
  }
}

TEST(ParallelEngine, ReportPopulatesBarrierAndActionPoolCounters) {
  Engine e(config(4));
  run_workload(e, 8);
  const EngineReport r = e.report();
  ASSERT_GT(r.windows_parallel, 0u);
  // Every parallel window ends in exactly one barrier observation: a
  // measured coordinator wait in some bucket >= 1, or bucket 0 when the
  // workers finished before the coordinator even looked.
  u64 observations = 0;
  for (const u64 b : r.barrier_wait_hist) observations += b;
  EXPECT_EQ(observations, r.windows_parallel);
  EXPECT_GE(r.barrier_stall_seconds, 0.0);
  if (r.barrier_stall_seconds > 0.0) {
    EXPECT_GT(observations - r.barrier_wait_hist[0], 0u)
        << "stall time was accumulated but no wait bucket was hit";
  }
  EXPECT_GT(r.parallel_window_events, 0u);
  EXPECT_LE(r.parallel_window_events, r.events);
  EXPECT_GT(r.peak_pending_events, 0u);
  // Every capture in this workload fits EventFn's inline buffer: the engine
  // must not have carved a single action-pool heap block for it.
  EXPECT_EQ(r.action_pool_blocks, 0u);
  EXPECT_EQ(r.action_oversize_allocs, 0u);
}

// A long self-rearming chain confined to node 2.
template <typename E>
void run_chain(E& e) {
  struct Chain {
    E* e;
    int left = 300;
    void fire() {
      if (--left > 0) e->schedule(7, [this] { fire(); });
    }
  };
  Chain c{&e};
  e.schedule_on(2, 1, [&c] { c.fire(); });
  e.run_until_idle();
}

// Adaptive-window satellite: when only one shard holds events, the engine
// must fast-forward that shard serially (no worker handoff, no barrier)
// instead of running degenerate one-shard "parallel" windows.
TEST(ParallelEngine, SingleShardBacklogFastForwardsSerially) {
  ReferenceEngine oracle;
  Engine e(config(4));
  run_chain(oracle);
  run_chain(e);
  EXPECT_EQ(e.trace_digest(), oracle.trace_digest());
  EXPECT_EQ(e.events_executed(), oracle.events_executed());
  const EngineReport r = e.report();
  EXPECT_GT(r.windows_serial, 0u);
  EXPECT_EQ(r.windows_parallel, 0u)
      << "a one-shard backlog must never engage the worker barrier";
}

// Node work plus a host heartbeat every 9 cycles.
template <typename E>
std::pair<u64, u64> run_mixed(E& e) {
  struct Beat {
    E* e;
    u64 count = 0;
    void fire() {
      ++count;
      if (count < 40) e->schedule_on(kHostAffinity, 9, [this] { fire(); });
    }
  };
  Workload<E> w(&e, 8);
  Beat beat{&e};
  e.schedule_on(kHostAffinity, 0, [&beat] { beat.fire(); });
  w.seed_and_run();
  EXPECT_EQ(beat.count, 40u);
  return {e.trace_digest(), e.events_executed()};
}

// Host events must ride in their own seam slices (windows_host) without
// demoting the surrounding node windows, and the mixed schedule must stay
// bit-identical to the oracle at every thread count.
TEST(ParallelEngine, MixedHostNodeWorkloadBitIdenticalWithHostSlices) {
  ReferenceEngine oracle;
  const auto ref = run_mixed(oracle);
  for (const int threads : {1, 2, 4}) {
    Engine e(config(threads));
    const auto got = run_mixed(e);
    EXPECT_EQ(got, ref) << threads << " threads";
    const EngineReport r = e.report();
    EXPECT_GT(r.windows_host, 0u) << threads << " threads";
    if (threads > 1) {
      EXPECT_GT(r.windows_parallel, 0u)
          << "host seams must not demote node windows (" << threads
          << " threads)";
    }
  }
}

// End to end: a whole machine boot must produce the same event-order digest,
// clock and event count at every thread count.
TEST(ParallelEngine, MachineBootIsBitIdenticalAcrossThreadCounts) {
  struct Boot {
    u64 digest;
    u64 events;
    Cycle end;
  };
  auto boot = [](int threads) {
    machine::MachineConfig cfg;
    cfg.shape.extent = {2, 2, 1, 1, 1, 1};
    cfg.sim_threads = threads;
    machine::Machine m(cfg);
    m.power_on();
    return Boot{m.engine().trace_digest(), m.engine().events_executed(),
                m.engine().now()};
  };
  const Boot ref = boot(1);
  for (const int threads : {2, 4}) {
    const Boot got = boot(threads);
    EXPECT_EQ(got.digest, ref.digest) << threads << " threads";
    EXPECT_EQ(got.events, ref.events) << threads << " threads";
    EXPECT_EQ(got.end, ref.end) << threads << " threads";
  }
}

// --- Step-order oracle ------------------------------------------------------
//
// A seeded random workload on 8 nodes plus the host, run on the engine under
// test and on the single-heap oracle in lockstep through a seeded mix of
// step(), run_until(), drain() and run_until_idle() calls.  Delays reach
// past the 256-cycle calendar wheel, the host schedules equal-time bursts
// onto several nodes, and node-to-host schedules run at delay 0 where the
// window rule allows it (1 thread), so step()'s (time, rank) choice, the
// single-shard host hand-off and drain's stop are compared event by event.
// The order digest alone could not do this: it is folded per destination
// rank, so it cannot see two ranks swapped at one timestamp.

constexpr u32 kOracleNodes = 8;
constexpr Cycle kMaxDelay = CalendarQueue::kWheelSize + 64;

template <typename E>
class RandomWorkload {
 public:
  /// `host_delay_min`: the shortest node-to-host delay.  0 is legal only on
  /// one thread; inside a parallel window such a schedule must clear the
  /// window end, i.e. wait at least the lookahead.
  RandomWorkload(E* e, u64 seed, Cycle host_delay_min)
      : e_(e), host_delay_min_(host_delay_min) {
    for (u32 r = 0; r <= kOracleNodes; ++r) rngs_.emplace_back(seed, NodeId{r});
    budget_.assign(kOracleNodes + 1, 0);
  }

  /// Refill every rank's spawn budget, start an equal-time burst on three
  /// nodes at `d` and one host event at `host_d`.  Called between engine
  /// calls: no event is running.
  void seed(const std::array<u32, 3>& ranks, Cycle d, Cycle host_d) {
    budget_.assign(kOracleNodes + 1, 40);
    for (const u32 rank : ranks) {
      e_->schedule_on(rank - 1, d, [this, rank] { fire(rank); });
    }
    e_->schedule_on(kHostAffinity, host_d, [this] { fire(0); });
  }

  /// One unit of drainable work on `rank` at delay `d`: `c` counts it until
  /// the node has reported completion to the host.
  void start_job(u32 rank, Cycle d, ActiveCounter* c) {
    c->increment();
    e_->schedule_on(rank - 1, d, [this, rank, c] {
      note(rank);
      e_->schedule_on(kHostAffinity, host_delay(rngs_[rank]), [this, c] {
        note(0);
        c->decrement(e_->now());
      });
    });
  }

  /// Log executed (time, dest rank) pairs while `on`.
  void record(bool on) { recording_ = on; }
  std::vector<std::pair<Cycle, u32>> take_log() {
    return std::exchange(log_, {});
  }

 private:
  void note(u32 rank) {
    if (recording_) log_.emplace_back(e_->now(), rank);
  }

  Cycle host_delay(Rng& rng) const {
    return host_delay_min_ +
           (rng.next_below(2) == 0 ? 0 : rng.next_below(kMaxDelay / 2));
  }

  void fire(u32 rank) {
    note(rank);
    if (budget_[rank] == 0) return;
    --budget_[rank];
    Rng& rng = rngs_[rank];
    if (rank == 0) {
      // Host: an equal-time burst onto several nodes, any delay.
      const Cycle d = rng.next_below(kMaxDelay + 1);
      const u64 k = 1 + rng.next_below(4);
      for (u64 i = 0; i < k; ++i) {
        const u32 r = 1 + static_cast<u32>(rng.next_below(kOracleNodes));
        e_->schedule_on(r - 1, d, [this, r] { fire(r); });
      }
      return;
    }
    if (rng.next_below(5) != 0) {
      const Cycle d = rng.next_below(6) == 0 ? 0 : rng.next_below(kMaxDelay + 1);
      e_->schedule(d, [this, rank] { fire(rank); });
    }
    if (rng.next_below(2) == 0) {
      const u32 other = 1 + static_cast<u32>(
                                (rank + rng.next_below(kOracleNodes - 1)) %
                                kOracleNodes);
      e_->schedule_on(other - 1,
                      kLookahead + rng.next_below(kMaxDelay - kLookahead + 1),
                      [this, other] { fire(other); });
    }
    if (rng.next_below(4) == 0) {
      e_->schedule_on(kHostAffinity, host_delay(rng), [this] { fire(0); });
    }
  }

  E* e_;
  Cycle host_delay_min_;
  std::vector<Rng> rngs_;     ///< per rank; only that rank's events draw
  std::vector<u32> budget_;   ///< per rank, likewise
  bool recording_ = false;    ///< flipped between engine calls
  std::vector<std::pair<Cycle, u32>> log_;
};

template <typename A, typename B>
::testing::AssertionResult same_state(const A& a, const B& b) {
  if (a.now() != b.now()) {
    return ::testing::AssertionFailure()
           << "now " << a.now() << " vs " << b.now();
  }
  if (a.events_executed() != b.events_executed()) {
    return ::testing::AssertionFailure()
           << "events " << a.events_executed() << " vs "
           << b.events_executed();
  }
  if (a.trace_digest() != b.trace_digest()) {
    return ::testing::AssertionFailure() << "trace digest differs";
  }
  if (a.pending_events() != b.pending_events()) {
    return ::testing::AssertionFailure()
           << "pending " << a.pending_events() << " vs "
           << b.pending_events();
  }
  return ::testing::AssertionSuccess();
}

u32 draw_rank(Rng& drv) {
  return 1 + static_cast<u32>(drv.next_below(kOracleNodes));
}

template <typename Oracle, typename Sub>
void run_oracle_campaign(Oracle& ref, Sub& sub, int threads, u64 seed) {
  const Cycle host_min = threads == 1 ? 0 : kLookahead;
  RandomWorkload<Oracle> rw(&ref, seed, host_min);
  RandomWorkload<Sub> sw(&sub, seed, host_min);
  ActiveCounter rc;
  ActiveCounter sc;
  Rng drv(seed * 7919 + static_cast<u64>(threads));
  auto reseed = [&] {
    const std::array<u32, 3> ranks{draw_rank(drv), draw_rank(drv),
                                   draw_rank(drv)};
    const Cycle d = drv.next_below(kMaxDelay + 1);
    const Cycle host_d = drv.next_below(kMaxDelay + 1);
    rw.seed(ranks, d, host_d);
    sw.seed(ranks, d, host_d);
  };
  // One thread runs every event on this thread, so there the whole
  // execution sequence is compared, not only the stepped part.
  const bool log_all = threads == 1;
  rw.record(log_all);
  sw.record(log_all);
  u64 stepped = 0;
  u64 drained = 0;
  reseed();
  for (int call = 0; call < 400; ++call) {
    SCOPED_TRACE(::testing::Message() << threads << " threads, seed " << seed
                                      << ", call " << call);
    const u64 op = drv.next_below(20);
    if (op < 8) {
      const u64 n = 1 + drv.next_below(60);
      rw.record(true);
      sw.record(true);
      for (u64 i = 0; i < n; ++i) {
        const bool a = ref.step();
        const bool b = sub.step();
        ASSERT_EQ(a, b);
        ASSERT_EQ(ref.now(), sub.now());
        if (!a) break;
        ++stepped;
      }
      rw.record(log_all);
      sw.record(log_all);
    } else if (op < 13) {
      const Cycle t = ref.now() + drv.next_below(2 * kMaxDelay);
      ref.run_until(t);
      sub.run_until(t);
    } else if (op < 17) {
      const u64 jobs = 1 + drv.next_below(4);
      for (u64 j = 0; j < jobs; ++j) {
        const u32 rank = draw_rank(drv);
        const Cycle d = drv.next_below(kMaxDelay + 1);
        rw.start_job(rank, d, &rc);
        sw.start_job(rank, d, &sc);
      }
      ASSERT_TRUE(ref.drain(rc));
      ASSERT_TRUE(sub.drain(sc));
      // A parallel window may legally run past the zeroing event, so only
      // the clock is compared here; the run to now() + lookahead brings
      // both sides to the same executed set again.
      ASSERT_EQ(ref.now(), sub.now()) << "drain stopped the clock elsewhere";
      ++drained;
      const Cycle t = ref.now() + kLookahead;
      ref.run_until(t);
      sub.run_until(t);
    } else if (op < 19) {
      reseed();
    } else {
      ref.run_until_idle();
      sub.run_until_idle();
      ASSERT_TRUE(same_state(ref, sub));
      reseed();
    }
    ASSERT_EQ(rw.take_log(), sw.take_log()) << "execution order diverged";
    ASSERT_TRUE(same_state(ref, sub));
  }
  ref.run_until_idle();
  sub.run_until_idle();
  EXPECT_TRUE(same_state(ref, sub));
  EXPECT_GT(stepped, 1000u);
  EXPECT_GT(drained, 40u);
}

TEST(StepOrderOracle, RandomCallMixMatchesTheOracleAt1To4Threads) {
  for (const int threads : {1, 2, 4}) {
    for (const u64 seed : {1ull, 2ull, 3ull}) {
      ReferenceEngine ref;
      Engine sub(config(threads, static_cast<int>(kOracleNodes)));
      run_oracle_campaign(ref, sub, threads, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace qcdoc::sim
