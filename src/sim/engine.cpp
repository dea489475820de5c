#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <utility>

namespace qcdoc::sim {

namespace detail {

ExecCtx& exec_ctx() {
  // Saved and restored around every event by ScopedExecCtx.
  // qcdoc-lint: allow(mutable-static) per-thread ctx, never crosses events
  thread_local ExecCtx ctx;
  return ctx;
}

}  // namespace detail

int threads_from_env() {
  const char* env = std::getenv("QCDOC_SIM_THREADS");
  if (!env || !*env) return 1;
  const long v = std::strtol(env, nullptr, 10);
  if (v <= 1) return 1;
  return v > 256 ? 256 : static_cast<int>(v);
}

namespace {
/// Set while a thread is executing inside a parallel window of some engine;
/// routes that thread's schedules to its own shard's queues or its private
/// outbox.  Written on window entry, cleared on exit; the window barriers
/// order every access, so no state leaks across runs.
// qcdoc-lint: allow(mutable-static) window-scoped worker routing, see above
thread_local Engine* t_window_engine = nullptr;
// qcdoc-lint: allow(mutable-static) window-scoped worker routing, see above
thread_local void* t_slot = nullptr;
}  // namespace

Engine::Engine(EngineConfig cfg) : cfg_(cfg) {
  if (cfg_.threads < 1) cfg_.threads = 1;
  if (cfg_.lookahead < 1) {
    throw std::invalid_argument("Engine: lookahead must be >= 1");
  }
  if (cfg_.num_nodes < 0) {
    throw std::invalid_argument("Engine: negative node count");
  }
  const u32 num_ranks = static_cast<u32>(cfg_.num_nodes) + 1;  // + host
  ranks_.resize(num_ranks);
  if (cfg_.threads > static_cast<int>(num_ranks)) {
    cfg_.threads = static_cast<int>(num_ranks);
  }
  shard_begin_.resize(static_cast<std::size_t>(cfg_.threads) + 1);
  for (int w = 0; w <= cfg_.threads; ++w) {
    shard_begin_[static_cast<std::size_t>(w)] =
        static_cast<u32>(static_cast<u64>(num_ranks) * static_cast<u64>(w) /
                         static_cast<u64>(cfg_.threads));
  }
  rank_owner_.resize(num_ranks);
  for (int w = 0; w < cfg_.threads; ++w) {
    for (u32 r = shard_begin_[static_cast<std::size_t>(w)];
         r < shard_begin_[static_cast<std::size_t>(w) + 1]; ++r) {
      rank_owner_[r] = static_cast<u32>(w);
    }
  }
  slots_.resize(static_cast<std::size_t>(cfg_.threads));
  workers_.reserve(static_cast<std::size_t>(cfg_.threads - 1));
  for (int w = 1; w < cfg_.threads; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

Engine::~Engine() {
  exit_.store(true, std::memory_order_relaxed);
  go_gen_.fetch_add(1, std::memory_order_release);
  go_gen_.notify_all();
  for (auto& t : workers_) t.join();
}

void Engine::worker_main(int w) {
  u64 seen = 0;
  for (;;) {
    u64 g = go_gen_.load(std::memory_order_acquire);
    while (g == seen) {
      go_gen_.wait(seen, std::memory_order_acquire);
      g = go_gen_.load(std::memory_order_acquire);
    }
    seen = g;
    if (exit_.load(std::memory_order_relaxed)) return;
    process_shard(w);
    done_count_.fetch_add(1, std::memory_order_release);
    done_count_.notify_one();
  }
}

void Engine::throw_past(Cycle t, Cycle now) {
  throw std::invalid_argument(
      "Engine::schedule_at: cannot schedule into the past (t=" +
      std::to_string(t) + " < now=" + std::to_string(now) + ")");
}

void Engine::check_not_in_event() const {
  if (detail::exec_ctx().engine == this) {
    throw std::logic_error("Engine: nested run call from inside an event");
  }
}

Cycle Engine::shard_top(int w) {
  auto& heap = slots_[static_cast<std::size_t>(w)].heap;
  while (!heap.empty()) {
    const HeadPos hp = heap.front();
    if (ranks_[hp.rank].q.min_time() == hp.time) return hp.time;
    std::pop_heap(heap.begin(), heap.end(), HeadPosAfter{});
    heap.pop_back();  // stale: that head was executed or displaced
  }
  return kNoEvent;
}

Cycle Engine::global_min() {
  Cycle m = kNoEvent;
  for (int w = 0; w < cfg_.threads; ++w) {
    const Cycle t = shard_top(w);
    if (t < m) m = t;
  }
  return m;
}

void Engine::shard_push_entry(u32 rank, Cycle t) {
  auto& heap = slots_[rank_owner_[rank]].heap;
  heap.push_back(HeadPos{t, rank});
  std::push_heap(heap.begin(), heap.end(), HeadPosAfter{});
}

void Engine::schedule_at_on(Affinity dest, Cycle t, Action fn) {
  const u32 dest_rank = detail::affinity_rank(dest);
  if (dest_rank >= ranks_.size()) {
    throw std::invalid_argument(
        "Engine::schedule_at_on: affinity " + std::to_string(dest) +
        " out of range (machine has " + std::to_string(ranks_.size() - 1) +
        " nodes)");
  }
  const Cycle current = now();
  if (t < current) throw_past(t, current);
  const u32 src = detail::affinity_rank(current_affinity());
  if (src != 0 && dest_rank != src && dest_rank != 0 &&
      t < current + cfg_.lookahead) {
    // Uniform lookahead enforcement: a node reaching into another node
    // sooner than the HSSL physics allows is a model bug, and must fail on
    // every execution path, not only when it happens to land in a parallel
    // window.  Node-to-host schedules are exempt: the host queue serializes
    // them exactly (see the file comment in engine.h).
    throw std::logic_error(
        "Engine: cross-node event violates the lookahead window "
        "(t=" + std::to_string(t) + " < " + std::to_string(current) + " + " +
        std::to_string(cfg_.lookahead) + ")");
  }
  QueuedEvent ev{t, src, ranks_[src].scheduled++, std::move(fn)};
  if (t_window_engine == this) {
    // Inside a parallel window: the seq counter of `src` belongs to the
    // executing worker, as do the queues of every node rank in its shard
    // and that shard's heap.  Everything else must clear the window and
    // goes through the outbox -- including host-bound events, which
    // otherwise could land behind node events this window already executed.
    auto* slot = static_cast<WorkerSlot*>(t_slot);
    ++slot->window_pushed;
    if (dest_rank == src) {
      // process_shard() re-enters the running rank in the heap itself.
      ranks_[dest_rank].q.push(std::move(ev));
      return;
    }
    if (t < win_end_) {
      throw std::logic_error(
          "Engine: cross-shard event inside a parallel window "
          "(t=" + std::to_string(t) + " < window end " +
          std::to_string(win_end_) + ")");
    }
    if (dest_rank != 0 && &slots_[rank_owner_[dest_rank]] == slot) {
      // Same shard: this worker's own heap takes the new head, which lands
      // at or after the window end, so this window's loop leaves it be.
      if (ranks_[dest_rank].q.push(std::move(ev))) {
        shard_push_entry(dest_rank, t);
      }
      return;
    }
    slot->outbox.emplace_back(dest_rank, std::move(ev));
    return;
  }
  ++pushed_total_;
  push_serial(dest_rank, std::move(ev));
}

void Engine::push_serial(u32 dest_rank, QueuedEvent&& ev) {
  const Cycle t = ev.time;
  if (ranks_[dest_rank].q.push(std::move(ev))) {
    // The event became its rank's new head: cover it with a shard-heap
    // entry, and -- when a single-shard fast-forward is running -- tighten
    // the foreign-event bound it must respect.
    shard_push_entry(dest_rank, t);
    if (serial_shard_ >= 0 &&
        rank_owner_[dest_rank] != static_cast<u32>(serial_shard_) &&
        t < serial_foreign_min_) {
      serial_foreign_min_ = t;
    }
  }
}

void Engine::exec_event(u32 rank, QueuedEvent ev) {
  RankQ& rq = ranks_[rank];
  if (ev.time < rq.last_exec) {
    throw std::logic_error(
        "Engine: event order violation on rank " +
        std::to_string(rank) + " (t=" + std::to_string(ev.time) +
        " after t=" + std::to_string(rq.last_exec) + ")");
  }
  rq.last_exec = ev.time;
  rq.digest = detail::fnv1a(rq.digest, ev.time);
  rq.digest = detail::fnv1a(rq.digest, (u64{rank} << 32) | ev.src_rank);
  rq.digest = detail::fnv1a(rq.digest, ev.seq);
  ++rq.executed;
  if (t_window_engine == this) {
    ++static_cast<WorkerSlot*>(t_slot)->window_executed;
  } else {
    ++executed_total_;
  }
  const detail::ScopedExecCtx ctx(this, ev.time, detail::rank_affinity(rank),
                                  detail::rank_affinity(ev.src_rank), ev.seq);
  ev.fn();
}

bool Engine::step() {
  check_not_in_event();
  const Cycle t = global_min();
  if (t == kNoEvent) return false;
  // The earliest (time, rank) front across the shard heaps is the globally
  // next event; its rank's calendar queue breaks the (src, seq) tie.
  u32 rank = static_cast<u32>(ranks_.size());
  for (const WorkerSlot& slot : slots_) {
    if (!slot.heap.empty() && slot.heap.front().time == t &&
        slot.heap.front().rank < rank) {
      rank = slot.heap.front().rank;
    }
  }
  RankQ& rq = ranks_[rank];
  if (t > now_) now_ = t;
  exec_event(rank, rq.q.pop_min());
  const Cycle m = rq.q.min_time();
  if (m != kNoEvent && m != t) shard_push_entry(rank, m);
  sample_pending();
  return true;
}

bool Engine::run_slice(Cycle limit, const ActiveCounter* stop) {
  const Cycle T = global_min();
  if (T == kNoEvent || T >= limit) return false;
  const Cycle host_head = ranks_[0].q.min_time();
  if (host_head == T) {
    run_host_slice(T, stop);
    return true;
  }
  Cycle end = T + cfg_.lookahead;
  if (limit < end) end = limit;
  if (host_head < end) end = host_head;
  // Count shards with work in [T, end); global_min() just cleansed every
  // shard heap, so the fronts are live heads.
  int occupied = 0;
  int only = 0;
  for (int w = 0; w < cfg_.threads; ++w) {
    const auto& heap = slots_[static_cast<std::size_t>(w)].heap;
    if (!heap.empty() && heap.front().time < end) {
      ++occupied;
      only = w;
    }
  }
  if (occupied >= 2) {
    run_window_parallel(end);
  } else {
    run_shard_serial(only, limit, stop);
  }
  return true;
}

void Engine::sample_pending() {
  const u64 pending = pushed_total_ - executed_total_;
  if (pending > peak_pending_) peak_pending_ = pending;
}

void Engine::run_host_slice(Cycle t, const ActiveCounter* stop) {
  ++windows_host_;
  RankQ& host = ranks_[0];
  while (host.q.min_time() == t) {
    if (stop != nullptr && stop->value() == 0) break;
    if (t > now_) now_ = t;
    exec_event(0, host.q.pop_min());
  }
  const Cycle m = host.q.min_time();
  if (m != kNoEvent && m != t) shard_push_entry(0, m);
  sample_pending();
}

void Engine::run_shard_serial(int w, Cycle limit, const ActiveCounter* stop) {
  ++windows_serial_;
  auto& heap = slots_[static_cast<std::size_t>(w)].heap;
  // Earliest pending event on any foreign shard.  The fronts are live
  // (global_min() cleansed them) and while this shard runs alone only its
  // own pushes can add foreign events, which push_serial folds in below.
  Cycle fmin = kNoEvent;
  for (int v = 0; v < cfg_.threads; ++v) {
    if (v == w) continue;
    const auto& h = slots_[static_cast<std::size_t>(v)].heap;
    if (!h.empty() && h.front().time < fmin) fmin = h.front().time;
  }
  serial_shard_ = w;
  serial_foreign_min_ = fmin;
  bool stopped = false;
  while (!stopped) {
    if (stop != nullptr && stop->value() == 0) break;
    const Cycle top = shard_top(w);
    if (top == kNoEvent) break;
    // Any pending foreign event bounds us exactly: when it runs it may
    // schedule a host event at its own timestamp (node-to-host schedules
    // have no lookahead), and host events order before everything at or
    // after their time.  A pending host event bounds us exactly too.
    Cycle bound = limit;
    if (serial_foreign_min_ < bound) bound = serial_foreign_min_;
    if (w != 0 && ranks_[0].q.min_time() < bound) {
      bound = ranks_[0].q.min_time();
    }
    if (top >= bound) break;
    const u32 r = heap.front().rank;
    std::pop_heap(heap.begin(), heap.end(), HeadPosAfter{});
    heap.pop_back();
    RankQ& rq = ranks_[r];
    while (rq.q.min_time() == top) {
      if (top > now_) now_ = top;
      exec_event(r, rq.q.pop_min());
      if (stop != nullptr && stop->value() == 0) {
        stopped = true;
        break;
      }
      // A same-time schedule onto the host must run before this rank's
      // remaining events at `top` (rank 0 orders first).  Fall back to the
      // heap, which now holds the host's entry (w == 0), or return to
      // run_slice() (w != 0).
      if (r != 0 && ranks_[0].q.min_time() == top) break;
    }
    const Cycle m = rq.q.min_time();
    if (m != kNoEvent) shard_push_entry(r, m);
    // One slice can be a whole single-threaded run, so the high-water mark
    // is sampled per rank batch.
    sample_pending();
  }
  serial_shard_ = -1;
}

void Engine::run_window_parallel(Cycle end) {
  ++windows_parallel_;
  win_end_ = end;
  done_count_.store(0, std::memory_order_relaxed);
  go_gen_.fetch_add(1, std::memory_order_release);
  go_gen_.notify_all();
  process_shard(0);

  const int need = cfg_.threads - 1;
  int done = done_count_.load(std::memory_order_acquire);
  if (done < need) {
    // qcdoc-lint: allow(wall-clock) coordinator-stall perf accounting only
    const auto wait_start = std::chrono::steady_clock::now();
    // Brief spin: windows are short, so the workers usually finish within a
    // few microseconds of the coordinator.
    for (int i = 0; i < 4096 && done < need; ++i) {
      done = done_count_.load(std::memory_order_acquire);
    }
    while (done < need) {
      done_count_.wait(done, std::memory_order_acquire);
      done = done_count_.load(std::memory_order_acquire);
    }
    const double stall =
        // qcdoc-lint: allow(wall-clock) perf accounting only, as above.
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wait_start)
            .count();
    barrier_stall_seconds_ += stall;
    std::size_t bucket = 1;  // waited, sub-microsecond
    if (stall * 1e6 >= 1.0) {
      const u64 us = static_cast<u64>(stall * 1e6);
      bucket = std::min<std::size_t>(
          1 + static_cast<std::size_t>(std::bit_width(us)),
          barrier_hist_.size() - 1);
    }
    ++barrier_hist_[bucket];
  } else {
    ++barrier_hist_[0];  // workers beat the coordinator: no wait at all
  }

  for (WorkerSlot& slot : slots_) {
    if (slot.error) {
      const std::exception_ptr err = slot.error;
      slot.error = nullptr;
      std::rethrow_exception(err);
    }
  }
  Cycle latest = now_;
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    WorkerSlot& slot = slots_[w];
    for (auto& [dest, ev] : slot.outbox) {
      // The outbox holds host-bound and cross-shard schedules; a host-bound
      // one from shard 0 is the only kind that stays in its shard.
      if (rank_owner_[dest] != w) ++cross_shard_events_;
      const Cycle t = ev.time;
      if (ranks_[dest].q.push(std::move(ev))) shard_push_entry(dest, t);
    }
    slot.outbox.clear();
    if (slot.window_max > latest) latest = slot.window_max;
    pushed_total_ += slot.window_pushed;
    executed_total_ += slot.window_executed;
    parallel_window_events_ += slot.window_executed;
  }
  now_ = latest;
  sample_pending();
}

void Engine::process_shard(int w) {
  WorkerSlot& slot = slots_[static_cast<std::size_t>(w)];
  t_window_engine = this;
  t_slot = &slot;
  slot.window_max = 0;
  slot.window_pushed = 0;
  slot.window_executed = 0;
  try {
    auto& heap = slot.heap;
    for (;;) {
      // Cleanse the heap top down to a live head inside the window.
      Cycle top = kNoEvent;
      while (!heap.empty()) {
        const HeadPos hp = heap.front();
        if (ranks_[hp.rank].q.min_time() == hp.time) {
          top = hp.time;
          break;
        }
        std::pop_heap(heap.begin(), heap.end(), HeadPosAfter{});
        heap.pop_back();
      }
      if (top >= win_end_) break;  // includes empty (kNoEvent)
      const u32 r = heap.front().rank;
      std::pop_heap(heap.begin(), heap.end(), HeadPosAfter{});
      heap.pop_back();
      RankQ& rq = ranks_[r];
      Cycle m;
      while ((m = rq.q.min_time()) < win_end_) {
        exec_event(r, rq.q.pop_min());
      }
      if (rq.last_exec > slot.window_max) slot.window_max = rq.last_exec;
      if (m != kNoEvent) {
        heap.push_back(HeadPos{m, r});
        std::push_heap(heap.begin(), heap.end(), HeadPosAfter{});
      }
    }
  } catch (...) {
    slot.error = std::current_exception();
  }
  t_window_engine = nullptr;
  t_slot = nullptr;
}

Cycle Engine::run_until_idle() {
  check_not_in_event();
  while (run_slice(kNoEvent, nullptr)) {
  }
  return now_;
}

void Engine::run_until(Cycle t) {
  check_not_in_event();
  const Cycle limit = t + 1 == 0 ? kNoEvent : t + 1;
  while (run_slice(limit, nullptr)) {
  }
  if (t > now_) now_ = t;
}

void Engine::advance_to(Cycle t) {
  check_not_in_event();
  if (global_min() < t) {
    throw std::logic_error("Engine::advance_to would skip pending events");
  }
  if (t > now_) now_ = t;
}

bool Engine::drain(const ActiveCounter& counter) {
  check_not_in_event();
  if (counter.value() == 0) return true;
  while (counter.value() != 0) {
    if (!run_slice(kNoEvent, &counter)) return false;  // stalled
  }
  // Host slices and single-shard slices stop on the exact event that zeroed
  // the counter; a parallel window may also have run up to lookahead-1
  // cycles of trailing traffic (acks, landings already committed) on other
  // shards.  The clock lands on the zero crossing either way.
  now_ = counter.last_zero_at();
  return true;
}

std::size_t Engine::pending_events() const {
  std::size_t n = 0;
  for (const RankQ& rq : ranks_) n += rq.q.size();
  return n;
}

u64 Engine::events_executed() const {
  u64 n = 0;
  for (const RankQ& rq : ranks_) n += rq.executed;
  return n;
}

u64 Engine::trace_digest() const {
  u64 h = detail::kFnvOffset;
  for (u32 r = 0; r < ranks_.size(); ++r) {
    if (ranks_[r].executed == 0) continue;
    h = detail::fnv1a(h, r);
    h = detail::fnv1a(h, ranks_[r].executed);
    h = detail::fnv1a(h, ranks_[r].digest);
  }
  return h;
}

EngineClockState Engine::capture_clock() const {
  EngineClockState st;
  st.now = now_;
  st.events_executed = executed_total_;
  for (u32 r = 0; r < ranks_.size(); ++r) {
    const RankQ& rq = ranks_[r];
    if (rq.scheduled == 0 && rq.executed == 0) continue;
    st.streams.push_back({r, rq.scheduled, rq.executed, rq.digest});
  }
  return st;
}

void Engine::restore_clock(const EngineClockState& state) {
  if (pending_events() != 0) {
    throw std::logic_error("Engine::restore_clock with pending events");
  }
  now_ = state.now;
  executed_total_ = state.events_executed;
  pushed_total_ = 0;
  for (const EngineStreamState& s : state.streams) {
    if (s.rank >= ranks_.size()) {
      throw std::logic_error(
          "Engine::restore_clock: stream rank " +
          std::to_string(s.rank) + " outside this machine's " +
          std::to_string(ranks_.size()) + " ranks (geometry mismatch)");
    }
    RankQ& rq = ranks_[s.rank];
    rq.scheduled = s.scheduled;
    rq.executed = s.executed;
    rq.digest = s.digest;
    // Monotonicity floor: nothing restored may execute before the snapshot
    // time.
    rq.last_exec = state.now;
    pushed_total_ += s.scheduled;
  }
}

EngineReport Engine::report() const {
  EngineReport rep;
  rep.threads = cfg_.threads;
  rep.lookahead = cfg_.lookahead;
  rep.events = events_executed();
  rep.windows_parallel = windows_parallel_;
  rep.windows_serial = windows_serial_;
  rep.windows_host = windows_host_;
  rep.cross_shard_events = cross_shard_events_;
  rep.parallel_window_events = parallel_window_events_;
  rep.peak_pending_events = peak_pending_;
  rep.barrier_stall_seconds = barrier_stall_seconds_;
  rep.barrier_wait_hist = barrier_hist_;
  const detail::ActionAllocStats a = detail::action_alloc_stats();
  rep.action_pool_blocks = a.pool_blocks - alloc_base_.pool_blocks;
  rep.action_pool_reuses = a.pool_reuses - alloc_base_.pool_reuses;
  rep.action_oversize_allocs = a.oversize_allocs - alloc_base_.oversize_allocs;
  rep.shard_events.resize(static_cast<std::size_t>(cfg_.threads), 0);
  for (int w = 0; w < cfg_.threads; ++w) {
    for (u32 r = shard_begin_[static_cast<std::size_t>(w)];
         r < shard_begin_[static_cast<std::size_t>(w) + 1]; ++r) {
      rep.shard_events[static_cast<std::size_t>(w)] += ranks_[r].executed;
    }
  }
  return rep;
}

}  // namespace qcdoc::sim
