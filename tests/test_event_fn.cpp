// EventFn unit tests plus the counting-allocator gate: this binary replaces
// the global operator new/delete with counting versions, warms the engine
// at 1, 2 and 4 threads on a synthetic cross-node workload, and then asserts that re-running the
// identical workload performs ZERO heap allocations -- the per-event
// std::function allocation the event-path overhaul removed must not creep
// back in anywhere on the hot path (actions, queue buckets, outboxes,
// shard heaps).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/engine.h"
#include "sim/event_fn.h"

namespace {
std::atomic<qcdoc::u64> g_heap_allocs{0};
}  // namespace

// Counting global allocator.  Counts every allocation in the process
// (including gtest's own); tests only ever assert on deltas across regions
// whose only activity is the engine under test.
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace qcdoc;
using namespace qcdoc::sim;

namespace {

u64 heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

// --- EventFn semantics ------------------------------------------------------

TEST(EventFn, InlineCallableRunsWithoutAllocating) {
  const u64 before = heap_allocs();
  int hits = 0;
  int* p = &hits;
  EventFn fn([p] { ++*p; });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(heap_allocs() - before, 0u)
      << "a small capture must store inline";
}

TEST(EventFn, MoveTransfersInlineTarget) {
  int hits = 0;
  int* p = &hits;
  EventFn a([p] { ++*p; });
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, DestructorRunsCaptureDestructors) {
  struct Probe {
    int* flag;
    explicit Probe(int* f) : flag(f) {}
    Probe(Probe&& o) noexcept : flag(o.flag) { o.flag = nullptr; }
    ~Probe() {
      if (flag != nullptr) ++*flag;
    }
    void operator()() const {}
  };
  int destroyed = 0;
  {
    EventFn fn(Probe{&destroyed});
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(EventFn, OversizeCapturePoolsAndRecycles) {
  struct Big {
    unsigned char pad[96];  // > kInlineBytes, <= kActionPoolBlock
    int* out;
    void operator()() const { ++*out; }
  };
  static_assert(sizeof(Big) > EventFn::kInlineBytes);
  static_assert(sizeof(Big) <= detail::kActionPoolBlock);
  int hits = 0;
  const detail::ActionAllocStats before = detail::action_alloc_stats();
  {
    EventFn fn(Big{{}, &hits});
    fn();
  }
  const detail::ActionAllocStats mid = detail::action_alloc_stats();
  // The block the first action carved is back on the freelist: constructing
  // another oversized action must reuse it, not grow the heap.
  {
    EventFn fn(Big{{}, &hits});
    fn();
  }
  const detail::ActionAllocStats after = detail::action_alloc_stats();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(after.heap_blocks(), mid.heap_blocks())
      << "second pooled action must hit the freelist";
  EXPECT_GT(after.pool_reuses, before.pool_reuses);
}

TEST(EventFn, HugeCaptureCountsAsOversizeAlloc) {
  struct Huge {
    unsigned char pad[detail::kActionPoolBlock + 64];
    void operator()() const {}
  };
  const detail::ActionAllocStats before = detail::action_alloc_stats();
  {
    EventFn fn(Huge{});
    fn();
  }
  const detail::ActionAllocStats after = detail::action_alloc_stats();
  EXPECT_EQ(after.oversize_allocs, before.oversize_allocs + 1);
}

// --- Steady-state zero-allocation gate --------------------------------------

constexpr Cycle kLookahead = 20;
constexpr u32 kNodes = 8;

/// Cross-node relay: an event on `node` schedules the next hop on the
/// neighbouring node kLookahead cycles out.  Capture fits inline.
void hop(Engine* eng, u32 node, int remaining) {
  if (remaining == 0) return;
  EngineRef ref(eng, (node + 1) % kNodes);
  ref.schedule(kLookahead,
               [eng, node, remaining] {
                 hop(eng, (node + 1) % kNodes, remaining - 1);
               });
}

void run_round(Engine& eng) {
  for (u32 n = 0; n < kNodes; ++n) {
    EngineRef ref(&eng, n);
    ref.schedule(1 + n, [&eng, n] { hop(&eng, n, 200); });
  }
  eng.run_until_idle();
}

void expect_steady_state_alloc_free(Engine& eng, const char* what) {
  // Warm-up sizes every queue, bucket, outbox and shard heap to the
  // workload's high-water mark.  The calendar wheels need several rounds:
  // bucket index is time mod 64 and each round starts at a different
  // residue (the per-round start shift cycles with period 8), so only
  // after a full cycle has every reachable (rank, bucket) pair grown to
  // working capacity.
  for (int round = 0; round < 12; ++round) run_round(eng);
  const u64 before = heap_allocs();
  const detail::ActionAllocStats pool_before = detail::action_alloc_stats();
  run_round(eng);
  run_round(eng);
  EXPECT_EQ(heap_allocs() - before, 0u)
      << what << ": steady-state rounds must not allocate";
  EXPECT_EQ(detail::action_alloc_stats().heap_blocks() -
                pool_before.heap_blocks(),
            0u)
      << what << ": action pool must not grow in steady state";
}

EngineConfig gate_config(int threads) {
  return {.threads = threads,
          .lookahead = kLookahead,
          .num_nodes = static_cast<int>(kNodes)};
}

TEST(AllocGate, OneThreadSteadyStateAllocatesNothing) {
  Engine eng(gate_config(1));
  expect_steady_state_alloc_free(eng, "1 thread");
}

TEST(AllocGate, ParallelEngineSteadyStateAllocatesNothing) {
  Engine eng(gate_config(2));
  expect_steady_state_alloc_free(eng, "2 threads");
}

TEST(AllocGate, ParallelEngineFourThreadsSteadyStateAllocatesNothing) {
  Engine eng(gate_config(4));
  expect_steady_state_alloc_free(eng, "4 threads");
}

}  // namespace
