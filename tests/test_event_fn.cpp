// EventFn unit tests plus the counting-allocator gate: this binary replaces
// the global operator new/delete with counting versions, warms the engine
// at 1, 2 and 4 threads on two workloads -- a synthetic cross-node relay and
// DMA transfers over every link of a small mesh -- and then asserts that
// re-running the identical workload performs ZERO heap allocations and
// touches the action pool not at all.  Neither the per-event std::function
// allocation nor a per-frame pool block, deque node or callback may creep
// back in anywhere on the hot path (actions, queue buckets, outboxes, shard
// heaps, the SCU/HSSL link path).  A timed fault-injector BER spike must not
// touch the action pool either.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "fault/fault.h"
#include "net/mesh_net.h"
#include "scu/packet.h"
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
  const detail::ActionAllocStats pool_after = detail::action_alloc_stats();
  EXPECT_EQ(pool_after.heap_blocks() - pool_before.heap_blocks(), 0u)
      << what << ": action pool must not grow in steady state";
  // A warm freelist would hide an action that outgrew the inline buffer:
  // it takes the pool lock on every event without growing the pool.
  EXPECT_EQ(pool_after.pool_reuses - pool_before.pool_reuses, 0u)
      << what << ": every steady-state action must fit EventFn's buffer";
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

// --- Link path: no heap traffic per frame ----------------------------------

/// A 2x2x2x2x1x1 mesh whose every directed link carries one DMA transfer
/// per round: data frames, ACK frames and landings on all 16 x 12 links,
/// the per-frame SCU/HSSL path that dominates a lattice solve.
class LinkRig {
 public:
  static constexpr u32 kWords = 8;

  explicit LinkRig(int threads)
      : engine_({.threads = threads,
                 .lookahead = static_cast<Cycle>(scu::min_frame_bits()) +
                              net::MeshConfig{}.hssl.wire_delay_cycles,
                 .num_nodes = mesh_config().shape.volume()}),
        mesh_(&engine_, mesh_config()) {
    mesh_.power_on();
    engine_.run_until_idle();
    const int nodes = mesh_.num_nodes();
    for (int n = 0; n < nodes; ++n) {
      const NodeId node{static_cast<u32>(n)};
      for (int l = 0; l < torus::kLinksPerNode; ++l) {
        const NodeId to = mesh_.topology().neighbor(node, torus::LinkIndex{l});
        src_.push_back(mesh_.memory(node).alloc(kWords, "src"));
        dst_.push_back(mesh_.memory(to).alloc(kWords, "dst"));
      }
    }
  }

  /// One transfer on every link, run to quiescence and past its resend
  /// timeouts.  Each round starts on a multiple of 64 cycles, so every round
  /// fills the same calendar-queue buckets.
  void round() {
    std::size_t i = 0;
    for (int n = 0; n < mesh_.num_nodes(); ++n) {
      const NodeId node{static_cast<u32>(n)};
      for (int l = 0; l < torus::kLinksPerNode; ++l, ++i) {
        const torus::LinkIndex link{l};
        const NodeId to = mesh_.topology().neighbor(node, link);
        mesh_.scu(to).recv_dma(torus::facing_link(link))
            .start(scu::DmaDescriptor{dst_[i].word_addr, kWords, 1, 0});
        mesh_.scu(node).send_dma(link).start(
            scu::DmaDescriptor{src_[i].word_addr, kWords, 1, 0});
      }
    }
    ASSERT_TRUE(mesh_.drain());
    engine_.run_until_idle();
    engine_.advance_to((engine_.now() / 64 + 1) * 64);
  }

  u64 frames() const { return mesh_.total_stat("hssl.frames"); }

 private:
  static net::MeshConfig mesh_config() {
    net::MeshConfig cfg;
    cfg.shape.extent = {2, 2, 2, 2, 1, 1};
    cfg.hssl.training_cycles = 32;
    return cfg;
  }

  Engine engine_;
  net::MeshNet mesh_;
  std::vector<memsys::Block> src_;
  std::vector<memsys::Block> dst_;
};

void expect_link_path_alloc_free(int threads) {
  LinkRig rig(threads);
  for (int round = 0; round < 3; ++round) rig.round();
  const u64 frames_before = rig.frames();
  const u64 before = heap_allocs();
  const detail::ActionAllocStats pool_before = detail::action_alloc_stats();
  rig.round();
  rig.round();
  const u64 allocs = heap_allocs() - before;
  const detail::ActionAllocStats pool_after = detail::action_alloc_stats();
  // Two frames per word (data + ACK) on 192 links, twice.
  EXPECT_GE(rig.frames() - frames_before, 2u * 2u * 192u * LinkRig::kWords);
  EXPECT_EQ(allocs, 0u) << threads
                        << " threads: the link path must not allocate";
  EXPECT_EQ(pool_after.pool_blocks - pool_before.pool_blocks, 0u)
      << threads << " threads";
  EXPECT_EQ(pool_after.pool_reuses - pool_before.pool_reuses, 0u)
      << threads << " threads: a frame must not take an action-pool block";
  EXPECT_EQ(pool_after.oversize_allocs - pool_before.oversize_allocs, 0u)
      << threads << " threads";
}

TEST(AllocGate, LinkPathOneThreadAllocatesNothingPerFrame) {
  expect_link_path_alloc_free(1);
}

TEST(AllocGate, LinkPathTwoThreadsAllocatesNothingPerFrame) {
  expect_link_path_alloc_free(2);
}

TEST(AllocGate, LinkPathFourThreadsAllocatesNothingPerFrame) {
  expect_link_path_alloc_free(4);
}

// --- Fault injection: a timed BER spike --------------------------------------

TEST(AllocGate, TimedBerSpikeTakesNoActionPoolBlock) {
  net::MeshConfig cfg;
  cfg.shape.extent = {2, 2, 1, 1, 1, 1};
  cfg.hssl.training_cycles = 32;
  Engine engine({.threads = 1,
                 .lookahead = static_cast<Cycle>(scu::min_frame_bits()) +
                              cfg.hssl.wire_delay_cycles,
                 .num_nodes = cfg.shape.volume()});
  net::MeshNet mesh(&engine, cfg);
  mesh.power_on();
  engine.run_until_idle();
  const NodeId node{1};
  const torus::LinkIndex link{2};
  const double clean = mesh.wire(node, link).bit_error_rate();
  fault::FaultInjector injector(&mesh);
  fault::FaultPlan plan;
  const Cycle at = engine.now() + 10;
  plan.ber_spike(at, node, link, 1e-4, /*duration=*/100);

  const detail::ActionAllocStats before = detail::action_alloc_stats();
  injector.arm(plan);
  engine.run_until(at + 50);
  EXPECT_EQ(mesh.wire(node, link).bit_error_rate(), 1e-4);
  engine.run_until_idle();
  const detail::ActionAllocStats after = detail::action_alloc_stats();
  EXPECT_EQ(mesh.wire(node, link).bit_error_rate(), clean);
  EXPECT_EQ(injector.injected(), 1u);
  // Arming and restoring are inline actions: no pool block, no freelist
  // hit, no oversize allocation.
  EXPECT_EQ(after.pool_blocks - before.pool_blocks, 0u);
  EXPECT_EQ(after.pool_reuses - before.pool_reuses, 0u);
  EXPECT_EQ(after.oversize_allocs - before.oversize_allocs, 0u);
}

}  // namespace
