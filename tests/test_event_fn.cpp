// EventFn unit tests plus the counting-allocator gate: this binary replaces
// the global operator new/delete with counting versions, warms the engine
// at 1, 2 and 4 threads on two workloads -- a synthetic cross-node relay and
// DMA transfers over every link of a small mesh -- and then asserts that
// re-running the identical workload performs ZERO heap allocations.
// Neither the per-event std::function allocation nor a per-frame deque node
// or callback may creep back in anywhere on the hot path (actions, the
// per-rank queue slabs, outboxes, shard heaps, the SCU/HSSL link path).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

#include "net/mesh_net.h"
#include "scu/packet.h"
#include "sim/engine.h"
#include "sim/event_fn.h"

namespace {
std::atomic<qcdoc::u64> g_heap_allocs{0};
}  // namespace

// Counting global allocator.  Counts every allocation in the process
// (including gtest's own); tests only ever assert on deltas across regions
// whose only activity is the engine under test.  The deletes stay out of
// line: inlined into a caller that paired the library's operator new with
// them, a delete that calls free() reads as a mismatched new/delete.
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
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
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

// SmallFn has no heap fallback: it converts only from callables that fit
// the inline buffer, are no more aligned than it and move without throwing,
// so an action that outgrows the buffer fails to compile where it is made.
TEST(EventFn, ConvertsOnlyFromCallablesThatFitInline) {
  struct Fits {
    int* out;
    unsigned char pad[EventFn::kInlineBytes - sizeof(int*)];
    void operator()() const { ++*out; }
  };
  struct TooBig {
    unsigned char pad[EventFn::kInlineBytes + 1];
    void operator()() const {}
  };
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()() const {}
  };
  struct alignas(2 * alignof(std::max_align_t)) OverAligned {
    void operator()() const {}
  };
  static_assert(sizeof(Fits) == EventFn::kInlineBytes);
  static_assert(sizeof(TooBig) == EventFn::kInlineBytes + 1);
  static_assert(std::is_constructible_v<EventFn, Fits>);
  static_assert(!std::is_constructible_v<EventFn, TooBig>);
  static_assert(!std::is_constructible_v<EventFn, ThrowingMove>);
  static_assert(!std::is_constructible_v<EventFn, OverAligned>);

  const u64 before = heap_allocs();
  int hits = 0;
  EventFn fn(Fits{&hits, {}});
  EventFn moved(std::move(fn));
  moved();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(heap_allocs() - before, 0u)
      << "a capture of exactly kInlineBytes must store inline";
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
  // One warm-up round sizes every container the engine keeps to the
  // workload's high-water mark: each rank's event slab and overflow heap,
  // the window outboxes and the shard heaps.  None of them depends on
  // where in the calendar wheel a round starts -- buckets are intrusive
  // lists into the slab, not containers of their own -- so a round that
  // starts at another time needs no capacity the first one did not.
  run_round(eng);
  const u64 before = heap_allocs();
  run_round(eng);
  run_round(eng);
  EXPECT_EQ(heap_allocs() - before, 0u)
      << what << ": steady-state rounds must not allocate";
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
  rig.round();
  rig.round();
  const u64 allocs = heap_allocs() - before;
  // Two frames per word (data + ACK) on 192 links, twice.
  EXPECT_GE(rig.frames() - frames_before, 2u * 2u * 192u * LinkRig::kWords);
  EXPECT_EQ(allocs, 0u) << threads
                        << " threads: the link path must not allocate";
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

}  // namespace
