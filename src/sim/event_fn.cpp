#include "sim/event_fn.h"

#include <atomic>
#include <mutex>
#include <vector>

namespace qcdoc::sim::detail {

namespace {

/// Freelist of kActionPoolBlock-sized blocks for oversized actions.  The
/// lock is uncontended in practice -- oversized actions are rare (the whole
/// point of the 48-byte inline buffer) and the engine's window
/// barriers keep the schedule rate per thread modest.  Process-lifetime
/// state, shared by every engine, like a malloc arena.
// qcdoc-lint: allow(mutable-static) process-wide allocator arena, see above
struct Pool {
  std::mutex mu;
  std::vector<void*> free;
  ~Pool() {
    for (void* p : free) ::operator delete(p);
  }
};

Pool& pool() {
  // qcdoc-lint: allow(mutable-static) process-wide allocator arena, see above
  static Pool p;
  return p;
}

// qcdoc-lint: allow(mutable-static) monotonic perf counters, see file header
std::atomic<u64> g_pool_blocks{0};
// qcdoc-lint: allow(mutable-static) monotonic perf counters, see file header
std::atomic<u64> g_pool_reuses{0};
// qcdoc-lint: allow(mutable-static) monotonic perf counters, see file header
std::atomic<u64> g_oversize_allocs{0};

}  // namespace

void* action_alloc(std::size_t bytes) {
  if (bytes <= kActionPoolBlock) {
    Pool& p = pool();
    {
      const std::lock_guard<std::mutex> lock(p.mu);
      if (!p.free.empty()) {
        void* block = p.free.back();
        p.free.pop_back();
        g_pool_reuses.fetch_add(1, std::memory_order_relaxed);
        return block;
      }
    }
    g_pool_blocks.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(kActionPoolBlock);
  }
  g_oversize_allocs.fetch_add(1, std::memory_order_relaxed);
  return ::operator new(bytes);
}

void action_free(void* p, std::size_t bytes) noexcept {
  if (bytes <= kActionPoolBlock) {
    Pool& pl = pool();
    const std::lock_guard<std::mutex> lock(pl.mu);
    pl.free.push_back(p);
    return;
  }
  ::operator delete(p);
}

ActionAllocStats action_alloc_stats() noexcept {
  ActionAllocStats s;
  s.pool_blocks = g_pool_blocks.load(std::memory_order_relaxed);
  s.pool_reuses = g_pool_reuses.load(std::memory_order_relaxed);
  s.oversize_allocs = g_oversize_allocs.load(std::memory_order_relaxed);
  return s;
}

}  // namespace qcdoc::sim::detail
