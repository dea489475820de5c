#include "ref_clock.h"

#include <numeric>
#include <utility>

#include "common/rng.h"

namespace perfbench {
namespace {

// One unit: kMixSteps dependent multiply-xor steps, then kLoads dependent
// loads around the ring.  64 Ki entries of 4 bytes make a 256 KiB ring.
constexpr qcdoc::u32 kRingSize = 1u << 16;
constexpr int kMixSteps = 512;
constexpr int kLoads = 256;

}  // namespace

ReferenceClock::ReferenceClock() : ring_(kRingSize) {
  // One random cycle through the ring, the same on every run, so each load
  // depends on the last and the prefetcher cannot run ahead.
  std::vector<qcdoc::u32> order(kRingSize);
  std::iota(order.begin(), order.end(), 0u);
  qcdoc::Rng rng(0x5eed);
  for (qcdoc::u32 i = kRingSize - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  for (qcdoc::u32 i = 0; i < kRingSize; ++i) {
    ring_[order[i]] = order[(i + 1) % kRingSize];
  }
  thread_ = std::thread([this] { run(); });
}

ReferenceClock::~ReferenceClock() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void ReferenceClock::run() {
  u64 mix = 0x9e3779b97f4a7c15ull;
  qcdoc::u32 at = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    for (int i = 0; i < kMixSteps; ++i) {
      mix ^= mix >> 29;
      mix *= 0xbf58476d1ce4e5b9ull;
      mix += static_cast<u64>(i);
    }
    for (int i = 0; i < kLoads; ++i) at = ring_[at];
    mix += at;
    units_.fetch_add(1, std::memory_order_relaxed);
  }
  // Kept so the compiler cannot drop the unit's work.
  residue_ = mix;
}

}  // namespace perfbench
