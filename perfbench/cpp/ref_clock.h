// Reference clock of the host-time benchmark.
//
// The benchmark shares its host with other tenants, and the host's speed
// drifts with their load by tens of percent from one minute to the next;
// every workload slows and speeds up with it.  A ReferenceClock thread
// repeats one fixed unit of reference work for the whole run and counts the
// units it completes.  The units completed during a phase, over
// kUnitsPerSecond, are the phase's duration on a host of fixed speed: when
// the host slows, the phase takes longer but fewer units fit in it, so the
// drift cancels.  The unit is integer arithmetic plus dependent loads
// around a 256 KiB ring, which stays in the clock's own core caches and
// takes no shared cache or memory bandwidth from the simulator.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "trace.h"

namespace perfbench {

class ReferenceClock {
 public:
  /// Reference units per second: the rate this clock ran at on the 4-core
  /// Xeon host of baseline.json, so reference seconds read close to its
  /// wall seconds.
  static constexpr double kUnitsPerSecond = 330000;

  /// Starts the clock thread.
  ReferenceClock();
  /// Stops the clock thread and waits for it to end.
  ~ReferenceClock();
  ReferenceClock(const ReferenceClock&) = delete;
  ReferenceClock& operator=(const ReferenceClock&) = delete;

  /// Units completed so far.
  u64 units() const { return units_.load(std::memory_order_relaxed); }

 private:
  void run();

  std::vector<qcdoc::u32> ring_;
  u64 residue_ = 0;
  alignas(64) std::atomic<u64> units_{0};
  alignas(64) std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Wall and reference seconds since construction.
class PhaseTimer {
 public:
  explicit PhaseTimer(const ReferenceClock& clock)
      : clock_(clock), wall_(Clock::now()), units_(clock.units()) {}

  double wall_s() const { return seconds_since(wall_); }
  double reference_s() const {
    return static_cast<double>(clock_.units() - units_) /
           ReferenceClock::kUnitsPerSecond;
  }

 private:
  const ReferenceClock& clock_;
  Clock::time_point wall_;
  u64 units_;
};

}  // namespace perfbench
