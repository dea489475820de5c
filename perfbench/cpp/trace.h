// Span recorder of the host-time benchmark.
//
// The benchmark measures each simulator layer from outside: it opens a span
// around every call it makes into a layer and reads the simulator's public
// counters at both ends of the span, so per-layer ratios (events per word,
// resends per frame) are measured where the work happens.  Spans are kept
// in memory and written out once, as Chrome trace-event JSON, when the run
// ends.  A disabled tracer records nothing and reads no counters.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace qcdoc::machine {
class Machine;
class BspRunner;
}  // namespace qcdoc::machine
namespace qcdoc::lattice {
class FieldOps;
}  // namespace qcdoc::lattice

namespace perfbench {

using qcdoc::u64;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Cumulative counter values at one instant.  A span stores the difference
/// between its end and begin samples.
struct Sample {
  std::vector<std::pair<std::string, double>> values;
  std::vector<u64> shard_events;  ///< events executed per engine shard
};

/// The simulator objects whose counters are readable at a call boundary.
/// Members are null until the workload has built them.
struct Probe {
  qcdoc::machine::Machine* machine = nullptr;
  const qcdoc::machine::BspRunner* bsp = nullptr;
  const qcdoc::lattice::FieldOps* ops = nullptr;

  /// Engine report, mesh link statistics, BSP cycle accounting and the
  /// field-op traffic ledger, for whichever of them exist.
  Sample sample() const;
};

struct Span {
  std::string name;  ///< "<layer>.<call>"; the layer is a src/ module name
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 for a root span
  int run = 0;      ///< workload round the span belongs to
  double start_us = 0;
  double end_us = 0;
  double probe_us = 0;  ///< reading counters, just outside [start, end]
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  /// Opens a span nested in the innermost open one; returns its id, or -1
  /// when disabled.  `probe` (may be null) is sampled now and at end().
  int begin(const std::string& name, const Probe* probe);
  void end(int id);
  void arg(int id, const std::string& key, double value);

  const std::vector<Span>& spans() const { return spans_; }
  /// {"traceEvents": [...]} with one complete ("X") event per span.
  std::string chrome_json() const;

 private:
  struct Open {
    int id;
    const Probe* probe;
    Sample begin;
  };
  double now_us() const;

  bool enabled_ = false;
  int run_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Open> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name,
             const Probe* probe = nullptr)
      : tracer_(tracer), id_(tracer.begin(name, probe)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(const std::string& key, double value) {
    tracer_.arg(id_, key, value);
  }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
