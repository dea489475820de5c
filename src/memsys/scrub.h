// Background memory scrubber.
//
// ECC only corrects errors it gets to *see*: a correctable single-bit flip
// in a rarely-read row silently waits for a second flip to make the
// codeword uncorrectable.  Real machines therefore dedicate a trickle of
// memory bandwidth to a hardware scrubber that walks every row on a fixed
// budget, reads it through the ECC datapath, and writes corrected data
// back.  MemScrubber models exactly that: every `period_cycles` it visits
// the next `rows_per_period` codeword rows of its node's EDRAM + DDR,
// corrects what SECDED can fix, and charges `cycles_per_row` of budget to
// the scrub-cycle counter.
//
// Scrubbing is OFF by default and started explicitly
// (`net::MeshNet::start_scrubbing`): an idle machine schedules no scrub
// events, so fault-free traces -- including the committed golden trace --
// are bit-identical with or without this module linked in.  Scrub events
// carry their node's affinity, so the parallel engine shards them exactly
// like SCU traffic and the walk order is reproducible at any thread count.
//
// The scrubber is the model citizen of the bounded-affinity host-event
// contract (DESIGN.md): every event it schedules touches exactly one
// node's memory -- its own -- so scrub bursts run inside parallel windows
// at full concurrency, never forcing a window seam the way a global
// host-side sweep (host::HealthMonitor::sweep) must.
#pragma once

#include "memsys/ecc.h"
#include "memsys/memsys.h"
#include "sim/engine.h"

namespace qcdoc::memsys {

struct ScrubConfig {
  Cycle period_cycles = 1 << 14;  ///< between scrub bursts
  u64 rows_per_period = 64;       ///< codeword rows walked per burst
  Cycle cycles_per_row = 2;       ///< budget charged per row walked
};

class MemScrubber {
 public:
  /// `engine` must carry the owning node's affinity.
  MemScrubber(sim::EngineRef engine, NodeMemory* mem, ScrubConfig cfg);

  /// Begin the periodic walk (idempotent).
  void start();
  /// Stop after the current burst; no further bursts are scheduled.
  void stop() { running_ = false; }
  [[nodiscard]] bool running() const { return running_; }

  const ScrubConfig& config() const { return cfg_; }

 private:
  void burst();

  sim::EngineRef engine_;
  NodeMemory* mem_;
  ScrubConfig cfg_;
  bool running_ = false;
};

}  // namespace qcdoc::memsys
