// Bulk-synchronous phase runtime.
//
// QCD on QCDOC is naturally bulk-synchronous: the Dirac operator applies the
// same flop count on every node ("no load balancing is needed beyond the
// initial trivial mapping"), halo exchanges run on all links concurrently,
// and the link-level handshaking self-synchronizes the machine.  The runtime
// advances one global machine clock through alternating phases:
//
//   - compute(c):       every node computes for c cycles (from the CPU
//                       timing model); machine time advances by c.
//   - communicate():    the caller has posted SCU DMAs; the event engine
//                       runs the packet-level simulation to quiescence.
//   - overlap(c, post): communication posted by `post` proceeds concurrently
//                       with c cycles of local compute; the phase ends at
//                       the later of the two (QCDOC kernels overlap face
//                       transfers with interior compute).
//
// Accumulated per-category cycle counters feed the efficiency reports.
#pragma once

#include <functional>

#include "machine/machine.h"

namespace qcdoc::machine {

class BspRunner {
 public:
  explicit BspRunner(Machine* m) : machine_(m) {}

  Cycle now() const { return machine_->engine().now(); }

  /// Uniform compute phase of `cycles` on every node.
  void compute(double cycles);

  /// Drain all posted communications; returns the phase length in cycles.
  /// Aborts (returns ~0) on a stalled mesh.
  Cycle communicate();

  /// Communication posted by `post()` overlapped with `compute_cycles` of
  /// local work.  Returns the phase length.
  Cycle overlap(double compute_cycles, const std::function<void()>& post);

  /// Account time spent in global operations (the analytic cut-through
  /// model returns a cycle count; this advances the machine clock).
  void global_op(Cycle cycles);

  // --- accumulated accounting -------------------------------------------
  double compute_cycles() const { return compute_cycles_; }
  double comm_cycles() const { return comm_cycles_; }
  double overlap_hidden_cycles() const { return hidden_cycles_; }
  double global_cycles() const { return global_cycles_; }
  double total_cycles() const {
    return compute_cycles_ + comm_cycles_ + global_cycles_;
  }

 private:
  Machine* machine_;
  double compute_cycles_ = 0;  // wall cycles attributed to compute phases
  double comm_cycles_ = 0;     // wall cycles attributed to exposed comm
  double hidden_cycles_ = 0;   // comm cycles hidden under compute overlap
  double global_cycles_ = 0;   // wall cycles in global sums/broadcasts
};

}  // namespace qcdoc::machine
