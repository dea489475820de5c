// The benchmark's three workloads.  Each round builds its machine from the
// seed, runs the measured solve phase once, checks the outputs and tears
// everything down, so every round of a workload does identical work.
#pragma once

#include <string>
#include <vector>

#include "ref_clock.h"
#include "trace.h"

namespace perfbench {

/// Outputs of one benchmark operation: one solve, or one checkpoint round
/// trip.  The pinned fields are compared against pins.json at the default
/// seed; `ok` holds the invariant checks that apply at every seed.
struct OpRecord {
  std::string name;
  bool ok = true;
  std::string failure;  ///< the first invariant that failed

  // Pinned at the default seed.
  u64 residual_bits = 0;  ///< bit pattern of the solver's residual
  u64 field_fnv = 0;      ///< FNV-1a over every bit of the solution
  u64 end_cycle = 0;      ///< simulated clock when the solve returned
  int iterations = 0;     ///< checkpoints: iteration of the checkpoint
  int restarts = 0;
  bool link_checksums = false;  ///< MeshNet::verify_link_checksums
  bool decoded = false;         ///< checkpoints: decode round trip matched

  double true_residual = 0;  ///< recomputed from the solution; not pinned
};

struct RoundResult {
  double setup_s = 0;  ///< host seconds before the solve phase
  double solve_s = 0;  ///< host seconds of the solve phase
  double setup_ref_s = 0;  ///< the same two phases on the reference clock
  double solve_ref_s = 0;
  std::vector<OpRecord> ops;
  u64 events = 0;  ///< engine events executed by the end of the solve phase
  u64 digest = 0;  ///< engine event-order digest at the same point
};

const std::vector<std::string>& workload_names();

/// One round of `workload`.  Spans go to `tracer` when it is enabled, and
/// the Dirac operators are wrapped only then; `clock` times the phases
/// beside the wall clock.  Throws std::runtime_error when the workload
/// cannot be set up.
RoundResult run_round(const std::string& workload, u64 seed, Tracer& tracer,
                      const ReferenceClock& clock);

}  // namespace perfbench
