// The assembled QCDOC machine: event engine, mesh network, packaging and
// hardware parameters in one object.  This is the main entry point of the
// library.
//
//   qcdoc::machine::MachineConfig cfg;
//   cfg.shape.extent = {4, 4, 4, 2, 2, 2};       // 512 nodes
//   qcdoc::machine::Machine m(cfg);
//   m.power_on();                                // trains all 12288 links
//
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "machine/cost.h"
#include "machine/packaging.h"
#include "net/mesh_net.h"
#include "sim/engine.h"

namespace qcdoc::machine {

struct MachineConfig {
  torus::Shape shape;          ///< 6-D mesh extents
  double clock_hz = 500e6;     ///< node clock (paper runs 360/420/450/500)
  double bit_error_rate = 0.0; ///< injected serial-link error rate
  memsys::MemConfig mem;       ///< per-node EDRAM/DDR sizes
  u64 seed = 0x9c0dull;        ///< master seed for all stochastic elements
  /// Simulation threads, the coordinating caller included; 0 = read
  /// QCDOC_SIM_THREADS (default 1).  Results are bit-identical at every
  /// count; this only changes wall-clock time.
  int sim_threads = 0;

  MachineConfig() { shape.extent = {2, 2, 2, 2, 2, 2}; }
};

/// Outcome of a bounded power-on attempt.  On healthy hardware `untrained`
/// is empty; otherwise it names every wire that failed to train within the
/// timeout -- the bring-up diagnostic of paper Sec. 4, where the host works
/// out which daughterboard to reseat instead of waiting forever.
struct PowerOnReport {
  Cycle cycles = 0;          ///< engine time the attempt consumed
  bool all_trained = false;  ///< true: the whole mesh came up
  std::vector<net::LinkRef> untrained;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);

  sim::Engine& engine() { return *engine_; }
  net::MeshNet& mesh() { return *mesh_; }
  const HwParams& hw() const { return hw_; }
  const memsys::MemTiming& mem_timing() const { return mem_timing_; }
  const MachineConfig& config() const { return cfg_; }
  const torus::Torus& topology() const { return mesh_->topology(); }

  int num_nodes() const { return mesh_->num_nodes(); }
  PackagingPlan packaging() const;
  const PackageMap& package_map() const { return *package_map_; }

  /// Power on all serial links and run the engine until every HSSL has
  /// trained.  Returns the training time in cycles.  Assumes healthy
  /// hardware; with dead links it gives up when the event queue empties.
  Cycle power_on();

  /// Power on with a training deadline: run until every link trains or
  /// `timeout_cycles` elapse (0 picks a generous default of 64x the nominal
  /// training time), then report the links still untrained instead of
  /// looping.  This is the entry point hosts and fault campaigns use.
  PowerOnReport power_on_checked(Cycle timeout_cycles = 0);

  double seconds(Cycle c) const { return hw_.seconds(c); }
  double microseconds(Cycle c) const { return hw_.seconds(c) * 1e6; }

  scu::Scu& scu(NodeId n) { return mesh_->scu(n); }
  memsys::NodeMemory& memory(NodeId n) { return mesh_->memory(n); }

  /// Start the per-node background ECC scrubbers (memsys/scrub.h).  Not
  /// started by default so fault-free event traces are unchanged.
  void start_memory_scrubbers(
      memsys::ScrubConfig cfg = memsys::ScrubConfig{}) {
    mesh_->start_scrubbing(cfg);
  }

 private:
  MachineConfig cfg_;
  HwParams hw_;
  memsys::MemTiming mem_timing_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::MeshNet> mesh_;
  std::unique_ptr<PackageMap> package_map_;
};

}  // namespace qcdoc::machine
