// The assembled QCDOC machine: event engine, mesh network, packaging and
// the node clock in one object.  This is the main entry point of the
// library.
//
//   qcdoc::machine::MachineConfig cfg;
//   cfg.shape.extent = {4, 4, 4, 2, 2, 2};       // 512 nodes
//   qcdoc::machine::Machine m(cfg);
//   m.power_on();                                // trains all 12288 links
//
#pragma once

#include <memory>

#include "common/types.h"
#include "machine/cost.h"
#include "machine/packaging.h"
#include "net/mesh_net.h"
#include "sim/engine.h"

namespace qcdoc::machine {

struct MachineConfig {
  torus::Shape shape;          ///< 6-D mesh extents
  /// The node clock, the one clock of the model: serial links run at it,
  /// and every seconds-to-cycles conversion reads it (paper runs
  /// 360/420/450/500 MHz).
  double clock_hz = 500e6;
  double bit_error_rate = 0.0; ///< injected serial-link error rate
  memsys::MemConfig mem;       ///< per-node EDRAM/DDR sizes
  u64 seed = 0x9c0dull;        ///< master seed for all stochastic elements
  /// Simulation threads, the coordinating caller included; 0 = read
  /// QCDOC_SIM_THREADS (default 1).  Results are bit-identical at every
  /// count; this only changes wall-clock time.
  int sim_threads = 0;

  MachineConfig() { shape.extent = {2, 2, 2, 2, 2, 2}; }
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);

  sim::Engine& engine() { return *engine_; }
  net::MeshNet& mesh() { return *mesh_; }
  const memsys::MemTiming& mem_timing() const { return mem_timing_; }
  const MachineConfig& config() const { return cfg_; }
  const torus::Torus& topology() const { return mesh_->topology(); }

  int num_nodes() const { return mesh_->num_nodes(); }
  PackagingPlan packaging() const;

  /// Power on all serial links and run the engine until every HSSL has
  /// trained.  Returns the training time in cycles.  Assumes healthy
  /// hardware; with dead links it gives up when the event queue empties.
  /// The host's boot (host/boot.h) names the wires that failed to train.
  Cycle power_on();

  double seconds(Cycle c) const {
    return static_cast<double>(c) / cfg_.clock_hz;
  }
  double microseconds(Cycle c) const { return seconds(c) * 1e6; }

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
  memsys::MemTiming mem_timing_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<net::MeshNet> mesh_;
};

}  // namespace qcdoc::machine
