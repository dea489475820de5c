#include "machine/machine.h"

#include "cpu/timing.h"
#include "scu/packet.h"

namespace qcdoc::machine {

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg), mem_timing_(cfg.clock_hz) {
  net::MeshConfig mesh_cfg;
  mesh_cfg.shape = cfg.shape;
  mesh_cfg.hssl.bit_error_rate = cfg.bit_error_rate;
  mesh_cfg.mem = cfg.mem;
  mesh_cfg.seed = cfg.seed;

  // Nothing crosses between nodes faster than the shortest frame's
  // serialization plus the wire time-of-flight, so that is the
  // conservative lookahead.
  engine_ = std::make_unique<sim::Engine>(sim::EngineConfig{
      .threads =
          cfg.sim_threads > 0 ? cfg.sim_threads : sim::threads_from_env(),
      .lookahead = static_cast<Cycle>(scu::min_frame_bits()) +
                   hssl::kWireDelayCycles,
      .num_nodes = mesh_cfg.shape.volume()});

  mesh_ = std::make_unique<net::MeshNet>(engine_.get(), mesh_cfg);
}

PackagingPlan Machine::packaging() const {
  return plan_for_nodes(mesh_->num_nodes(),
                        cfg_.clock_hz * cpu::kFlopsPerCycle);
}

Cycle Machine::power_on() {
  const Cycle start = engine_->now();
  mesh_->power_on();
  engine_->run_while([this] { return !mesh_->all_trained(); });
  return engine_->now() - start;
}

}  // namespace qcdoc::machine
