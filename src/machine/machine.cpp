#include "machine/machine.h"

#include "scu/packet.h"

namespace qcdoc::machine {

Machine::Machine(const MachineConfig& cfg) : cfg_(cfg) {
  hw_.cpu_clock_hz = cfg.clock_hz;
  // Fixed-frequency external parts get slower in CPU cycles as the core
  // clock rises; on-chip paths (EDRAM, links) scale with the clock.
  mem_timing_.ddr_bytes_per_cycle = hw_.ddr_bandwidth_Bps / cfg.clock_hz;

  net::MeshConfig mesh_cfg;
  mesh_cfg.shape = cfg.shape;
  mesh_cfg.hssl.bit_error_rate = cfg.bit_error_rate;
  mesh_cfg.scu.link.ack_window = hw_.scu_ack_window;
  mesh_cfg.scu.dma.send_setup_cycles = hw_.scu_dma_setup_cycles;
  mesh_cfg.scu.dma.recv_landing_cycles = hw_.scu_dma_landing_cycles;
  mesh_cfg.mem = cfg.mem;
  mesh_cfg.seed = cfg.seed;

  // Nothing crosses between nodes faster than the shortest frame's
  // serialization plus the wire time-of-flight, so that is the
  // conservative lookahead.
  engine_ = std::make_unique<sim::Engine>(sim::EngineConfig{
      .threads =
          cfg.sim_threads > 0 ? cfg.sim_threads : sim::threads_from_env(),
      .lookahead = static_cast<Cycle>(scu::min_frame_bits()) +
                   mesh_cfg.hssl.wire_delay_cycles,
      .num_nodes = mesh_cfg.shape.volume()});

  mesh_ = std::make_unique<net::MeshNet>(engine_.get(), mesh_cfg);
}

PackagingPlan Machine::packaging() const {
  return plan_for_nodes(mesh_->num_nodes(), hw_.peak_flops_per_node());
}

Cycle Machine::power_on() {
  const Cycle start = engine_->now();
  mesh_->power_on();
  engine_->run_while([this] { return !mesh_->all_trained(); });
  return engine_->now() - start;
}

}  // namespace qcdoc::machine
