// Convenience assembly of the full solver stack.
//
// Building a QCD run needs a machine, a 4-D partition, a communicator, a
// geometry, the BSP runner, a CPU timing model and the field operations.
// SolverRig wires them together in one line:
//
//   qcdoc::lattice::SolverRig rig({2, 2, 2, 2, 1, 1}, {8, 8, 8, 8});
//   qcdoc::lattice::GaugeField gauge(rig.comm.get(), rig.geom.get());
//   ...
#pragma once

#include <array>
#include <memory>

#include "comms/comms.h"
#include "lattice/gauge.h"
#include "lattice/linalg.h"
#include "machine/bsp.h"

namespace qcdoc::lattice {

struct SolverRig {
  std::unique_ptr<machine::Machine> m;
  std::unique_ptr<torus::Partition> partition;
  std::unique_ptr<comms::Communicator> comm;
  std::unique_ptr<GlobalGeometry> geom;
  std::unique_ptr<machine::BspRunner> bsp;
  std::unique_ptr<cpu::CpuModel> cpu;
  std::unique_ptr<FieldOps> ops;

  /// `machine_extents`: 6-D machine shape whose first four dims become the
  /// logical 4-D partition; `global`: 4-D lattice extents.  Extra machine
  /// config (clock, error rate) through `cfg_override`.
  SolverRig(std::array<int, 6> machine_extents, Coord4 global,
            machine::MachineConfig cfg_override = machine::MachineConfig{}) {
    machine::MachineConfig cfg = cfg_override;
    cfg.shape.extent = machine_extents;
    m = std::make_unique<machine::Machine>(cfg);
    m->power_on();
    partition = std::make_unique<torus::Partition>(
        torus::Partition::whole_machine(m->topology(),
                                        torus::FoldSpec::identity(4)));
    comm = std::make_unique<comms::Communicator>(m.get(), partition.get());
    geom = std::make_unique<GlobalGeometry>(partition.get(), global);
    bsp = std::make_unique<machine::BspRunner>(m.get());
    cpu = std::make_unique<cpu::CpuModel>(m->mem_timing());
    ops = std::make_unique<FieldOps>(bsp.get(), cpu.get(), comm.get());
  }

  /// Use an existing partition (e.g. one allocated by the qdaemon) instead
  /// of folding the whole machine.
  SolverRig(machine::Machine* machine, const torus::Partition* part,
            Coord4 global)
      : m(nullptr) {
    comm = std::make_unique<comms::Communicator>(machine, part);
    geom = std::make_unique<GlobalGeometry>(part, global);
    bsp = std::make_unique<machine::BspRunner>(machine);
    cpu = std::make_unique<cpu::CpuModel>(machine->mem_timing());
    ops = std::make_unique<FieldOps>(bsp.get(), cpu.get(), comm.get());
  }

  machine::Machine& machine() {
    return m ? *m : comm->machine();
  }

  /// A deterministic source field (plane-wave-like, distribution-invariant).
  void fill_source(DistField& f) const {
    for (int r = 0; r < f.ranks(); ++r) {
      for (int s = 0; s < geom->local().volume(); ++s) {
        const Coord4 g = geom->global_coords(r, s);
        const double base = g[0] + 13.0 * g[1] + 41.0 * g[2] + 97.0 * g[3];
        double* p = f.site(r, s);
        for (int k = 0; k < f.site_doubles(); ++k) {
          p[k] = std::sin(0.1 * base + 0.01 * k) + 0.05 * k;
        }
      }
    }
  }
};

}  // namespace qcdoc::lattice
