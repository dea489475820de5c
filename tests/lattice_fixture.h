// Shared fixture for lattice tests: a machine, a 4-D partition, a geometry
// and the solver plumbing (BSP runner, CPU model, field ops), plus the
// residual checks and right-hand-side generators every solver/action test
// shares.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "comms/comms.h"
#include "lattice/dirac.h"
#include "lattice/gauge.h"
#include "lattice/linalg.h"
#include "lattice/wilson.h"
#include "machine/bsp.h"
#include "sim/engine.h"

namespace qcdoc::lattice::testing {

struct LatticeRig {
  std::unique_ptr<machine::Machine> m;
  std::unique_ptr<torus::Partition> partition;
  std::unique_ptr<comms::Communicator> comm;
  std::unique_ptr<GlobalGeometry> geom;
  std::unique_ptr<machine::BspRunner> bsp;
  std::unique_ptr<cpu::CpuModel> cpu;
  std::unique_ptr<FieldOps> ops;

  /// `machine_extents`: 6-D machine shape (first 4 dims become the logical
  /// partition); `global`: 4-D lattice extents; `sim_threads`: engine
  /// thread count (determinism tests sweep 1/2/4).
  LatticeRig(std::array<int, 6> machine_extents, Coord4 global,
             int sim_threads = 1)
      : LatticeRig(machine_extents, torus::FoldSpec::identity(4), global,
                   sim_threads) {}

  /// Fold-aware variant for machines whose trailing dims are > 1 (e.g. the
  /// paper's 2^6 building block folded into a 4-D logical torus).
  LatticeRig(std::array<int, 6> machine_extents, torus::FoldSpec fold,
             Coord4 global, int sim_threads = 1) {
    machine::MachineConfig cfg;
    cfg.shape.extent = machine_extents;
    cfg.sim_threads = sim_threads;
    m = std::make_unique<machine::Machine>(cfg);
    m->power_on();
    partition = std::make_unique<torus::Partition>(
        torus::Partition::whole_machine(m->topology(), std::move(fold)));
    comm = std::make_unique<comms::Communicator>(m.get(), partition.get());
    geom = std::make_unique<GlobalGeometry>(partition.get(), global);
    bsp = std::make_unique<machine::BspRunner>(m.get());
    cpu = std::make_unique<cpu::CpuModel>(m->mem_timing());
    ops = std::make_unique<FieldOps>(bsp.get(), cpu.get(), comm.get());
  }
};

/// The paper's 2^6 = 64-node building block folded onto a 4x4x2x2 logical
/// torus: dims (0,4) and (1,5) pair up, dims 2 and 3 stay bare.
inline torus::FoldSpec fold_two_to_six() {
  torus::FoldSpec spec;
  spec.groups = {{0, 4}, {1, 5}, {2}, {3}};
  return spec;
}

/// Residual check independent of the solver's own accounting, on the
/// normal equations: |M^+ (b - M x)| / |M^+ b|.
inline double true_residual(DiracOperator& op, DistField& x, DistField& b) {
  FieldOps& ops = op.ops();
  DistField mx = op.make_field("check.mx");
  DistField r = op.make_field("check.r");
  DistField mdr = op.make_field("check.mdr");
  op.apply(mx, x);
  ops.copy(b, r);
  ops.axpy(-1.0, mx, r);  // r = b - Mx
  op.apply_dag(mdr, r);
  const double num = ops.norm2(mdr);
  op.apply_dag(mdr, b);
  const double den = ops.norm2(mdr);
  return std::sqrt(num / den);
}

/// Residual of the unsquared system: |b - M x| / |b|.
inline double full_residual(DiracOperator& op, DistField& x, DistField& b) {
  FieldOps& ops = op.ops();
  DistField mx = op.make_field("check.mx");
  op.apply(mx, x);
  ops.axpy(-1.0, b, mx);
  return std::sqrt(ops.norm2(mx) / ops.norm2(b));
}

/// Fill a fermion-like field with a deterministic value per (global site,
/// component), identical regardless of how the lattice is distributed.
inline void fill_by_global_site(const GlobalGeometry& geom, DistField& f) {
  for (int r = 0; r < f.ranks(); ++r) {
    for (int s = 0; s < geom.local().volume(); ++s) {
      const Coord4 g = geom.global_coords(r, s);
      const double base =
          g[0] + 13.0 * g[1] + 41.0 * g[2] + 97.0 * g[3];
      double* p = f.site(r, s);
      for (int k = 0; k < f.site_doubles(); ++k) {
        p[k] = std::sin(0.1 * base + 0.01 * k) + 0.05 * k;
      }
    }
  }
}

/// Gauge links tagged by global site and direction, identical across
/// distributions (uses a per-link seeded generator).
inline void fill_gauge_by_global_site(const GlobalGeometry& geom,
                                      GaugeField& gauge, u64 seed) {
  for (int r = 0; r < gauge.field().ranks(); ++r) {
    for (int s = 0; s < geom.local().volume(); ++s) {
      const Coord4 g = geom.global_coords(r, s);
      for (int mu = 0; mu < kNd; ++mu) {
        const u64 site_seed = seed ^ (static_cast<u64>(g[0]) << 1) ^
                              (static_cast<u64>(g[1]) << 13) ^
                              (static_cast<u64>(g[2]) << 25) ^
                              (static_cast<u64>(g[3]) << 37) ^
                              (static_cast<u64>(mu) << 49);
        Rng rng(site_seed);
        gauge.set_link(r, s, mu, random_su3(rng));
      }
    }
  }
}

/// FNV-1a over every bit of a field's body, rank by rank: the bit-identity
/// fingerprint of a solution vector.
inline u64 field_fnv(const DistField& f) {
  u64 h = sim::detail::kFnvOffset;
  for (int r = 0; r < f.ranks(); ++r) {
    for (const double v : f.data(r)) {
      h = sim::detail::fnv1a(h, std::bit_cast<u64>(v));
    }
  }
  return h;
}

/// Gather a distributed field into one flat global array ordered by global
/// site index, so differently-distributed runs can be compared bit for bit.
inline std::vector<double> gather_global(const GlobalGeometry& geom,
                                         const DistField& f) {
  const auto& ge = geom.global_extent();
  const int gvol = ge[0] * ge[1] * ge[2] * ge[3];
  std::vector<double> out(static_cast<std::size_t>(gvol) *
                          static_cast<std::size_t>(f.site_doubles()));
  for (int r = 0; r < f.ranks(); ++r) {
    for (int s = 0; s < geom.local().volume(); ++s) {
      const Coord4 g = geom.global_coords(r, s);
      const int gidx = ((g[3] * ge[2] + g[2]) * ge[1] + g[1]) * ge[0] + g[0];
      const double* p = f.site(r, s);
      for (int k = 0; k < f.site_doubles(); ++k) {
        out[static_cast<std::size_t>(gidx) *
                static_cast<std::size_t>(f.site_doubles()) +
            static_cast<std::size_t>(k)] = p[k];
      }
    }
  }
  return out;
}

}  // namespace qcdoc::lattice::testing
