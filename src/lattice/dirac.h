// Abstract Dirac operator interface.
//
// The paper benchmarks four discretizations of the Dirac operator -- naive
// Wilson, clover-improved Wilson, ASQTAD staggered, and domain-wall
// fermions -- all through the same conjugate-gradient harness.  Each
// implementation provides a functional apply() (real arithmetic, halo
// exchanges through the simulated SCU network) plus the op-count profile of
// the paper's hand-tuned assembly, from which the timing model derives the
// machine time per application.
#pragma once

#include <algorithm>
#include <memory>
#include <string>

#include "lattice/gauge.h"
#include "lattice/linalg.h"

namespace qcdoc::lattice {

class DiracOperator {
 public:
  DiracOperator(FieldOps* ops, const GlobalGeometry* geom)
      : ops_(ops), geom_(geom) {}
  virtual ~DiracOperator() = default;

  virtual const char* name() const = 0;
  virtual int site_doubles() const = 0;
  virtual int halo_doubles() const = 0;
  virtual int halo_slabs() const = 0;
  /// Backward-side slab count; differs for asymmetric halos (ASQTAD).
  virtual int halo_slabs_minus() const { return halo_slabs(); }

  /// A field with the right per-site layout for this operator.  Fields are
  /// pure bodies; the halo buffers belong to the operator (one HaloSet per
  /// operator, shared across all its operand vectors).
  DistField make_field(const std::string& label) const {
    return DistField(&ops_->comm(), geom_, site_doubles(), label);
  }

  /// out = M in.  `in` is non-const because its halo scratch buffers are
  /// packed and exchanged; its body is not modified.
  virtual void apply(DistField& out, DistField& in) = 0;
  /// out = M^dagger in.
  virtual void apply_dag(DistField& out, DistField& in) = 0;

  /// Flops per operator application per node (the hand-tuned assembly's op
  /// count; feeds sustained-performance reports).
  virtual double flops_per_apply() const = 0;

  FieldOps& ops() const { return *ops_; }
  const GlobalGeometry& geometry() const { return *geom_; }

 protected:
  /// One application's BSP schedule, shared by every operator.  The caller
  /// has packed `halos`; this charges the pack, exchanges the halos, runs
  /// `compute_sites`, charges the site kernel and books both kernels to
  /// `precision` in the ledger.  With `overlap` the exchange hides under
  /// the interior sites, those at least 2 * halo_slabs() from every face,
  /// and the rest compute after it; otherwise the exchange completes
  /// first.
  template <typename ComputeSites>
  void exchange_and_compute(HaloSet& halos, const cpu::KernelProfile& pack,
                            const cpu::KernelProfile& site, bool overlap,
                            Precision precision, ComputeSites&& compute_sites) {
    auto& bsp = ops_->bsp();
    const auto& cpu = ops_->cpu();
    bsp.compute(cpu.kernel_cycles(pack));
    const double site_cycles = cpu.kernel_cycles(site);
    if (overlap) {
      double interior = 1;
      for (int e : geom_->local().extent()) {
        interior *= std::max(e - 2 * halo_slabs(), 0);
      }
      const double frac = interior / geom_->local().volume();
      bsp.overlap(site_cycles * frac, [&] { halos.post_all_shifts(); });
      compute_sites();
      bsp.compute(site_cycles * (1.0 - frac));
    } else {
      halos.post_all_shifts();
      bsp.communicate();
      compute_sites();
      bsp.compute(site_cycles);
    }
    ops_->account_kernel(pack, geom_->ranks(), precision);
    ops_->account_kernel(site, geom_->ranks(), precision);
  }

  FieldOps* ops_;
  const GlobalGeometry* geom_;
};

}  // namespace qcdoc::lattice
