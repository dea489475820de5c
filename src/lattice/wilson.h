// Wilson-fermion Dirac operator (paper Section 4: "naive Wilson fermions",
// 40% of peak at a 4^4 local volume).
//
//   M psi(x) = psi(x) - kappa * Dslash psi(x)
//   Dslash psi(x) = sum_mu [ U_mu(x) (1 - gamma_mu) psi(x+mu)
//                          + U_mu^+(x-mu) (1 + gamma_mu) psi(x-mu) ]
//
// Communication uses the half-spinor ("two-spinor") trick of the hand-tuned
// assembly: faces carry the 12 independent doubles of the projected spinor,
// and the backward faces are pre-multiplied by U^+ at the sender, so no
// gauge-field halo is ever needed.  M^dagger is applied via gamma_5
// hermiticity: M^+ = g5 M g5.
#pragma once

#include "lattice/dirac.h"

namespace qcdoc::lattice {

struct WilsonParams {
  double kappa = 0.124;
  /// Overlap face communication with interior compute (the paper's kernels
  /// can hide most of the halo exchange; off reproduces the benchmarked
  /// sequential figure).
  bool overlap_comm = false;
  /// Storage precision of the kernels: governs halo wire format, the
  /// memory-traffic scale factor of the profiles, and which bucket of the
  /// per-precision ledger the work lands in.  kSingle keeps the flop rate
  /// of the 64-bit FPU but halves the memory and communication traffic
  /// ("performance for single precision is slightly higher due to the
  /// decreased bandwidth"); kHalf sends faces as 16-bit block-float half
  /// spinors (12 mantissas + shared exponent in 4 words).
  Precision precision = Precision::kDouble;
};

class WilsonDirac : public DiracOperator {
 public:
  WilsonDirac(FieldOps* ops, const GlobalGeometry* geom, GaugeField* gauge,
              WilsonParams params);

  const char* name() const override { return "wilson"; }
  int site_doubles() const override { return kDoublesPerSpinor; }
  /// Half spinors travel as 12 doubles; 12 floats packed two per word in
  /// single precision; or 12 block-float mantissas plus the shared exponent
  /// packed in 4 words at half precision -- the wire really carries the
  /// narrow bits.
  int halo_doubles() const override;
  int halo_slabs() const override { return 1; }

  void apply(DistField& out, DistField& in) override;
  void apply_dag(DistField& out, DistField& in) override;
  double flops_per_apply() const override;

  /// The bare hopping term: out = Dslash in (exposed for tests/benches).
  void dslash(DistField& out, DistField& in);

  /// out = Dslash in evaluated only on sites of `parity` (the hopping term
  /// couples opposite parities).  The other parity of `out` is untouched.
  /// Kernel of the even-odd preconditioned solver (lattice/eo_cg.h).
  /// Parity -1 evaluates every site, as dslash does.
  void dslash_parity(DistField& out, DistField& in, int parity);

  /// Per-node, per-application cost profiles of the assembly kernels.
  /// `fermion_region` is where the spinor fields live (they spill to DDR
  /// before the gauge field does; the split drives the paper's ~30% cliff).
  cpu::KernelProfile pack_profile() const;
  cpu::KernelProfile site_profile() const {
    return site_profile(gauge_->field().body_region());
  }
  cpu::KernelProfile site_profile(memsys::Region fermion_region) const;

  const WilsonParams& params() const { return params_; }
  GaugeField& gauge() { return *gauge_; }

  /// In-place gamma_5 multiplication (sign flips; used for gamma5
  /// hermiticity and by the domain-wall operator).
  static void apply_gamma5(DistField& f);

 private:
  GaugeField* gauge_;
  WilsonParams params_;
  HaloSet halos_;
};

}  // namespace qcdoc::lattice
