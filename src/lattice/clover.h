// Clover-improved Wilson operator (paper Section 4: 46.5% of peak -- the
// best of the three benchmarked discretizations, because the clover term
// adds dense, high-reuse arithmetic with no extra communication).
//
//   M psi(x) = A(x) psi(x) - kappa * Dslash psi(x)
//   A(x)     = 1 + c_sw * kappa * sum_{mu<nu} sigma_munu F_munu(x)
//
// F_munu is the clover-leaf average of the four plaquettes in the (mu,nu)
// plane.  In the DeGrand-Rossi (chiral) basis sigma_munu is block-diagonal
// in chirality, so A(x) is two Hermitian 6x6 blocks per site -- 72 packed
// doubles, the layout the hand-tuned assembly multiplies.  Construction of
// A from the gauge field is a once-per-configuration setup step (host
// orchestrated, global access); the *application* is the timed kernel.
#pragma once

#include "lattice/wilson.h"

namespace qcdoc::lattice {

struct CloverParams {
  double kappa = 0.124;
  double csw = 1.0;
};

class CloverDirac : public DiracOperator {
 public:
  CloverDirac(FieldOps* ops, const GlobalGeometry* geom, GaugeField* gauge,
              CloverParams params);

  const char* name() const override { return "clover"; }
  int site_doubles() const override { return kDoublesPerSpinor; }
  int halo_doubles() const override {
    return kDoublesPerHalfSpinor;
  }
  int halo_slabs() const override { return 1; }

  /// Build A(x) from the current gauge field (call after every gauge
  /// update; done automatically at construction).
  void compute_clover_term();

  void apply(DistField& out, DistField& in) override;
  void apply_dag(DistField& out, DistField& in) override;
  double flops_per_apply() const override;

  /// A(x) psi -- exposed for tests (Hermiticity, free-field identity).
  void apply_clover_term(DistField& out, const DistField& in);

  cpu::KernelProfile clover_profile() const;
  const CloverParams& params() const { return params_; }

  /// The 6x6 chiral block (chirality 0 or 1) of A at a site, unpacked.
  std::array<Complex, 36> clover_block(int rank, int site_idx,
                                       int chirality) const;

 private:
  /// Clover-leaf field strength F_munu (anti-hermitian traceless part).
  Su3Matrix field_strength(const Coord4& x, int mu, int nu) const;

  GaugeField* gauge_;
  CloverParams params_;
  WilsonDirac hopping_;   // the Dslash part (shared implementation)
  DistField clover_;      // packed A: 2 blocks x 36 doubles per site
};

}  // namespace qcdoc::lattice
