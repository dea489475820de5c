// Domain-wall fermions (paper Section 4: "a prime target for much of our
// work with QCDOC ... naturally five-dimensional ... we expect [it] will
// surpass the performance of the clover improved Wilson operator").
//
// Shamir domain walls: Ls four-dimensional Wilson slices coupled along a
// fifth dimension by chiral projectors, with the physical quark mass m_f
// coupling the walls:
//
//   M psi(x,s) = psi(x,s) - kappa5 * Dslash4[psi(.,s)](x)
//                - [ P_- psi(x,s+1) + P_+ psi(x,s-1) ]
//   boundary:  s+1 at Ls-1 -> -m_f P_- psi(x,0)
//              s-1 at 0    -> -m_f P_+ psi(x,Ls-1)
//
// The performance advantage the paper anticipates is structural: the gauge
// field is loaded once per 4-D site and reused across all Ls slices, and
// the fifth-dimension hops are purely local -- so arithmetic intensity
// rises with Ls while communication per flop falls.
#pragma once

#include "lattice/dirac.h"

namespace qcdoc::lattice {

struct DwfParams {
  int ls = 8;            ///< fifth-dimension extent
  double kappa5 = 0.18;  ///< 4-D hopping parameter (absorbs M5)
  double mf = 0.04;      ///< domain-wall quark mass
  bool overlap_comm = false;
};

class DwfDirac : public DiracOperator {
 public:
  DwfDirac(FieldOps* ops, const GlobalGeometry* geom, GaugeField* gauge,
           DwfParams params);

  const char* name() const override { return "dwf"; }
  int site_doubles() const override { return params_.ls * kDoublesPerSpinor; }
  int halo_doubles() const override {
    return params_.ls * kDoublesPerHalfSpinor;
  }
  int halo_slabs() const override { return 1; }

  void apply(DistField& out, DistField& in) override;
  void apply_dag(DistField& out, DistField& in) override;
  double flops_per_apply() const override;

  cpu::KernelProfile pack_profile() const;
  cpu::KernelProfile site_profile() const;
  cpu::KernelProfile site_profile(memsys::Region fermion_region) const;

  const DwfParams& params() const { return params_; }

 private:
  /// 4-D hopping on every slice plus the 5-D projector couplings; `dagger`
  /// flips both (gamma5-conjugated 4-D term, transposed 5-D term).
  void compute_sites(DistField& out, const DistField& in, bool dagger);
  void run(DistField& out, DistField& in, bool dagger);

  GaugeField* gauge_;
  DwfParams params_;
  HaloSet halos_;
};

}  // namespace qcdoc::lattice
