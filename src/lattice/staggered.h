// ASQTAD-improved staggered (Kogut-Susskind) fermions (paper Section 4:
// 38% of peak -- the lowest of the three, because the one-component field
// gives the worst flop-to-communication ratio and the Naik term needs
// third-nearest-neighbour halos).
//
//   M chi(x) = m chi(x) + D chi(x)
//   D chi(x) = sum_mu eta_mu(x) [  V_mu(x) chi(x+mu)   - V^+_mu(x-mu)  chi(x-mu)
//                                + W_mu(x) chi(x+3mu)  - W^+_mu(x-3mu) chi(x-3mu) ]
//
// V are the smeared "fat" links and W the three-link "long" (Naik) links.
// We build V from the single link plus the six three-link staples and W as
// the straight three-link product with the Naik coefficient folded in; the
// full ASQTAD smearing adds five- and seven-link paths with tuned
// coefficients, which changes the *setup* only -- the applied kernel (16
// SU(3) matvecs over two link fields, depth-3 halos) is identical, and that
// is what the paper benchmarks.  See DESIGN.md for this substitution.
//
// D is anti-Hermitian, so M^+ = m - D needs no extra machinery.
#pragma once

#include "lattice/dirac.h"

namespace qcdoc::lattice {

struct AsqtadParams {
  double mass = 0.05;
  double fat_c1 = 5.0 / 8.0;   ///< single-link weight
  double fat_c3 = 1.0 / 16.0;  ///< per-staple weight (6 staples)
  double naik = -1.0 / 24.0;   ///< long-link coefficient (folded into W)
  bool overlap_comm = false;
};

class AsqtadDirac : public DiracOperator {
 public:
  AsqtadDirac(FieldOps* ops, const GlobalGeometry* geom, GaugeField* gauge,
              AsqtadParams params);

  const char* name() const override { return "asqtad"; }
  int site_doubles() const override { return kDoublesPerColorVector; }
  int halo_doubles() const override { return kDoublesPerColorVector; }
  /// Forward halo: plain field, layers 0..2 (fat uses 0, Naik all three).
  int halo_slabs() const override { return 3; }
  /// Backward halo: W^+ chi at layers 0..2 plus V^+ chi at layer 0.
  int halo_slabs_minus() const override { return 4; }

  /// Rebuild the fat and long links from the gauge field (setup step).
  void compute_smeared_links();

  void apply(DistField& out, DistField& in) override;
  void apply_dag(DistField& out, DistField& in) override;
  double flops_per_apply() const override;

  /// out = D in (anti-Hermitian hopping only; exposed for tests).
  void dslash(DistField& out, DistField& in);

  /// out = D in evaluated only on sites of `parity` (staggered D couples
  /// opposite parities, so this reads only 1-parity sites of `in`).  The
  /// untouched parity of `out` is left as-is.  This is the kernel of the
  /// even-odd preconditioned solver (lattice/eo_cg.h): half the compute per
  /// application.  Parity -1 evaluates every site, as dslash does.
  void dslash_parity(DistField& out, DistField& in, int parity);

  cpu::KernelProfile pack_profile() const;
  cpu::KernelProfile site_profile() const {
    return site_profile(fat_.body_region());
  }
  cpu::KernelProfile site_profile(memsys::Region fermion_region) const;

  Su3Matrix fat_link(int rank, int site_idx, int mu) const;
  Su3Matrix long_link(int rank, int site_idx, int mu) const;
  const AsqtadParams& params() const { return params_; }

 private:
  void pack_faces(const DistField& in);
  /// parity = -1 computes every site; 0/1 restricts to that parity.
  void compute_sites(DistField& out, const DistField& in, int parity = -1);
  void apply_mass(DistField& out, DistField& in, double sign);

  GaugeField* gauge_;
  AsqtadParams params_;
  DistField fat_;   // V_mu: 4 x 18 doubles per site
  DistField long_;  // W_mu: 4 x 18 doubles per site
  HaloSet halos_;
};

}  // namespace qcdoc::lattice
