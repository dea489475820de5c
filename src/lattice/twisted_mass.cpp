#include "lattice/twisted_mass.h"

namespace qcdoc::lattice {

TwistedMassDirac::TwistedMassDirac(FieldOps* ops, const GlobalGeometry* geom,
                                   GaugeField* gauge, TwistedMassParams params)
    : DiracOperator(ops, geom),
      params_(params),
      hopping_(ops, geom, gauge,
               WilsonParams{.kappa = params.kappa,
                            .overlap_comm = params.overlap_comm,
                            .precision = params.precision}) {}

cpu::KernelProfile TwistedMassDirac::twist_profile() const {
  const double n = static_cast<double>(geom_->local().volume()) *
                   kDoublesPerSpinor;
  const double bf = bytes_per_double(params_.precision) / 8.0;
  cpu::KernelProfile p;
  p.name = "tm.twist";
  p.fmadd_flops = 2.0 * n;  // one fused multiply-add per stored double
  p.load_bytes = 2.0 * 8.0 * n * bf;  // stream in and out
  p.store_bytes = 8.0 * n * bf;
  p.edram_bytes = p.load_bytes + p.store_bytes;  // site-diagonal, streaming
  p.streams = 3;
  p.overhead_cycles = 32;
  return p;
}

void TwistedMassDirac::add_twist(DistField& out, const DistField& in,
                                 double mt) {
  const int n = geom_->local().volume();
  for (int r = 0; r < out.ranks(); ++r) {
    for (int s = 0; s < n; ++s) {
      const double* pi = in.site(r, s);
      double* po = out.site(r, s);
      // i g5 psi: upper chirality picks up (-im, +re), lower (+im, -re).
      for (int k = 0; k < 12; k += 2) {
        po[k] -= mt * pi[k + 1];
        po[k + 1] += mt * pi[k];
      }
      for (int k = 12; k < 24; k += 2) {
        po[k] += mt * pi[k + 1];
        po[k + 1] -= mt * pi[k];
      }
    }
  }
  out.round_to_storage();
  const auto p = twist_profile();
  ops_->bsp().compute(ops_->cpu().kernel_cycles(p));
  ops_->account_kernel(p, geom_->ranks(), params_.precision);
}

void TwistedMassDirac::apply(DistField& out, DistField& in) {
  hopping_.apply(out, in);
  // mu = 0 must reduce to Wilson exactly, in both arithmetic and timing.
  if (mu_tilde() != 0.0) add_twist(out, in, mu_tilde());
}

void TwistedMassDirac::apply_dag(DistField& out, DistField& in) {
  // M(mu)^+ = g5 M(-mu) g5 = M_wilson^+ - i mu~ g5.
  hopping_.apply_dag(out, in);
  if (mu_tilde() != 0.0) add_twist(out, in, -mu_tilde());
}

double TwistedMassDirac::flops_per_apply() const {
  const double twist = mu_tilde() != 0.0 ? twist_profile().flops() : 0.0;
  return hopping_.flops_per_apply() + twist;
}

}  // namespace qcdoc::lattice
