#include "lattice/wilson.h"

#include "lattice/hop_kernel.h"

namespace qcdoc::lattice {

WilsonDirac::WilsonDirac(FieldOps* ops, const GlobalGeometry* geom,
                         GaugeField* gauge, WilsonParams params)
    : DiracOperator(ops, geom),
      gauge_(gauge),
      params_(params),
      halos_(&ops->comm(), geom, halo_doubles(), 1, 1, "wilson.halo") {}

int WilsonDirac::halo_doubles() const { return halo_words(params_.precision); }

cpu::KernelProfile WilsonDirac::pack_profile() const {
  const auto& local = geom_->local();
  const double bf = bytes_per_double(params_.precision) / 8.0;
  cpu::KernelProfile p;
  p.name = "wilson.pack";
  for (int mu = 0; mu < kNd; ++mu) {
    const double f = local.face_volume(mu);
    // Low face: projection (12 adds); high face: projection + 2 U^+ matvecs.
    p.other_flops += f * (12 + 12);
    p.fmadd_flops += f * 120;
    p.other_flops += f * 12;
    p.load_bytes += f * (2 * 192 + 144) * bf;
    p.store_bytes += f * 2 * 96 * bf;
  }
  p.edram_bytes = p.load_bytes + p.store_bytes;  // faces stream from EDRAM
  p.streams = 2;
  p.overhead_cycles = 200;
  return p;
}

cpu::KernelProfile WilsonDirac::site_profile(
    memsys::Region fermion_region) const {
  const auto& local = geom_->local();
  const double v = local.volume();
  const double bf = bytes_per_double(params_.precision) / 8.0;
  cpu::KernelProfile p;
  p.name = "wilson.site";
  // Per site: 16 SU(3) half-spinor matvecs (960 fmadd-flops), projections
  // and accumulations (360 isolated flops) -- the canonical 1320 flops.
  p.fmadd_flops = v * 960;
  p.other_flops = v * 360;
  double gauge_loads = 0;
  double spinor_bytes = 0;
  for (int mu = 0; mu < kNd; ++mu) {
    const double f = local.face_volume(mu);
    // Forward: U at x (always local) + neighbour spinor (full if local,
    // half from the halo).  Backward: U and spinor at x-mu when local, a
    // pre-multiplied half spinor otherwise.
    gauge_loads += v * 144 + (v - f) * 144;
    spinor_bytes += (v - f) * 192 + f * 96;  // forward
    spinor_bytes += (v - f) * 192 + f * 96;  // backward
  }
  spinor_bytes += v * 192;  // result store
  p.load_bytes = (gauge_loads + spinor_bytes - v * 192) * bf;
  p.store_bytes = v * 192 * bf;
  // Traffic splits by where the fields actually live: spinor scratch
  // vectors are the first to spill out of EDRAM.
  const bool gauge_ddr =
      gauge_->field().body_region() == memsys::Region::kDdr;
  if (gauge_ddr) {
    p.ddr_bytes += gauge_loads * bf;
  } else {
    p.edram_bytes += gauge_loads * bf;
  }
  if (fermion_region == memsys::Region::kDdr) {
    p.ddr_bytes += spinor_bytes * bf;
  } else {
    p.edram_bytes += spinor_bytes * bf;
  }
  p.streams = 4;
  p.overhead_cycles = v * 12;  // loop control and address generation
  return p;
}

void WilsonDirac::dslash(DistField& out, DistField& in) {
  dslash_parity(out, in, -1);
}

void WilsonDirac::dslash_parity(DistField& out, DistField& in, int parity) {
  const auto view = [&](int r) {
    return rank_view(in, *gauge_, halos_, r, 0, params_.precision);
  };
  for (int r = 0; r < in.ranks(); ++r) pack_rank<+1>(view(r));
  auto site = site_profile(in.body_region());
  if (parity >= 0) site = site.scaled(0.5);
  exchange_and_compute(
      halos_, pack_profile(), site, params_.overlap_comm && parity < 0,
      params_.precision, [&] {
        for (int r = 0; r < in.ranks(); ++r) {
          const RankView v = view(r);
          double* res = out.data(r).data();
          for (int s = 0; s < v.local->volume(); ++s) {
            if (parity >= 0 && geom_->parity(r, s) != parity) continue;
            store_hop<+1>(res + static_cast<std::size_t>(s) * kDoublesPerSpinor,
                          s, v);
          }
        }
      });
}

void WilsonDirac::apply(DistField& out, DistField& in) {
  dslash(out, in);
  // out = in - kappa * out
  ops_->xpay(in, -params_.kappa, out);
}

void WilsonDirac::apply_gamma5(DistField& f) {
  // gamma_5 = diag(+,+,-,-): negate spin components 2 and 3.
  const int n = f.geometry().local().volume();
  for (int r = 0; r < f.ranks(); ++r) {
    for (int s = 0; s < n; ++s) {
      double* p = f.site(r, s);
      for (int k = 12; k < 24; ++k) p[k] = -p[k];
    }
  }
}

void WilsonDirac::apply_dag(DistField& out, DistField& in) {
  // M^dagger = gamma_5 M gamma_5 (and gamma_5 costs only sign flips, which
  // the assembly folds into the kernels -- no extra machine time).
  apply_gamma5(in);
  apply(out, in);
  apply_gamma5(in);  // restore the caller's field
  apply_gamma5(out);
}

double WilsonDirac::flops_per_apply() const {
  const double xpay =
      2.0 * geom_->local().volume() * kDoublesPerSpinor;
  return pack_profile().flops() + site_profile().flops() + xpay;
}

}  // namespace qcdoc::lattice
