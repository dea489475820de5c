#include "lattice/dwf.h"

#include <cassert>

#include "lattice/hop_kernel.h"

namespace qcdoc::lattice {
namespace {

/// Chiral projections in the DeGrand-Rossi basis: gamma5 = diag(+,+,-,-).
/// P+ keeps spins {0,1}; P- keeps spins {2,3}.
void add_chiral(Spinor& acc, const Spinor& psi, int sign, double coeff) {
  const int lo = sign > 0 ? 0 : 2;
  for (int sp = lo; sp < lo + 2; ++sp) {
    for (int c = 0; c < 3; ++c) acc[sp][c] += coeff * psi[sp][c];
  }
}

}  // namespace

DwfDirac::DwfDirac(FieldOps* ops, const GlobalGeometry* geom,
                   GaugeField* gauge, DwfParams params)
    : DiracOperator(ops, geom),
      gauge_(gauge),
      params_(params),
      halos_(&ops->comm(), geom, halo_doubles(), 1, 1, "dwf.halo") {
  assert(params_.ls >= 2);
}

void DwfDirac::compute_sites(DistField& out, const DistField& in, bool dagger) {
  const int ls = params_.ls;
  // 5-D: non-dagger couples P- to s+1 and P+ to s-1; dagger swaps.
  const int up_sign = dagger ? +1 : -1;    // chirality kept from s+1
  const int down_sign = dagger ? -1 : +1;  // chirality kept from s-1
  for (int r = 0; r < in.ranks(); ++r) {
    for (int s5 = 0; s5 < ls; ++s5) {
      const RankView v =
          rank_view(in, *gauge_, halos_, r, s5, Precision::kDouble);
      for (int s = 0; s < v.local->volume(); ++s) {
        // Dagger conjugates the 4-D hopping: gamma5 gamma_mu gamma5 =
        // -gamma_mu swaps the projectors.
        double hop[kDoublesPerSpinor];
        if (dagger) {
          store_hop<-1>(hop, s, v);
        } else {
          store_hop<+1>(hop, s, v);
        }

        // out = psi - kappa5 * hop - (5-D couplings)
        Spinor res = load_spinor(in.site(r, s) + s5 * kDoublesPerSpinor);
        res += Complex(-params_.kappa5, 0.0) * load_spinor(hop);

        const int s_up = s5 + 1;
        const int s_dn = s5 - 1;
        {
          // Interior: res -= P psi(s+1).  Wall: res += m_f P psi(0).
          const double coeff = s_up < ls ? -1.0 : params_.mf;
          const int src = s_up < ls ? s_up : 0;
          const Spinor nb =
              load_spinor(in.site(r, s) + src * kDoublesPerSpinor);
          add_chiral(res, nb, up_sign, coeff);
        }
        {
          const double coeff = s_dn >= 0 ? -1.0 : params_.mf;
          const int src = s_dn >= 0 ? s_dn : ls - 1;
          const Spinor nb =
              load_spinor(in.site(r, s) + src * kDoublesPerSpinor);
          add_chiral(res, nb, down_sign, coeff);
        }
        store_spinor(out.site(r, s) + s5 * kDoublesPerSpinor, res);
      }
    }
  }
}

cpu::KernelProfile DwfDirac::pack_profile() const {
  const auto& local = geom_->local();
  const double ls = params_.ls;
  cpu::KernelProfile p;
  p.name = "dwf.pack";
  for (int mu = 0; mu < kNd; ++mu) {
    const double f = local.face_volume(mu);
    p.other_flops += f * ls * 24;
    p.fmadd_flops += f * ls * 120;
    p.other_flops += f * ls * 12;
    p.load_bytes += f * (ls * 2 * 192 + 144);  // gauge loaded once per site
    p.store_bytes += f * ls * 2 * 96;
  }
  p.edram_bytes = p.load_bytes + p.store_bytes;
  p.streams = 2;
  p.overhead_cycles = 200 * ls;
  p.issue_efficiency = 0.90;  // Ls-pipelined like the site kernel
  return p;
}

cpu::KernelProfile DwfDirac::site_profile() const {
  return site_profile(gauge_->field().body_region());
}

cpu::KernelProfile DwfDirac::site_profile(
    memsys::Region fermion_region) const {
  const auto& local = geom_->local();
  const double v = local.volume();
  const double ls = params_.ls;
  cpu::KernelProfile p;
  p.name = "dwf.site";
  // Per slice: the Wilson 1320 plus the fused 1-kappa5 accumulation (48)
  // and the 5-D projector adds (24).
  p.fmadd_flops = v * ls * (960 + 48);
  p.other_flops = v * ls * (360 + 24);
  double gauge_loads = 0;
  double spinor_bytes = 0;
  for (int mu = 0; mu < kNd; ++mu) {
    const double f = local.face_volume(mu);
    gauge_loads += v * 144;        // U at x, once per site (reused over Ls)
    gauge_loads += (v - f) * 144;  // backward U, once per site
    spinor_bytes += ls * ((v - f) * 192 + f * 96);  // forward spinors
    spinor_bytes += ls * ((v - f) * 192 + f * 96);  // backward spinors
  }
  spinor_bytes += v * ls * 3 * 192;  // own slice + two 5-D neighbours
  p.load_bytes = gauge_loads + spinor_bytes;
  p.store_bytes = v * ls * 192;
  spinor_bytes += p.store_bytes;
  if (gauge_->field().body_region() == memsys::Region::kDdr) {
    p.ddr_bytes += gauge_loads;
  } else {
    p.edram_bytes += gauge_loads;
  }
  if (fermion_region == memsys::Region::kDdr) {
    p.ddr_bytes += spinor_bytes;
  } else {
    p.edram_bytes += spinor_bytes;
  }
  p.streams = 4;
  p.overhead_cycles = v * ls * 4;  // loop overhead amortized over Ls
  // The fifth dimension is the software-pipelining axis: iterations over s
  // reuse registers and hide the FPU latency almost completely -- the
  // structural reason the paper expects domain walls to beat clover.
  p.issue_efficiency = 0.90;
  return p;
}

void DwfDirac::run(DistField& out, DistField& in, bool dagger) {
  // Each slice packs the faces of its own 4-D hop: Dslash^+ when dagger.
  for (int r = 0; r < in.ranks(); ++r) {
    for (int s5 = 0; s5 < params_.ls; ++s5) {
      const RankView v =
          rank_view(in, *gauge_, halos_, r, s5, Precision::kDouble);
      if (dagger) {
        pack_rank<-1>(v);
      } else {
        pack_rank<+1>(v);
      }
    }
  }
  exchange_and_compute(halos_, pack_profile(), site_profile(in.body_region()),
                       params_.overlap_comm, Precision::kDouble,
                       [&] { compute_sites(out, in, dagger); });
}

void DwfDirac::apply(DistField& out, DistField& in) { run(out, in, false); }

void DwfDirac::apply_dag(DistField& out, DistField& in) { run(out, in, true); }

double DwfDirac::flops_per_apply() const {
  return pack_profile().flops() + site_profile().flops();
}

}  // namespace qcdoc::lattice
