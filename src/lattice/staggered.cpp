#include "lattice/staggered.h"

#include <cassert>

namespace qcdoc::lattice {

AsqtadDirac::AsqtadDirac(FieldOps* ops, const GlobalGeometry* geom,
                         GaugeField* gauge, AsqtadParams params)
    : DiracOperator(ops, geom),
      gauge_(gauge),
      params_(params),
      fat_(&ops->comm(), geom, kNd * kDoublesPerSu3, "fatlinks"),
      long_(&ops->comm(), geom, kNd * kDoublesPerSu3, "longlinks"),
      halos_(&ops->comm(), geom, kDoublesPerColorVector, halo_slabs(),
             halo_slabs_minus(), "asqtad.halo") {
  for (int mu = 0; mu < kNd; ++mu) {
    assert(geom_->local().extent()[static_cast<std::size_t>(mu)] >= 3 &&
           "Naik term needs local extents >= 3");
  }
  compute_smeared_links();
}

Su3Matrix AsqtadDirac::fat_link(int rank, int site_idx, int mu) const {
  return load_su3(fat_.site(rank, site_idx) + mu * kDoublesPerSu3);
}

Su3Matrix AsqtadDirac::long_link(int rank, int site_idx, int mu) const {
  return load_su3(long_.site(rank, site_idx) + mu * kDoublesPerSu3);
}

void AsqtadDirac::compute_smeared_links() {
  const auto& local = geom_->local();
  auto shift = [](Coord4 c, int d, int by) {
    c[static_cast<std::size_t>(d)] += by;
    return c;
  };
  const auto& g = *gauge_;
  for (int r = 0; r < fat_.ranks(); ++r) {
    for (int s = 0; s < local.volume(); ++s) {
      const Coord4 x = geom_->global_coords(r, s);
      for (int mu = 0; mu < kNd; ++mu) {
        const Coord4 xpm = shift(x, mu, 1);
        // Fat link: c1 * U + c3 * (six 3-link staples).
        Su3Matrix v = g.link_at(x, mu);
        v *= Complex(params_.fat_c1, 0.0);
        for (int nu = 0; nu < kNd; ++nu) {
          if (nu == mu) continue;
          const Coord4 xpn = shift(x, nu, 1);
          const Coord4 xmn = shift(x, nu, -1);
          const Coord4 xpm_mn = shift(xpm, nu, -1);
          Su3Matrix up = g.link_at(x, nu) * g.link_at(xpn, mu) *
                         g.link_at(xpm, nu).adjoint();
          Su3Matrix down = g.link_at(xmn, nu).adjoint() * g.link_at(xmn, mu) *
                           g.link_at(xpm_mn, nu);
          up *= Complex(params_.fat_c3, 0.0);
          down *= Complex(params_.fat_c3, 0.0);
          v += up;
          v += down;
        }
        store_su3(fat_.site(r, s) + mu * kDoublesPerSu3, v);

        // Long (Naik) link: coefficient folded in.
        Su3Matrix w = g.link_at(x, mu) * g.link_at(xpm, mu) *
                      g.link_at(shift(xpm, mu, 1), mu);
        w *= Complex(params_.naik, 0.0);
        store_su3(long_.site(r, s) + mu * kDoublesPerSu3, w);
      }
    }
  }
}

void AsqtadDirac::pack_faces(const DistField& in) {
  const auto& local = geom_->local();
  const int fd = kDoublesPerColorVector;
  for (int r = 0; r < in.ranks(); ++r) {
    for (int mu = 0; mu < kNd; ++mu) {
      const int f = local.face_volume(mu);
      // Forward side: plain field, layers 0..2 (the -mu neighbour's +mu
      // halo); receiver applies its own V/W.
      auto send_plus = halos_.send_buf(r, mu, +1);
      for (int layer = 0; layer < 3; ++layer) {
        const auto sites = local.face_layer_sites(mu, +1, layer);
        for (std::size_t t = 0; t < sites.size(); ++t) {
          const double* src = in.site(r, sites[t]);
          double* dst =
              send_plus.data() +
              (static_cast<std::size_t>(layer * f) + t) * static_cast<std::size_t>(fd);
          for (int k = 0; k < fd; ++k) dst[k] = src[k];
        }
      }
      // Backward side: layers 0..2 hold W^+ chi (Naik), layer 3 holds
      // V^+ chi (fat) -- all pre-multiplied at the sender so the receiver
      // needs no link halo.
      auto send_minus = halos_.send_buf(r, mu, -1);
      for (int layer = 0; layer < 3; ++layer) {
        const auto sites = local.face_layer_sites(mu, -1, layer);
        for (std::size_t t = 0; t < sites.size(); ++t) {
          const ColorVector chi = load_color_vector(in.site(r, sites[t]));
          const ColorVector wc = adj_mul(long_link(r, sites[t], mu), chi);
          store_color_vector(
              send_minus.data() +
                  (static_cast<std::size_t>(layer * f) + t) *
                      static_cast<std::size_t>(fd),
              wc);
        }
      }
      const auto sites0 = local.face_layer_sites(mu, -1, 0);
      for (std::size_t t = 0; t < sites0.size(); ++t) {
        const ColorVector chi = load_color_vector(in.site(r, sites0[t]));
        const ColorVector vc = adj_mul(fat_link(r, sites0[t], mu), chi);
        store_color_vector(send_minus.data() +
                               (static_cast<std::size_t>(3 * f) + t) *
                                   static_cast<std::size_t>(fd),
                           vc);
      }
    }
  }
}

void AsqtadDirac::compute_sites(DistField& out, const DistField& in,
                                int parity) {
  const auto& local = geom_->local();
  const int fd = kDoublesPerColorVector;
  for (int r = 0; r < in.ranks(); ++r) {
    for (int s = 0; s < local.volume(); ++s) {
      if (parity >= 0 && geom_->parity(r, s) != parity) continue;
      ColorVector acc;
      for (int mu = 0; mu < kNd; ++mu) {
        const int f = local.face_volume(mu);
        const double eta = geom_->staggered_phase(r, s, mu);
        const Complex ce(eta, 0.0);

        auto fetch_plus = [&](int dist) {
          const auto n = local.neighbor(s, mu, +1, dist);
          if (n.local) return load_color_vector(in.site(r, n.index));
          return load_color_vector(halos_.recv_buf(r, mu, +1).data() +
                                   static_cast<std::size_t>(n.index) *
                                       static_cast<std::size_t>(fd));
        };
        // Forward fat + Naik: local links at x.
        acc += ce * (fat_link(r, s, mu) * fetch_plus(1));
        acc += ce * (long_link(r, s, mu) * fetch_plus(3));

        // Backward fat: V^+(x-mu) chi(x-mu).
        const auto b1 = local.neighbor(s, mu, -1, 1);
        ColorVector back1;
        if (b1.local) {
          back1 = adj_mul(fat_link(r, b1.index, mu),
                          load_color_vector(in.site(r, b1.index)));
        } else {
          // Slab 3 of the -mu halo carries V^+ chi.
          back1 = load_color_vector(halos_.recv_buf(r, mu, -1).data() +
                                    static_cast<std::size_t>(3 * f + b1.index) *
                                        static_cast<std::size_t>(fd));
        }
        acc -= ce * back1;

        // Backward Naik: W^+(x-3mu) chi(x-3mu).
        const auto b3 = local.neighbor(s, mu, -1, 3);
        ColorVector back3;
        if (b3.local) {
          back3 = adj_mul(long_link(r, b3.index, mu),
                          load_color_vector(in.site(r, b3.index)));
        } else {
          back3 = load_color_vector(halos_.recv_buf(r, mu, -1).data() +
                                    static_cast<std::size_t>(b3.index) *
                                        static_cast<std::size_t>(fd));
        }
        acc -= ce * back3;
      }
      store_color_vector(out.site(r, s), acc);
    }
  }
}

cpu::KernelProfile AsqtadDirac::pack_profile() const {
  const auto& local = geom_->local();
  cpu::KernelProfile p;
  p.name = "asqtad.pack";
  for (int mu = 0; mu < kNd; ++mu) {
    const double f = local.face_volume(mu);
    // Forward: 3 slabs copied (no flops).  Backward: 4 slabs, each an SU(3)
    // matvec (66 flops: 60 fmadd + 6 isolated).
    p.fmadd_flops += f * 4 * 60;
    p.other_flops += f * 4 * 6;
    p.load_bytes += f * (3 * 48 + 4 * (48 + 144));
    p.store_bytes += f * 7 * 48;
  }
  p.edram_bytes = p.load_bytes + p.store_bytes;
  p.streams = 2;
  p.overhead_cycles = 300;
  return p;
}

cpu::KernelProfile AsqtadDirac::site_profile(
    memsys::Region fermion_region) const {
  const auto& local = geom_->local();
  const double v = local.volume();
  cpu::KernelProfile p;
  p.name = "asqtad.site";
  // 16 SU(3) matvecs per site (8 forward V/W at x, 8 backward), 15 vector
  // accumulations: the canonical 1146 flops per site.
  p.fmadd_flops = v * 960;
  p.other_flops = v * 186;
  double link_loads = 0;
  double chi_bytes = 0;
  for (int mu = 0; mu < kNd; ++mu) {
    const double f = local.face_volume(mu);
    link_loads += v * 2 * 144;        // V, W at x (forward)
    link_loads += 2 * (v - f) * 144;  // V, W at backward neighbours
    chi_bytes += 4 * ((v - f) * 48) + 4 * (f * 48);  // chi: 4 fetches per mu
  }
  p.load_bytes = link_loads + chi_bytes;
  p.store_bytes = v * 48;
  chi_bytes += v * 48;  // result store
  // Traffic splits by field residency: the vectors spill out of EDRAM
  // before the smeared links do.
  if (fat_.body_region() == memsys::Region::kDdr) {
    p.ddr_bytes += link_loads;
  } else {
    p.edram_bytes += link_loads;
  }
  if (fermion_region == memsys::Region::kDdr) {
    p.ddr_bytes += chi_bytes;
  } else {
    p.edram_bytes += chi_bytes;
  }
  p.streams = 4;
  // 16 gathers per site over two link fields: heavy address generation.
  p.overhead_cycles = v * 40;
  // Single-vector SU(3) matvecs expose the 5-cycle FPU latency: dependency
  // chains are one third the length of the Wilson half-spinor pairs.
  p.issue_efficiency = 0.62;
  return p;
}

void AsqtadDirac::dslash(DistField& out, DistField& in) {
  dslash_parity(out, in, -1);
}

void AsqtadDirac::dslash_parity(DistField& out, DistField& in, int parity) {
  pack_faces(in);
  // A parity-restricted application touches half the sites.
  auto site = site_profile(in.body_region());
  if (parity >= 0) site = site.scaled(0.5);
  exchange_and_compute(halos_, pack_profile(), site,
                       params_.overlap_comm && parity < 0, Precision::kDouble,
                       [&] { compute_sites(out, in, parity); });
}

void AsqtadDirac::apply_mass(DistField& out, DistField& in, double sign) {
  // out = m*in + sign*out, fused (the xpay of the staggered kernel).
  const double m = params_.mass;
  for (int r = 0; r < in.ranks(); ++r) {
    auto is = in.data(r);
    auto os = out.data(r);
    for (std::size_t i = 0; i < is.size(); ++i) os[i] = m * is[i] + sign * os[i];
  }
  const double n =
      static_cast<double>(geom_->local().volume()) * kDoublesPerColorVector;
  cpu::KernelProfile p;
  p.name = "asqtad.mass";
  p.fmadd_flops = 2 * n;
  p.load_bytes = 16 * n;
  p.store_bytes = 8 * n;
  if (in.body_region() == memsys::Region::kDdr) {
    p.ddr_bytes = p.load_bytes + p.store_bytes;
  } else {
    p.edram_bytes = p.load_bytes + p.store_bytes;
  }
  ops_->account_kernel(p, geom_->ranks(), Precision::kDouble);
  ops_->bsp().compute(ops_->cpu().kernel_cycles(p));
}

void AsqtadDirac::apply(DistField& out, DistField& in) {
  dslash(out, in);
  apply_mass(out, in, +1.0);  // out = m*in + D*in
}

void AsqtadDirac::apply_dag(DistField& out, DistField& in) {
  // D is anti-Hermitian: M^+ = m - D.
  dslash(out, in);
  apply_mass(out, in, -1.0);  // out = m*in - D*in
}

double AsqtadDirac::flops_per_apply() const {
  const double n =
      static_cast<double>(geom_->local().volume()) * kDoublesPerColorVector;
  return pack_profile().flops() + site_profile().flops() + 2 * n;
}

}  // namespace qcdoc::lattice
