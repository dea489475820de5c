#include "lattice/clover.h"

#include <cassert>

namespace qcdoc::lattice {
namespace {

constexpr int kBlockDoubles = 36;  // 6 real diag + 15 complex off-diag

/// Pack a Hermitian 6x6 (given as full complex array) into 36 doubles.
void pack_block(double* dst, const std::array<Complex, 36>& b) {
  int k = 0;
  for (int i = 0; i < 6; ++i) dst[k++] = b[static_cast<std::size_t>(7 * i)].real();
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      const Complex& z = b[static_cast<std::size_t>(6 * i + j)];
      dst[k++] = z.real();
      dst[k++] = z.imag();
    }
  }
  assert(k == kBlockDoubles);
}

std::array<Complex, 36> unpack_block(const double* src) {
  std::array<Complex, 36> b{};
  int k = 0;
  for (int i = 0; i < 6; ++i) b[static_cast<std::size_t>(7 * i)] = src[k++];
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      const Complex z(src[k], src[k + 1]);
      k += 2;
      b[static_cast<std::size_t>(6 * i + j)] = z;
      b[static_cast<std::size_t>(6 * j + i)] = std::conj(z);
    }
  }
  return b;
}

}  // namespace

CloverDirac::CloverDirac(FieldOps* ops, const GlobalGeometry* geom,
                         GaugeField* gauge, CloverParams params)
    : DiracOperator(ops, geom),
      gauge_(gauge),
      params_(params),
      hopping_(ops, geom, gauge, WilsonParams{.kappa = params.kappa}),
      clover_(&ops->comm(), geom, 2 * kBlockDoubles, "clover") {
  compute_clover_term();
}

Su3Matrix CloverDirac::field_strength(const Coord4& x, int mu, int nu) const {
  const auto m = static_cast<std::size_t>(mu);
  const auto n = static_cast<std::size_t>(nu);
  auto shift = [](Coord4 c, int d, int by) {
    c[static_cast<std::size_t>(d)] += by;
    return c;
  };
  const Coord4 xpm = shift(x, mu, 1), xpn = shift(x, nu, 1);
  const Coord4 xmm = shift(x, mu, -1), xmn = shift(x, nu, -1);
  const Coord4 xmm_pn = shift(xmm, nu, 1), xmm_mn = shift(xmm, nu, -1);
  const Coord4 xpm_mn = shift(xpm, nu, -1);
  (void)m;
  (void)n;

  const auto& g = *gauge_;
  // Four clover leaves around x in the (mu, nu) plane.
  const Su3Matrix p1 = g.link_at(x, mu) * g.link_at(xpm, nu) *
                       g.link_at(xpn, mu).adjoint() * g.link_at(x, nu).adjoint();
  const Su3Matrix p2 = g.link_at(x, nu) * g.link_at(xmm_pn, mu).adjoint() *
                       g.link_at(xmm, nu).adjoint() * g.link_at(xmm, mu);
  const Su3Matrix p3 = g.link_at(xmm, mu).adjoint() *
                       g.link_at(xmm_mn, nu).adjoint() * g.link_at(xmm_mn, mu) *
                       g.link_at(xmn, nu);
  const Su3Matrix p4 = g.link_at(xmn, nu).adjoint() * g.link_at(xmn, mu) *
                       g.link_at(xpm_mn, nu) * g.link_at(x, mu).adjoint();

  Su3Matrix q = p1 + p2 + p3 + p4;
  // F = -(i/8) (Q - Q^+): Hermitian; remove the trace part.
  Su3Matrix f = q - q.adjoint();
  f *= Complex(0.0, -0.125);
  const Complex tr = f.trace() * Complex(1.0 / 3.0, 0.0);
  for (int i = 0; i < 3; ++i) f.at(i, i) -= tr;
  return f;
}

void CloverDirac::compute_clover_term() {
  const double c = params_.csw * params_.kappa;
  const auto& local = geom_->local();
  // Precompute the chiral 2x2 sub-blocks of sigma_munu once.
  std::array<std::array<std::array<Complex, 4>, 2>, 6> sig{};  // [pair][ch][2x2]
  int pair = 0;
  std::array<std::pair<int, int>, 6> pairs{};
  for (int mu = 0; mu < kNd; ++mu) {
    for (int nu = mu + 1; nu < kNd; ++nu, ++pair) {
      pairs[static_cast<std::size_t>(pair)] = {mu, nu};
      const SpinMatrix s = sigma(mu, nu);
      for (int ch = 0; ch < 2; ++ch) {
        for (int a = 0; a < 2; ++a)
          for (int b = 0; b < 2; ++b)
            sig[static_cast<std::size_t>(pair)][static_cast<std::size_t>(ch)]
               [static_cast<std::size_t>(2 * a + b)] =
                   s.at(2 * ch + a, 2 * ch + b);
      }
    }
  }

  for (int r = 0; r < clover_.ranks(); ++r) {
    for (int s = 0; s < local.volume(); ++s) {
      const Coord4 x = geom_->global_coords(r, s);
      // Field strengths for the six planes.
      std::array<Su3Matrix, 6> f;
      for (int p = 0; p < 6; ++p) {
        f[static_cast<std::size_t>(p)] =
            field_strength(x, pairs[static_cast<std::size_t>(p)].first,
                           pairs[static_cast<std::size_t>(p)].second);
      }
      for (int ch = 0; ch < 2; ++ch) {
        std::array<Complex, 36> block{};
        for (int i = 0; i < 6; ++i) block[static_cast<std::size_t>(7 * i)] = 1.0;
        for (int p = 0; p < 6; ++p) {
          const auto& sb =
              sig[static_cast<std::size_t>(p)][static_cast<std::size_t>(ch)];
          const auto& fp = f[static_cast<std::size_t>(p)];
          for (int sa = 0; sa < 2; ++sa) {
            for (int sb2 = 0; sb2 < 2; ++sb2) {
              const Complex sv = sb[static_cast<std::size_t>(2 * sa + sb2)];
              if (sv == Complex(0.0)) continue;
              for (int ca = 0; ca < 3; ++ca) {
                for (int cb = 0; cb < 3; ++cb) {
                  block[static_cast<std::size_t>(6 * (3 * sa + ca) +
                                                 (3 * sb2 + cb))] +=
                      c * sv * fp.at(ca, cb);
                }
              }
            }
          }
        }
        pack_block(clover_.site(r, s) + ch * kBlockDoubles, block);
      }
    }
  }
}

std::array<Complex, 36> CloverDirac::clover_block(int rank, int site_idx,
                                                  int chirality) const {
  return unpack_block(clover_.site(rank, site_idx) +
                      chirality * kBlockDoubles);
}

void CloverDirac::apply_clover_term(DistField& out, const DistField& in) {
  const auto& local = geom_->local();
  for (int r = 0; r < in.ranks(); ++r) {
    for (int s = 0; s < local.volume(); ++s) {
      const Spinor psi = load_spinor(in.site(r, s));
      Spinor res;
      for (int ch = 0; ch < 2; ++ch) {
        const auto block = clover_block(r, s, ch);
        for (int a = 0; a < 6; ++a) {
          Complex acc = 0;
          for (int b = 0; b < 6; ++b) {
            acc += block[static_cast<std::size_t>(6 * a + b)] *
                   psi[2 * ch + b / 3][b % 3];
          }
          res[2 * ch + a / 3][a % 3] = acc;
        }
      }
      store_spinor(out.site(r, s), res);
    }
  }
}

cpu::KernelProfile CloverDirac::clover_profile() const {
  const double v = geom_->local().volume();
  cpu::KernelProfile p;
  p.name = "clover.term";
  // Two Hermitian 6x6 complex matvecs per site: the assembly streams the
  // packed 72 doubles and issues ~432 fmadd-flops + 96 isolated per site,
  // fused with the -kappa*Dslash accumulation (2 flops/double on 24).
  p.fmadd_flops = v * (432 + 48);
  p.other_flops = v * 96;
  p.load_bytes = v * (2 * kBlockDoubles + 24 + 24) * 8;
  p.store_bytes = v * 24 * 8;
  const double traffic = p.load_bytes + p.store_bytes;
  if (clover_.body_region() == memsys::Region::kDdr) {
    p.ddr_bytes = traffic;
  } else {
    p.edram_bytes = traffic;
  }
  p.streams = 3;
  p.overhead_cycles = v * 6;
  // Dense 6x6 Hermitian blocks give the assembly long independent fmadd
  // chains: the FPU pipe stays fuller than in the hopping kernel.
  p.issue_efficiency = 0.80;
  return p;
}

void CloverDirac::apply(DistField& out, DistField& in) {
  // out = A in - kappa * Dslash in, with the clover multiply fused into the
  // final accumulation pass.
  hopping_.dslash(out, in);
  const auto& local = geom_->local();
  const double kappa = params_.kappa;
  for (int r = 0; r < in.ranks(); ++r) {
    for (int s = 0; s < local.volume(); ++s) {
      const Spinor psi = load_spinor(in.site(r, s));
      const Spinor d = load_spinor(out.site(r, s));
      Spinor res;
      for (int ch = 0; ch < 2; ++ch) {
        const auto block = clover_block(r, s, ch);
        for (int a = 0; a < 6; ++a) {
          Complex acc = 0;
          for (int b = 0; b < 6; ++b) {
            acc += block[static_cast<std::size_t>(6 * a + b)] *
                   psi[2 * ch + b / 3][b % 3];
          }
          res[2 * ch + a / 3][a % 3] = acc - kappa * d[2 * ch + a / 3][a % 3];
        }
      }
      store_spinor(out.site(r, s), res);
    }
  }
  const auto p = clover_profile();
  ops_->account_kernel(p, geom_->ranks(), Precision::kDouble);
  ops_->bsp().compute(ops_->cpu().kernel_cycles(p));
}

void CloverDirac::apply_dag(DistField& out, DistField& in) {
  // gamma_5 hermiticity holds because A is chirality-block-diagonal and
  // Hermitian: M^+ = g5 M g5.
  WilsonDirac::apply_gamma5(in);
  apply(out, in);
  WilsonDirac::apply_gamma5(in);
  WilsonDirac::apply_gamma5(out);
}

double CloverDirac::flops_per_apply() const {
  return hopping_.pack_profile().flops() + hopping_.site_profile().flops() +
         clover_profile().flops();
}

}  // namespace qcdoc::lattice
