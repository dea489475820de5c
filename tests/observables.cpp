#include "observables.h"

#include <cassert>

#include "lattice/su2_internal.h"

namespace qcdoc::lattice {
namespace {

Coord4 shift(Coord4 c, int d, int by) {
  c[static_cast<std::size_t>(d)] += by;
  return c;
}

/// Path-ordered product of `extent` links along `mu` starting at x.
Su3Matrix line(const GaugeField& g, Coord4 x, int mu, int extent) {
  Su3Matrix u = Su3Matrix::identity();
  for (int step = 0; step < extent; ++step) {
    u = u * g.link_at(x, mu);
    x = shift(x, mu, 1);
  }
  return u;
}

}  // namespace

double wilson_loop(const GaugeField& gauge, int r_extent, int t_extent) {
  const auto& geom = gauge.geometry();
  const int t_dir = 3;
  double sum = 0;
  long count = 0;
  for (int rank = 0; rank < geom.ranks(); ++rank) {
    for (int s = 0; s < geom.local().volume(); ++s) {
      const Coord4 x = geom.global_coords(rank, s);
      for (int mu = 0; mu < 3; ++mu) {
        // W = L_mu(x,R) L_t(x+R mu,T) L_mu^+(x+T t,R) L_t^+(x,T)
        const Su3Matrix bottom = line(gauge, x, mu, r_extent);
        const Su3Matrix right =
            line(gauge, shift(x, mu, r_extent), t_dir, t_extent);
        const Su3Matrix top = line(gauge, shift(x, t_dir, t_extent), mu,
                                   r_extent);
        const Su3Matrix left = line(gauge, x, t_dir, t_extent);
        const Su3Matrix loop =
            bottom * right * top.adjoint() * left.adjoint();
        sum += loop.trace().real() / 3.0;
        ++count;
      }
    }
  }
  return sum / static_cast<double>(count);
}

Complex polyakov_loop(const GaugeField& gauge) {
  const auto& geom = gauge.geometry();
  const auto& ge = geom.global_extent();
  const int t_dir = 3;
  Complex sum = 0;
  long count = 0;
  Coord4 x{};
  for (x[0] = 0; x[0] < ge[0]; ++x[0]) {
    for (x[1] = 0; x[1] < ge[1]; ++x[1]) {
      for (x[2] = 0; x[2] < ge[2]; ++x[2]) {
        x[3] = 0;
        const Su3Matrix winding = line(gauge, x, t_dir, ge[3]);
        sum += winding.trace() * Complex(1.0 / 3.0, 0.0);
        ++count;
      }
    }
  }
  return sum * Complex(1.0 / static_cast<double>(count), 0.0);
}

void random_gauge_transform(GaugeField* gauge, Rng& rng) {
  const auto& geom = gauge->geometry();
  const auto& ge = geom.global_extent();
  const int gvol = ge[0] * ge[1] * ge[2] * ge[3];
  // Draw g(x) in canonical global-site order (distribution invariant).
  std::vector<Su3Matrix> g(static_cast<std::size_t>(gvol));
  auto gindex = [&ge](const Coord4& c) {
    const int x0 = ((c[0] % ge[0]) + ge[0]) % ge[0];
    const int x1 = ((c[1] % ge[1]) + ge[1]) % ge[1];
    const int x2 = ((c[2] % ge[2]) + ge[2]) % ge[2];
    const int x3 = ((c[3] % ge[3]) + ge[3]) % ge[3];
    return ((x3 * ge[2] + x2) * ge[1] + x1) * ge[0] + x0;
  };
  Coord4 x{};
  for (x[3] = 0; x[3] < ge[3]; ++x[3]) {
    for (x[2] = 0; x[2] < ge[2]; ++x[2]) {
      for (x[1] = 0; x[1] < ge[1]; ++x[1]) {
        for (x[0] = 0; x[0] < ge[0]; ++x[0]) {
          g[static_cast<std::size_t>(gindex(x))] = random_su3(rng);
        }
      }
    }
  }
  for (int rank = 0; rank < geom.ranks(); ++rank) {
    for (int s = 0; s < geom.local().volume(); ++s) {
      const Coord4 c = geom.global_coords(rank, s);
      for (int mu = 0; mu < kNd; ++mu) {
        const Su3Matrix& gx = g[static_cast<std::size_t>(gindex(c))];
        const Su3Matrix& gxmu =
            g[static_cast<std::size_t>(gindex(shift(c, mu, 1)))];
        gauge->set_link(rank, s, mu,
                        gx * gauge->link(rank, s, mu) * gxmu.adjoint());
      }
    }
  }
}

void overrelax_sweep(GaugeField* gauge) {
  const auto& geom = gauge->geometry();
  const auto& ge = geom.global_extent();
  Coord4 x{};
  for (x[3] = 0; x[3] < ge[3]; ++x[3]) {
    for (x[2] = 0; x[2] < ge[2]; ++x[2]) {
      for (x[1] = 0; x[1] < ge[1]; ++x[1]) {
        for (x[0] = 0; x[0] < ge[0]; ++x[0]) {
          for (int mu = 0; mu < kNd; ++mu) {
            Su3Matrix u = gauge->link_at(x, mu);
            const Su3Matrix staple = gauge->staple(x, mu);
            for (const auto& sub : su2::kSubgroups) {
              const int i = sub[0];
              const int j = sub[1];
              const Su3Matrix w = u * staple;
              const su2::Quat v = su2::extract(w, i, j);
              if (v.norm() < 1e-12) continue;
              // a = (v^+)^2 / |v|^2 keeps Re Tr(a w) invariant and moves
              // the link maximally within the subgroup.
              const su2::Quat vn = su2::normalized(v);
              const su2::Quat a = su2::mul(su2::conj(vn), su2::conj(vn));
              u = su2::embed(a, i, j) * u;
            }
            gauge->set_link_at(x, mu, reunitarize(u));
          }
        }
      }
    }
  }
}

}  // namespace qcdoc::lattice
