#include "lattice/gamma.h"

#include <cassert>

namespace qcdoc::lattice {

Spinor& Spinor::operator+=(const Spinor& o) {
  for (int i = 0; i < kSpins; ++i) (*this)[i] += o[i];
  return *this;
}

Spinor& Spinor::operator-=(const Spinor& o) {
  for (int i = 0; i < kSpins; ++i) (*this)[i] -= o[i];
  return *this;
}

Spinor& Spinor::operator*=(const Complex& z) {
  for (int i = 0; i < kSpins; ++i) (*this)[i] *= z;
  return *this;
}

Complex dot(const Spinor& a, const Spinor& b) {
  Complex s = 0;
  for (int i = 0; i < kSpins; ++i) s += dot(a[i], b[i]);
  return s;
}

double norm2(const Spinor& a) { return dot(a, a).real(); }

Spinor operator*(const SpinMatrix& g, const Spinor& psi) {
  Spinor r;
  for (int i = 0; i < kSpins; ++i) {
    for (int j = 0; j < kSpins; ++j) {
      const Complex& z = g.at(i, j);
      if (z == Complex(0.0)) continue;
      for (int c = 0; c < 3; ++c) r[i][c] += z * psi[j][c];
    }
  }
  return r;
}

SpinMatrix operator*(const SpinMatrix& a, const SpinMatrix& b) {
  SpinMatrix r;
  for (int i = 0; i < kSpins; ++i)
    for (int j = 0; j < kSpins; ++j) {
      Complex s = 0;
      for (int k = 0; k < kSpins; ++k) s += a.at(i, k) * b.at(k, j);
      r.at(i, j) = s;
    }
  return r;
}

SpinMatrix operator+(const SpinMatrix& a, const SpinMatrix& b) {
  SpinMatrix r;
  for (std::size_t k = 0; k < 16; ++k) r.m[k] = a.m[k] + b.m[k];
  return r;
}

SpinMatrix operator-(const SpinMatrix& a, const SpinMatrix& b) {
  SpinMatrix r;
  for (std::size_t k = 0; k < 16; ++k) r.m[k] = a.m[k] - b.m[k];
  return r;
}

namespace {

SpinMatrix make_gamma(int mu) {
  SpinMatrix g;
  switch (mu) {
    case 0:  // gamma_x
      g.at(0, 3) = kI;
      g.at(1, 2) = kI;
      g.at(2, 1) = -kI;
      g.at(3, 0) = -kI;
      break;
    case 1:  // gamma_y
      g.at(0, 3) = -1.0;
      g.at(1, 2) = 1.0;
      g.at(2, 1) = 1.0;
      g.at(3, 0) = -1.0;
      break;
    case 2:  // gamma_z
      g.at(0, 2) = kI;
      g.at(1, 3) = -kI;
      g.at(2, 0) = -kI;
      g.at(3, 1) = kI;
      break;
    case 3:  // gamma_t
      g.at(0, 2) = 1.0;
      g.at(1, 3) = 1.0;
      g.at(2, 0) = 1.0;
      g.at(3, 1) = 1.0;
      break;
    default:
      assert(false);
  }
  return g;
}

SpinMatrix make_gamma5() {
  SpinMatrix g;
  g.at(0, 0) = 1.0;
  g.at(1, 1) = 1.0;
  g.at(2, 2) = -1.0;
  g.at(3, 3) = -1.0;
  return g;
}

}  // namespace

const SpinMatrix& gamma(int mu) {
  static const SpinMatrix g[4] = {make_gamma(0), make_gamma(1), make_gamma(2),
                                  make_gamma(3)};
  assert(mu >= 0 && mu < 4);
  return g[mu];
}

const SpinMatrix& gamma5() {
  static const SpinMatrix g5 = make_gamma5();
  return g5;
}

SpinMatrix sigma(int mu, int nu) {
  const SpinMatrix gm_gn = gamma(mu) * gamma(nu);
  const SpinMatrix gn_gm = gamma(nu) * gamma(mu);
  SpinMatrix r;
  const Complex half_i{0.0, 0.5};
  for (std::size_t k = 0; k < 16; ++k) r.m[k] = half_i * (gm_gn.m[k] - gn_gm.m[k]);
  return r;
}

HalfSpinor project(int mu, int sign, const Spinor& psi) {
  const SpinProjector& e = spin_projector(mu, sign);
  HalfSpinor h;
  for (int c = 0; c < 3; ++c) {
    h[0][c] = psi[0][c] + e.c0 * psi[e.j0][c];
    h[1][c] = psi[1][c] + e.c1 * psi[e.j1][c];
  }
  return h;
}

Spinor reconstruct(int mu, int sign, const HalfSpinor& h) {
  const SpinProjector& e = spin_projector(mu, sign);
  Spinor psi;
  for (int c = 0; c < 3; ++c) {
    psi[0][c] = h[0][c];
    psi[1][c] = h[1][c];
    psi[2][c] = e.r2 * h[e.k2][c];
    psi[3][c] = e.r3 * h[e.k3][c];
  }
  return psi;
}

}  // namespace qcdoc::lattice
