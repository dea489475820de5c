// Dirac gamma-matrix algebra in the DeGrand-Rossi basis, plus the hardcoded
// spin projection/reconstruction tables the half-spinor ("two-spinor")
// communication trick uses.
//
// The Wilson hopping term applies (1 -+ gamma_mu), whose image is a rank-2
// ("half") spinor: QCDOC's hand-tuned kernels communicate 12 instead of 24
// doubles per face site and reconstruct the full spinor after the SU(3)
// multiply.  The generic 4x4 matrices here serve as the reference
// implementation that the optimized tables are tested against.
#pragma once

#include <array>
#include <cassert>

#include "lattice/su3.h"

namespace qcdoc::lattice {

inline constexpr int kSpins = 4;

/// A spin-4 vector of color vectors: one lattice fermion degree of freedom.
struct Spinor {
  std::array<ColorVector, kSpins> s{};

  ColorVector& operator[](int i) { return s[static_cast<std::size_t>(i)]; }
  const ColorVector& operator[](int i) const {
    return s[static_cast<std::size_t>(i)];
  }

  Spinor& operator+=(const Spinor& o);
  Spinor& operator-=(const Spinor& o);
  Spinor& operator*=(const Complex& z);
  friend Spinor operator+(Spinor a, const Spinor& b) { return a += b; }
  friend Spinor operator-(Spinor a, const Spinor& b) { return a -= b; }
  friend Spinor operator*(const Complex& z, Spinor a) { return a *= z; }
};

Complex dot(const Spinor& a, const Spinor& b);
double norm2(const Spinor& a);

/// A 4x4 spin matrix (entries multiply color vectors as scalars).
struct SpinMatrix {
  std::array<Complex, 16> m{};
  Complex& at(int r, int c) { return m[static_cast<std::size_t>(4 * r + c)]; }
  const Complex& at(int r, int c) const {
    return m[static_cast<std::size_t>(4 * r + c)];
  }
};

Spinor operator*(const SpinMatrix& g, const Spinor& psi);
SpinMatrix operator*(const SpinMatrix& a, const SpinMatrix& b);
SpinMatrix operator+(const SpinMatrix& a, const SpinMatrix& b);
SpinMatrix operator-(const SpinMatrix& a, const SpinMatrix& b);

/// gamma_mu, mu = 0..3 (x,y,z,t) in the DeGrand-Rossi basis.
const SpinMatrix& gamma(int mu);
/// gamma_5 = gamma_0 gamma_1 gamma_2 gamma_3 (diagonal +1,+1,-1,-1).
const SpinMatrix& gamma5();
/// sigma_munu = (i/2) [gamma_mu, gamma_nu].
SpinMatrix sigma(int mu, int nu);

/// A projected 2-spinor: the independent half of (1 -+ gamma_mu) psi.
struct HalfSpinor {
  std::array<ColorVector, 2> h{};
  ColorVector& operator[](int i) { return h[static_cast<std::size_t>(i)]; }
  const ColorVector& operator[](int i) const {
    return h[static_cast<std::size_t>(i)];
  }
};

/// Hardcoded projection table for (1 - sign*gamma_mu), DeGrand-Rossi basis:
///
///   h0 = psi_0 + c0 * psi_{j0},   h1 = psi_1 + c1 * psi_{j1}
///   psi_2 = r2 * h_{k2},          psi_3 = r3 * h_{k3}
///
/// Derived directly from the gamma matrices; tests check project and
/// reconstruct against the generic (1 -+ gamma) application.
struct SpinProjector {
  int j0;
  Complex c0;
  int j1;
  Complex c1;
  int k2;
  Complex r2;
  int k3;
  Complex r3;
};

inline constexpr Complex kI{0.0, 1.0};

/// Index [mu][s] with s = 0 for sign = +1, i.e. (1 - gamma_mu), and s = 1
/// for (1 + gamma_mu).  The one table behind project, reconstruct and the
/// Wilson kernel, which all multiply by the entries in full, zero parts
/// included (-kI is (-0, -1)).
inline constexpr SpinProjector kSpinProjectors[4][2] = {
    // mu = 0
    {{3, -kI, 2, -kI, 1, kI, 0, kI},    // 1 - gamma_0
     {3, kI, 2, kI, 1, -kI, 0, -kI}},   // 1 + gamma_0
    // mu = 1
    {{3, 1.0, 2, -1.0, 1, -1.0, 0, 1.0},   // 1 - gamma_1
     {3, -1.0, 2, 1.0, 1, 1.0, 0, -1.0}},  // 1 + gamma_1
    // mu = 2
    {{2, -kI, 3, kI, 0, kI, 1, -kI},    // 1 - gamma_2
     {2, kI, 3, -kI, 0, -kI, 1, kI}},   // 1 + gamma_2
    // mu = 3
    {{2, -1.0, 3, -1.0, 0, -1.0, 1, -1.0},  // 1 - gamma_3
     {2, 1.0, 3, 1.0, 0, 1.0, 1, 1.0}},     // 1 + gamma_3
};

inline const SpinProjector& spin_projector(int mu, int sign) {
  assert(mu >= 0 && mu < 4 && (sign == 1 || sign == -1));
  return kSpinProjectors[mu][sign > 0 ? 0 : 1];
}

/// h = independent components of (1 - sign*gamma_mu) psi, sign = +-1.
HalfSpinor project(int mu, int sign, const Spinor& psi);
/// Inverse of project up to the dependent components: rebuild the full
/// (1 - sign*gamma_mu)-projected spinor from h (after the SU(3) multiply).
Spinor reconstruct(int mu, int sign, const HalfSpinor& h);

inline constexpr int kDoublesPerSpinor = 24;      // 4 spins x 3 colors x 2
inline constexpr int kDoublesPerHalfSpinor = 12;  // 2 spins x 3 colors x 2
inline constexpr int kDoublesPerColorVector = 6;
inline constexpr int kDoublesPerSu3 = 18;

}  // namespace qcdoc::lattice
