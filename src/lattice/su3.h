// SU(3) color algebra: complex 3-vectors, 3x3 matrices, random group
// elements and reunitarization.
//
// These are the scalar building blocks of every lattice kernel.  Functional
// code uses them directly (reference-style clarity); the cycle costs of the
// hand-tuned assembly the paper benchmarks are accounted separately through
// cpu::KernelProfile.
#pragma once

#include <array>
#include <complex>

#include "common/rng.h"

namespace qcdoc::lattice {

using Complex = std::complex<double>;

/// A color 3-vector.
struct ColorVector {
  std::array<Complex, 3> c{};

  Complex& operator[](int i) { return c[static_cast<std::size_t>(i)]; }
  const Complex& operator[](int i) const { return c[static_cast<std::size_t>(i)]; }

  ColorVector& operator+=(const ColorVector& o);
  ColorVector& operator-=(const ColorVector& o);
  ColorVector& operator*=(const Complex& z);
  friend ColorVector operator+(ColorVector a, const ColorVector& b) { return a += b; }
  friend ColorVector operator-(ColorVector a, const ColorVector& b) { return a -= b; }
  friend ColorVector operator*(const Complex& z, ColorVector v) { return v *= z; }
};

Complex dot(const ColorVector& a, const ColorVector& b);  ///< conj(a) . b
double norm2(const ColorVector& v);

/// A 3x3 complex matrix (not necessarily in the group).
struct Su3Matrix {
  // Row-major storage m[row][col].
  std::array<Complex, 9> m{};

  Complex& at(int r, int c) { return m[static_cast<std::size_t>(3 * r + c)]; }
  const Complex& at(int r, int c) const {
    return m[static_cast<std::size_t>(3 * r + c)];
  }

  static Su3Matrix identity();
  static Su3Matrix zero();

  Su3Matrix adjoint() const;  ///< Hermitian conjugate
  Complex trace() const;
  Complex det() const;

  Su3Matrix& operator+=(const Su3Matrix& o);
  Su3Matrix& operator-=(const Su3Matrix& o);
  Su3Matrix& operator*=(const Complex& z);
  friend Su3Matrix operator+(Su3Matrix a, const Su3Matrix& b) { return a += b; }
  friend Su3Matrix operator-(Su3Matrix a, const Su3Matrix& b) { return a -= b; }
  friend Su3Matrix operator*(const Complex& z, Su3Matrix a) { return a *= z; }
};

Su3Matrix operator*(const Su3Matrix& a, const Su3Matrix& b);

/// r = U v for a matrix held as 9 row-major (re, im) pairs -- the layout
/// of Su3Matrix and of gauge-field storage, so kernels multiply straight
/// out of field memory.  Generic over the complex type C (std::complex, or
/// a kernel's plain-double pair with the same product formula); the one
/// implementation behind operator*(U, v).
template <typename C>
std::array<C, 3> su3_mul(const double* u, const std::array<C, 3>& v) {
  std::array<C, 3> r;
  for (std::size_t i = 0; i < 3; ++i) {
    C s{0.0, 0.0};
    for (std::size_t k = 0; k < 3; ++k) {
      s += C{u[2 * (3 * i + k)], u[2 * (3 * i + k) + 1]} * v[k];
    }
    r[i] = s;
  }
  return r;
}

/// r = U^dagger v on the same storage, without forming the adjoint.  The
/// one implementation behind adj_mul.
template <typename C>
std::array<C, 3> su3_adj_mul(const double* u, const std::array<C, 3>& v) {
  std::array<C, 3> r;
  for (std::size_t i = 0; i < 3; ++i) {
    C s{0.0, 0.0};
    for (std::size_t k = 0; k < 3; ++k) {
      s += conj(C{u[2 * (3 * k + i)], u[2 * (3 * k + i) + 1]}) * v[k];
    }
    r[i] = s;
  }
  return r;
}

// An array of std::complex<double> may be read as interleaved doubles
// ([complex.numbers]), so Su3Matrix storage is su3_mul's layout.
inline ColorVector operator*(const Su3Matrix& a, const ColorVector& v) {
  return {su3_mul(reinterpret_cast<const double*>(a.m.data()), v.c)};
}
/// a^dagger * v without forming the adjoint.
inline ColorVector adj_mul(const Su3Matrix& a, const ColorVector& v) {
  return {su3_adj_mul(reinterpret_cast<const double*>(a.m.data()), v.c)};
}

/// Frobenius distance from the group: ||U U^dagger - 1|| + |det U - 1|.
double unitarity_violation(const Su3Matrix& u);

/// Gram-Schmidt reunitarization with determinant fixed to 1.
Su3Matrix reunitarize(const Su3Matrix& u);

/// Haar-like random group element: Gaussian entries, then reunitarized.
Su3Matrix random_su3(Rng& rng);

/// Random element near the identity: exp of a small random antihermitian
/// traceless matrix (used by the heatbath-adjacent update and smearing).
Su3Matrix random_su3_near_identity(Rng& rng, double epsilon);

}  // namespace qcdoc::lattice
