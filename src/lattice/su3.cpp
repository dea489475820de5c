#include "lattice/su3.h"

#include <cmath>

namespace qcdoc::lattice {

ColorVector& ColorVector::operator+=(const ColorVector& o) {
  for (int i = 0; i < 3; ++i) (*this)[i] += o[i];
  return *this;
}

ColorVector& ColorVector::operator-=(const ColorVector& o) {
  for (int i = 0; i < 3; ++i) (*this)[i] -= o[i];
  return *this;
}

ColorVector& ColorVector::operator*=(const Complex& z) {
  for (int i = 0; i < 3; ++i) (*this)[i] *= z;
  return *this;
}

Complex dot(const ColorVector& a, const ColorVector& b) {
  Complex s = 0;
  for (int i = 0; i < 3; ++i) s += std::conj(a[i]) * b[i];
  return s;
}

double norm2(const ColorVector& v) { return dot(v, v).real(); }

Su3Matrix Su3Matrix::identity() {
  Su3Matrix u;
  for (int i = 0; i < 3; ++i) u.at(i, i) = 1.0;
  return u;
}

Su3Matrix Su3Matrix::zero() { return Su3Matrix{}; }

Su3Matrix Su3Matrix::adjoint() const {
  Su3Matrix r;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) r.at(i, j) = std::conj(at(j, i));
  return r;
}

Complex Su3Matrix::trace() const { return at(0, 0) + at(1, 1) + at(2, 2); }

Complex Su3Matrix::det() const {
  return at(0, 0) * (at(1, 1) * at(2, 2) - at(1, 2) * at(2, 1)) -
         at(0, 1) * (at(1, 0) * at(2, 2) - at(1, 2) * at(2, 0)) +
         at(0, 2) * (at(1, 0) * at(2, 1) - at(1, 1) * at(2, 0));
}

Su3Matrix& Su3Matrix::operator+=(const Su3Matrix& o) {
  for (std::size_t i = 0; i < 9; ++i) m[i] += o.m[i];
  return *this;
}

Su3Matrix& Su3Matrix::operator-=(const Su3Matrix& o) {
  for (std::size_t i = 0; i < 9; ++i) m[i] -= o.m[i];
  return *this;
}

Su3Matrix& Su3Matrix::operator*=(const Complex& z) {
  for (auto& x : m) x *= z;
  return *this;
}

Su3Matrix operator*(const Su3Matrix& a, const Su3Matrix& b) {
  Su3Matrix r;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      Complex s = 0;
      for (int k = 0; k < 3; ++k) s += a.at(i, k) * b.at(k, j);
      r.at(i, j) = s;
    }
  }
  return r;
}

double unitarity_violation(const Su3Matrix& u) {
  const Su3Matrix uu = u * u.adjoint();
  const Su3Matrix id = Su3Matrix::identity();
  double dev = 0;
  for (std::size_t i = 0; i < 9; ++i) dev += std::abs(uu.m[i] - id.m[i]);
  dev += std::abs(u.det() - Complex(1.0));
  return dev;
}

Su3Matrix reunitarize(const Su3Matrix& u) {
  // Rows as vectors; Gram-Schmidt the first two, cross product for the
  // third (guarantees det = +1).
  ColorVector r0{{u.at(0, 0), u.at(0, 1), u.at(0, 2)}};
  ColorVector r1{{u.at(1, 0), u.at(1, 1), u.at(1, 2)}};

  const double n0 = std::sqrt(norm2(r0));
  r0 *= Complex(1.0 / n0);
  const Complex overlap = dot(r0, r1);
  for (int i = 0; i < 3; ++i) r1[i] -= overlap * r0[i];
  const double n1 = std::sqrt(norm2(r1));
  r1 *= Complex(1.0 / n1);
  // r2 = conj(r0 x r1): the unique completion with det = 1.
  ColorVector r2;
  r2[0] = std::conj(r0[1] * r1[2] - r0[2] * r1[1]);
  r2[1] = std::conj(r0[2] * r1[0] - r0[0] * r1[2]);
  r2[2] = std::conj(r0[0] * r1[1] - r0[1] * r1[0]);

  Su3Matrix out;
  for (int j = 0; j < 3; ++j) {
    out.at(0, j) = r0[j];
    out.at(1, j) = r1[j];
    out.at(2, j) = r2[j];
  }
  return out;
}

Su3Matrix random_su3(Rng& rng) {
  Su3Matrix g;
  for (auto& z : g.m) z = Complex(rng.next_gaussian(), rng.next_gaussian());
  return reunitarize(g);
}

Su3Matrix random_su3_near_identity(Rng& rng, double epsilon) {
  // H: random Hermitian traceless; U = exp(i eps H) via a short series,
  // then reunitarized to absorb the truncation.
  Su3Matrix h;
  for (int i = 0; i < 3; ++i) {
    for (int j = i; j < 3; ++j) {
      if (i == j) {
        h.at(i, j) = Complex(rng.next_gaussian(), 0.0);
      } else {
        h.at(i, j) = Complex(rng.next_gaussian(), rng.next_gaussian());
        h.at(j, i) = std::conj(h.at(i, j));
      }
    }
  }
  const Complex tr = h.trace() * Complex(1.0 / 3.0);
  for (int i = 0; i < 3; ++i) h.at(i, i) -= tr;

  const Complex ie(0.0, epsilon);
  Su3Matrix u = Su3Matrix::identity();
  Su3Matrix term = Su3Matrix::identity();
  for (int k = 1; k <= 6; ++k) {
    term = term * h;
    term *= ie * Complex(1.0 / k, 0.0) / Complex(1.0, 0.0);
    // term now holds (i eps H)^k / k! progressively: rescale trick below.
    u += term;
  }
  return reunitarize(u);
}

}  // namespace qcdoc::lattice
