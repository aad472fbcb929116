// SU(3) color matrices and color vectors.
//
// Gauge links U_mu(x) are 3×3 special-unitary complex matrices (paper
// Sec. II-B). The kernels here are deliberately scalar and simple; the
// performance story of the paper lives in the KNC machine model, while
// these routines provide bit-exact, testable numerics.
#pragma once

#include <array>
#include <cmath>

#include "lqcd/base/rng.h"
#include "lqcd/su3/complex_ops.h"

namespace lqcd {

inline constexpr int kNumColors = 3;

/// Color vector: 3 complex components.
template <class T>
struct ColorVector {
  Complex<T> c[kNumColors];

  void zero() noexcept {
    for (auto& x : c) x = Complex<T>(0, 0);
  }
};

template <class T>
inline ColorVector<T> operator+(const ColorVector<T>& a,
                                const ColorVector<T>& b) noexcept {
  ColorVector<T> r;
  for (int i = 0; i < kNumColors; ++i) r.c[i] = a.c[i] + b.c[i];
  return r;
}

template <class T>
inline ColorVector<T> operator-(const ColorVector<T>& a,
                                const ColorVector<T>& b) noexcept {
  ColorVector<T> r;
  for (int i = 0; i < kNumColors; ++i) r.c[i] = a.c[i] - b.c[i];
  return r;
}

/// 3×3 complex color matrix; for gauge links it is special-unitary but the
/// type does not enforce that (sums of links, e.g. clover leaves, are not).
template <class T>
struct SU3 {
  Complex<T> m[kNumColors][kNumColors];

  void zero() noexcept {
    for (auto& row : m)
      for (auto& x : row) x = Complex<T>(0, 0);
  }

  void identity() noexcept {
    zero();
    for (int i = 0; i < kNumColors; ++i) m[i][i] = Complex<T>(1, 0);
  }

  static SU3 unit() noexcept {
    SU3 u;
    u.identity();
    return u;
  }
};

/// y = U x.
template <class T>
inline ColorVector<T> mul(const SU3<T>& u, const ColorVector<T>& x) noexcept {
  ColorVector<T> y;
  for (int i = 0; i < kNumColors; ++i) {
    Complex<T> acc = u.m[i][0] * x.c[0];
    acc += u.m[i][1] * x.c[1];
    acc += u.m[i][2] * x.c[2];
    y.c[i] = acc;
  }
  return y;
}

/// y = U^dagger x.
template <class T>
inline ColorVector<T> mul_adj(const SU3<T>& u,
                              const ColorVector<T>& x) noexcept {
  ColorVector<T> y;
  for (int i = 0; i < kNumColors; ++i) {
    Complex<T> acc = mul_conj(x.c[0], u.m[0][i]);
    acc += mul_conj(x.c[1], u.m[1][i]);
    acc += mul_conj(x.c[2], u.m[2][i]);
    y.c[i] = acc;
  }
  return y;
}

/// C = A B.
template <class T>
inline SU3<T> mul(const SU3<T>& a, const SU3<T>& b) noexcept {
  SU3<T> c;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) {
      Complex<T> acc = a.m[i][0] * b.m[0][j];
      acc += a.m[i][1] * b.m[1][j];
      acc += a.m[i][2] * b.m[2][j];
      c.m[i][j] = acc;
    }
  return c;
}

/// C = A B^dagger.
template <class T>
inline SU3<T> mul_adj(const SU3<T>& a, const SU3<T>& b) noexcept {
  SU3<T> c;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) {
      Complex<T> acc = mul_conj(a.m[i][0], b.m[j][0]);
      acc += mul_conj(a.m[i][1], b.m[j][1]);
      acc += mul_conj(a.m[i][2], b.m[j][2]);
      c.m[i][j] = acc;
    }
  return c;
}

/// C = A^dagger B.
template <class T>
inline SU3<T> adj_mul(const SU3<T>& a, const SU3<T>& b) noexcept {
  SU3<T> c;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) {
      Complex<T> acc = mul_conj(b.m[0][j], a.m[0][i]);
      acc += mul_conj(b.m[1][j], a.m[1][i]);
      acc += mul_conj(b.m[2][j], a.m[2][i]);
      c.m[i][j] = acc;
    }
  return c;
}

template <class T>
inline SU3<T> adjoint(const SU3<T>& a) noexcept {
  SU3<T> c;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) c.m[i][j] = std::conj(a.m[j][i]);
  return c;
}

template <class T>
inline SU3<T> operator+(const SU3<T>& a, const SU3<T>& b) noexcept {
  SU3<T> c;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) c.m[i][j] = a.m[i][j] + b.m[i][j];
  return c;
}

template <class T>
inline SU3<T> operator-(const SU3<T>& a, const SU3<T>& b) noexcept {
  SU3<T> c;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) c.m[i][j] = a.m[i][j] - b.m[i][j];
  return c;
}

template <class T>
inline SU3<T> operator*(const Complex<T>& s, const SU3<T>& a) noexcept {
  SU3<T> c;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) c.m[i][j] = s * a.m[i][j];
  return c;
}

template <class T>
inline Complex<T> trace(const SU3<T>& a) noexcept {
  return a.m[0][0] + a.m[1][1] + a.m[2][2];
}

/// Frobenius-norm distance from exact unitarity, ||U^dagger U - 1||_F.
template <class T>
inline double unitarity_error(const SU3<T>& u) noexcept {
  SU3<T> p = adj_mul(u, u);
  double err = 0;
  for (int i = 0; i < kNumColors; ++i)
    for (int j = 0; j < kNumColors; ++j) {
      const Complex<T> d = p.m[i][j] - Complex<T>(i == j ? 1 : 0, 0);
      err += static_cast<double>(std::norm(d));
    }
  return std::sqrt(err);
}

/// Project a matrix back onto SU(3): Gram–Schmidt on the first two rows,
/// third row = conjugate cross product (guarantees det = +1).
template <class T>
SU3<T> reunitarize(const SU3<T>& a) noexcept {
  SU3<T> u = a;
  // Normalize row 0.
  T n0 = 0;
  for (int j = 0; j < kNumColors; ++j) n0 += std::norm(u.m[0][j]);
  n0 = T(1) / std::sqrt(n0);
  for (int j = 0; j < kNumColors; ++j) u.m[0][j] *= n0;
  // Orthogonalize row 1 against row 0, then normalize.
  Complex<T> proj(0, 0);
  for (int j = 0; j < kNumColors; ++j)
    proj += mul_conj(u.m[1][j], u.m[0][j]);
  for (int j = 0; j < kNumColors; ++j) u.m[1][j] -= proj * u.m[0][j];
  T n1 = 0;
  for (int j = 0; j < kNumColors; ++j) n1 += std::norm(u.m[1][j]);
  n1 = T(1) / std::sqrt(n1);
  for (int j = 0; j < kNumColors; ++j) u.m[1][j] *= n1;
  // Row 2 = (row0 x row1)^*.
  u.m[2][0] = std::conj(u.m[0][1] * u.m[1][2] - u.m[0][2] * u.m[1][1]);
  u.m[2][1] = std::conj(u.m[0][2] * u.m[1][0] - u.m[0][0] * u.m[1][2]);
  u.m[2][2] = std::conj(u.m[0][0] * u.m[1][1] - u.m[0][1] * u.m[1][0]);
  return u;
}

/// Determinant (det = 1 for SU(3); used by tests).
template <class T>
inline Complex<T> det(const SU3<T>& u) noexcept {
  return u.m[0][0] * (u.m[1][1] * u.m[2][2] - u.m[1][2] * u.m[2][1]) -
         u.m[0][1] * (u.m[1][0] * u.m[2][2] - u.m[1][2] * u.m[2][0]) +
         u.m[0][2] * (u.m[1][0] * u.m[2][1] - u.m[1][1] * u.m[2][0]);
}

/// Random traceless anti-Hermitian matrix H with entries of scale
/// `magnitude`, used to generate gauge disorder: U = exp(H) (via
/// reunitarized truncated series below).
template <class T>
SU3<T> random_antihermitian(Rng& rng, double magnitude) {
  SU3<T> h;
  // Off-diagonal: h_ij = z, h_ji = -conj(z).
  for (int i = 0; i < kNumColors; ++i)
    for (int j = i + 1; j < kNumColors; ++j) {
      const Complex<T> z(static_cast<T>(magnitude * rng.gaussian()),
                         static_cast<T>(magnitude * rng.gaussian()));
      h.m[i][j] = z;
      h.m[j][i] = -std::conj(z);
    }
  // Diagonal: purely imaginary, traceless.
  T d0 = static_cast<T>(magnitude * rng.gaussian());
  T d1 = static_cast<T>(magnitude * rng.gaussian());
  h.m[0][0] = Complex<T>(0, d0);
  h.m[1][1] = Complex<T>(0, d1);
  h.m[2][2] = Complex<T>(0, -d0 - d1);
  return h;
}

/// exp(H) for anti-Hermitian H via 12th-order Taylor series followed by a
/// reunitarization sweep. Accurate to machine precision for the |H| <~ 2
/// range used in gauge generation.
template <class T>
SU3<T> expm(const SU3<T>& h) noexcept {
  SU3<T> result = SU3<T>::unit();
  SU3<T> term = SU3<T>::unit();
  for (int k = 1; k <= 12; ++k) {
    term = mul(term, h);
    const Complex<T> scale(T(1) / static_cast<T>(k), 0);
    term = scale * term;
    result = result + term;
  }
  return reunitarize(result);
}

/// Random SU(3) matrix: exp of a random anti-Hermitian matrix. With
/// magnitude ~ O(1) this is close to Haar-uniform for our purposes
/// (strong disorder); small magnitudes give fields near unity.
template <class T>
SU3<T> random_su3(Rng& rng, double magnitude = 1.0) {
  return expm(random_antihermitian<T>(rng, magnitude));
}

}  // namespace lqcd
