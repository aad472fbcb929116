// BLAS-level-1 operations on fermion fields.
//
// These are the "BLAS-type linear algebra" lines of the paper's algorithm
// listing (Table I): axpy-like updates in the MR block solve and
// dot-products / Gram–Schmidt in the outer solver. Reductions accumulate
// in double regardless of the field precision — the outer solver relies
// on accurate residual norms.
//
// Reduction contract: every floating-point reduction (dot, norm2) goes
// through blocked_sum, which splits [0, n) into blocks of the fixed
// compile-time size kReductionBlock, sums each block serially into its
// own partial inside the OpenMP loop, and adds the partials serially in
// block order afterwards. The rounding therefore depends only on n, never
// on the thread count or on the order in which threads finish: the result
// is bit-identical at every OMP_NUM_THREADS, not only from run to run. (An
// OpenMP `reduction(+ : ...)` on a double combines per-thread partials in
// arrival order; from 3 threads up that changes the last bits from run to
// run.) The blocked order itself differs in the last bits from the old
// per-thread sum, so results are not bit-identical to builds that used it.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "lqcd/linalg/fermion_field.h"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace lqcd {

template <class T>
void copy(const FermionField<T>& x, FermionField<T>& y) {
  LQCD_CHECK(x.size() == y.size());
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) shared(n, x, y)
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i];
}

/// Precision-converting copy (e.g. double outer vector -> float
/// preconditioner input).
template <class TSrc, class TDst>
void convert(const FermionField<TSrc>& x, FermionField<TDst>& y) {
  LQCD_CHECK(x.size() == y.size());
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) shared(n, x, y)
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        y[i].s[sp].c[c] =
            Complex<TDst>(static_cast<TDst>(x[i].s[sp].c[c].real()),
                          static_cast<TDst>(x[i].s[sp].c[c].imag()));
}

/// y += a x.
template <class T>
void axpy(const Complex<T>& a, const FermionField<T>& x, FermionField<T>& y) {
  LQCD_CHECK(x.size() == y.size());
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) shared(n, a, x, y)
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        y[i].s[sp].c[c] += a * x[i].s[sp].c[c];
}

template <class T>
void axpy(T a, const FermionField<T>& x, FermionField<T>& y) {
  axpy(Complex<T>(a, 0), x, y);
}

/// y = a x + y ... with separate output: z = a x + y.
template <class T>
void axpyz(const Complex<T>& a, const FermionField<T>& x,
           const FermionField<T>& y, FermionField<T>& z) {
  LQCD_CHECK(x.size() == y.size() && y.size() == z.size());
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) \
    shared(n, a, x, y, z)
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        z[i].s[sp].c[c] = a * x[i].s[sp].c[c] + y[i].s[sp].c[c];
}

/// x *= a.
template <class T>
void scal(const Complex<T>& a, FermionField<T>& x) {
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) shared(n, a, x)
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c) x[i].s[sp].c[c] *= a;
}

template <class T>
void scal(T a, FermionField<T>& x) {
  scal(Complex<T>(a, 0), x);
}

/// Sites per partial sum in blocked_sum. A compile-time constant, not an
/// option: the block boundaries fix the rounding, so they must be the
/// same in every run and at every thread count.
inline constexpr std::int64_t kReductionBlock = 256;

/// Thread-count-invariant sum over sites [0, n): `add_site(acc, i)` adds
/// site i's contribution into the block's accumulator. Blocks of
/// kReductionBlock sites are summed serially in parallel, then their
/// partials serially in block order (see the reduction contract above).
template <class Acc, class AddSite>
Acc blocked_sum(std::int64_t n, const AddSite& add_site) {
  const std::int64_t nblocks = (n + kReductionBlock - 1) / kReductionBlock;
  std::vector<Acc> partial(static_cast<std::size_t>(nblocks), Acc{});
#pragma omp parallel for schedule(static) default(none) \
    shared(n, nblocks, partial, add_site)
  for (std::int64_t b = 0; b < nblocks; ++b) {
    Acc acc{};
    const std::int64_t end = std::min(n, (b + 1) * kReductionBlock);
    for (std::int64_t i = b * kReductionBlock; i < end; ++i) add_site(acc, i);
    partial[static_cast<std::size_t>(b)] = acc;
  }
  Acc sum{};
  for (const Acc& p : partial) sum += p;
  return sum;
}

/// <x|y> = sum_i conj(x_i) y_i, accumulated in double.
template <class T>
std::complex<double> dot(const FermionField<T>& x, const FermionField<T>& y) {
  LQCD_CHECK(x.size() == y.size());
  return blocked_sum<std::complex<double>>(
      x.size(), [&](std::complex<double>& acc, std::int64_t i) {
        double re = 0, im = 0;
        for (int sp = 0; sp < kNumSpins; ++sp)
          for (int c = 0; c < kNumColors; ++c) {
            const auto& a = x[i].s[sp].c[c];
            const auto& b = y[i].s[sp].c[c];
            re += static_cast<double>(a.real()) * b.real() +
                  static_cast<double>(a.imag()) * b.imag();
            im += static_cast<double>(a.real()) * b.imag() -
                  static_cast<double>(a.imag()) * b.real();
          }
        acc += std::complex<double>(re, im);
      });
}

/// ||x||^2, accumulated in double.
template <class T>
double norm2(const FermionField<T>& x) {
  return blocked_sum<double>(
      x.size(), [&](double& acc, std::int64_t i) { acc += norm2(x[i]); });
}

template <class T>
double norm(const FermionField<T>& x) {
  return std::sqrt(norm2(x));
}

/// True iff every component of x is finite (no NaN/Inf). The guard the
/// resilience layer runs on preconditioner outputs and residuals; one
/// streaming pass, cheap next to any operator application.
template <class T>
bool all_finite(const FermionField<T>& x) {
  const std::int64_t n = x.size();
  int bad = 0;
#pragma omp parallel for schedule(static) default(none) shared(n, x) \
    reduction(+ : bad)
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c) {
        if (!std::isfinite(x[i].s[sp].c[c].real()) ||
            !std::isfinite(x[i].s[sp].c[c].imag()))
          ++bad;
      }
  return bad == 0;
}

/// z = x - y.
template <class T>
void sub(const FermionField<T>& x, const FermionField<T>& y,
         FermionField<T>& z) {
  LQCD_CHECK(x.size() == y.size() && y.size() == z.size());
  const std::int64_t n = x.size();
#pragma omp parallel for schedule(static) default(none) \
    shared(n, x, y, z)
  for (std::int64_t i = 0; i < n; ++i) z[i] = x[i] - y[i];
}

/// Fill with site-independent Gaussian noise (unit variance per real
/// component), deterministic in `seed`.
template <class T>
void gaussian(FermionField<T>& x, std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i)
    for (int sp = 0; sp < kNumSpins; ++sp)
      for (int c = 0; c < kNumColors; ++c)
        x[i].s[sp].c[c] = Complex<T>(static_cast<T>(rng.gaussian()),
                                     static_cast<T>(rng.gaussian()));
}

}  // namespace lqcd
