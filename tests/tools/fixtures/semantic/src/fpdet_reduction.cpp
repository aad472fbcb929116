// fp-determinism fixture: an OpenMP reduction(+ : ...) on a floating-point
// accumulator combines per-thread partials in arrival order, so the last
// bits depend on thread count and timing. Integer and min/max reductions
// are exact and must stay silent.
#include <cstdint>

double sum_bad(const double* x, std::int64_t n) {
  double acc = 0;
#pragma omp parallel for default(none) shared(n, x) reduction(+ : acc)  // EXPECT: fp-determinism
  for (std::int64_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

float dot_bad(const float* x, const float* y, std::int64_t n) {
  float re = 0, im = 0;
#pragma omp parallel for default(none) shared(n, x, y) reduction(+ : re, im)  // EXPECT: fp-determinism
  for (std::int64_t i = 0; i < n; ++i) {
    re += x[i] * y[i];
    im += x[i] * y[i + 1];
  }
  return re + im;
}

int count_nonfinite_ok(const double* x, std::int64_t n) {
  int bad = 0;
  std::int64_t seen = 0;
#pragma omp parallel for default(none) shared(n, x) reduction(+ : bad, seen)
  for (std::int64_t i = 0; i < n; ++i) {
    ++seen;
    if (!(x[i] == x[i])) ++bad;
  }
  return bad + static_cast<int>(seen - n);
}

double max_ok(const double* x, std::int64_t n) {
  double m = 0;
#pragma omp parallel for default(none) shared(n, x) reduction(max : m)
  for (std::int64_t i = 0; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}
