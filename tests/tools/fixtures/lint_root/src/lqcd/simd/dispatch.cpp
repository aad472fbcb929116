// lqcd_lint fixture: a dispatch table that recognises a backend no ci.yml
// leg forces. Marker comments are read by run_analyze_fixtures.py.
#include <string_view>

enum class Backend { kScalar, kAvx2, kAvx512 };

Backend parse_backend(const char* n) {
  const std::string_view name(n);
  if (name == "scalar") return Backend::kScalar;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "avx512") return Backend::kAvx512;  // EXPECT-LINT: simd-ci-leg-check
  return Backend::kScalar;
}
