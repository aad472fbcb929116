// Runtime backend selection: CPUID detection, LQCD_SIMD_BACKEND override,
// and the active-table pointer the hot paths read.
#include "lqcd/simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>

#include "lqcd/base/error.h"
#include "lqcd/simd/backends.h"

namespace lqcd::simd {

namespace {

const Kernels* table_for(Backend b) noexcept {
  return b == Backend::kScalar ? detail::scalar_table()
                               : detail::avx2_table();
}

bool cpu_supports(Backend b) noexcept {
  if (b == Backend::kScalar) return true;
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

std::string supported_names() {
  std::ostringstream os;
  bool first = true;
  for (const Backend b : available_backends()) {
    if (!first) os << "|";
    os << to_string(b);
    first = false;
  }
  return os.str();
}

/// Active table, published with release semantics so hot loops pay one
/// relaxed-ish load. nullptr until the first kernels() call resolves it.
std::atomic<const Kernels*> g_active{nullptr};

const Kernels* resolve_initial() {
  Backend b = detect_backend();
  if (const auto forced = backend_from_env()) b = *forced;
  return table_for(b);
}

}  // namespace

const char* to_string(Backend b) noexcept {
  return b == Backend::kScalar ? "scalar" : "avx2";
}

Backend parse_backend(std::string_view name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "avx2") return Backend::kAvx2;
  LQCD_CHECK_MSG(false, "unknown SIMD backend \"" << std::string(name)
                                                  << "\" (expected "
                                                     "scalar|avx2)");
  // Unreachable; LQCD_CHECK_MSG throws.
  return Backend::kScalar;
}

bool backend_compiled(Backend b) noexcept { return table_for(b) != nullptr; }

bool backend_supported(Backend b) noexcept {
  return backend_compiled(b) && cpu_supports(b);
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (const Backend b : {Backend::kAvx2, Backend::kScalar})
    if (backend_supported(b)) out.push_back(b);
  return out;
}

Backend detect_backend() noexcept {
  return backend_supported(Backend::kAvx2) ? Backend::kAvx2
                                           : Backend::kScalar;
}

std::optional<Backend> backend_from_env() {
  const char* env = std::getenv("LQCD_SIMD_BACKEND");
  if (env == nullptr || *env == '\0') return std::nullopt;
  const Backend b = parse_backend(env);
  LQCD_CHECK_MSG(backend_supported(b),
                 "LQCD_SIMD_BACKEND=" << env
                                      << " is not usable on this machine "
                                         "(available: "
                                      << supported_names() << ")");
  return b;
}

// analyze-safe(parallel-reachability): the throwing env-var resolve runs
// on the FIRST call only; SchwarzPreconditioner's constructor calls
// kernels() eagerly (schwarz.h, ctor) before any parallel region, so
// in-sweep calls hit the resolved-pointer fast path and cannot throw.
const Kernels& kernels() {
  const Kernels* t = g_active.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  // Thread-safe one-shot init; a throwing resolve (bad env var) is
  // retried — and re-thrown — on every subsequent call.
  static const Kernels* resolved = resolve_initial();
  const Kernels* expected = nullptr;
  g_active.compare_exchange_strong(expected, resolved,
                                   std::memory_order_acq_rel);
  return *g_active.load(std::memory_order_acquire);
}

Backend active_backend() { return kernels().backend; }

void force_backend(Backend b) {
  LQCD_CHECK_MSG(backend_supported(b),
                 "SIMD backend " << to_string(b)
                                 << " is not usable on this machine "
                                    "(available: "
                                 << supported_names() << ")");
  kernels();  // ensure env validation ran once before overriding
  g_active.store(table_for(b), std::memory_order_release);
}

}  // namespace lqcd::simd
