#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <thread>

#include "bench/host_measure.h"
#include "lqcd/base/checksum.h"
#include "lqcd/knc/machine.h"
#include "lqcd/knc/work_model.h"
#include "lqcd/service/solver_service.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

using lqcd::DDSolver;
using lqcd::DDSolverConfig;
using lqcd::DDSolverSetup;
using lqcd::Geometry;
using lqcd::SolverStats;

// ---------------------------------------------------------------------------
// Problem and inputs

DDSolverConfig Problem::dd_config() const {
  DDSolverConfig c;
  c.block = {4, 4, 4, 4};
  c.basis_size = 16;
  c.deflation_size = 4;
  c.schwarz_iterations = 4;
  c.block_mr_iterations = 5;
  c.half_precision_matrices = true;
  c.tolerance = tolerance;
  return c;
}

lqcd::NonDDSolverConfig Problem::nondd_config() const {
  lqcd::NonDDSolverConfig c;
  c.mode = lqcd::NonDDSolverConfig::Mode::kDoubleBiCGstab;
  c.tolerance = tolerance;
  return c;
}

namespace {

/// Seed of input `index` of input stream `stream` of the run seeded with
/// `seed` (gauge fields, sources and the farm offset draw from separate
/// streams).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + stream;
  lqcd::splitmix64(s);
  s ^= index * 0xd1b54a32d192ed03ull;
  return lqcd::splitmix64(s);
}

}  // namespace

lqcd::GaugeField<double> make_gauge(const Geometry& geom, const Problem& p,
                                    std::uint64_t seed, std::uint64_t index) {
  auto u = lqcd::random_gauge_field<double>(geom, p.disorder,
                                            derive_seed(seed, 1, index));
  u.make_time_antiperiodic();
  return u;
}

FermionField<double> make_source(const Geometry& geom, std::uint64_t seed,
                                 std::uint64_t index) {
  FermionField<double> b(geom.volume());
  lqcd::gaussian(b, derive_seed(seed, 2, index));
  return b;
}

double true_residual(const lqcd::WilsonCloverOperator<double>& op,
                     const FermionField<double>& b,
                     const FermionField<double>& x) {
  FermionField<double> r(b.size());
  op.apply(x, r);
  lqcd::sub(b, r, r);
  return lqcd::norm(r) / lqcd::norm(b);
}

bool bit_equal(const FermionField<double>& a, const FermionField<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.bytes())) == 0;
}

namespace {

// ---------------------------------------------------------------------------
// Run-level settings. The tail percentile of each workload is fixed so
// that a run of the configured length has at least kTailBeyond samples
// beyond it; the measurement loop keeps going until it does.

constexpr std::size_t kTailBeyond = 10;
constexpr int kSetupRepeats = 9;       ///< set-ups per run; median reported
constexpr int kReproSolves = 3;        ///< solves of one source (repro count)
constexpr int kMicroRepeats = 3;       ///< M applies per thread-count probe
constexpr int kFarmConfigs = 3;        ///< configurations the farm draws from
constexpr int kFarmInFlight = 16;      ///< closed-loop requests in flight
constexpr std::size_t kFarmCacheCapacity = 2;
/// Per 20 requests: 12 on configuration 0, 5 on 1, 3 on 2 (60/25/15 %).
constexpr int kFarmBlock[kFarmConfigs] = {12, 5, 3};
/// Relative-residual slack for the independent check: the recomputed
/// norm differs from the solver's own only by reduction order.
constexpr double kResidualSlack = 1.0 + 1e-6;

double tail_percentile(const std::string& workload) {
  if (workload == "dd_single") return 80.0;
  return 90.0;
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_omp_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return v;
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (f >> s && !s.empty()) {
    const char unit = s.back();
    const long n = std::atol(s.c_str());
    if (unit == 'K') return static_cast<std::int64_t>(n) << 10;
    if (unit == 'M') return static_cast<std::int64_t>(n) << 20;
    return n;
  }
  return 0;
}

std::uint32_t field_checksum(const FermionField<double>& x) {
  return lqcd::fletcher32_bytes(x.data(), static_cast<std::size_t>(x.bytes()));
}

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

/// Per-layer metrics every traced run prints, in order. A layer the
/// workload does not call reads 0 (it did no work there).
const std::vector<std::pair<const char*, const char*>>& per_layer_list() {
  static const std::vector<std::pair<const char*, const char*>> l = {
      {"dirac.build_s", "s"},
      {"schwarz.pack_s", "s"},
      {"schwarz.verify_s", "s"},
      {"schwarz.packed_bytes", "B"},
      {"dirac.A.calls", "count"},
      {"dirac.A.self_s", "s"},
      {"dirac.A.share", "fraction"},
      {"dirac.A.gflops", "Gflop/s"},
      {"dirac.A.flops_per_byte", "flop/B"},
      {"dirac.A.roofline_frac", "fraction"},
      {"schwarz.M.calls", "count"},
      {"schwarz.M.self_s", "s"},
      {"schwarz.M.share", "fraction"},
      {"schwarz.M.s_per_rhs", "s"},
      {"schwarz.M.gflops", "Gflop/s"},
      {"schwarz.M.flops", "flop"},
      {"schwarz.M.block_solves", "count"},
      {"schwarz.M.mr_iterations", "count"},
      {"schwarz.M.matrix_block_loads", "count"},
      {"schwarz.M.boundary_bytes", "B"},
      {"schwarz.M.bytes_computed", "B"},
      {"schwarz.M.flops_per_byte", "flop/B"},
      {"schwarz.M.roofline_frac", "fraction"},
      {"schwarz.M.thread_scaling", "fraction"},
      {"simd.lanes.M.s_per_rhs", "s"},
      {"simd.lanes.M.gflops", "Gflop/s"},
      {"simd.lanes.nrhs_gap", "ratio"},
      {"linalg.convert.self_s", "s"},
      {"solver.outer.self_s", "s"},
      {"solver.outer.share", "fraction"},
      {"solver.outer.iterations", "count"},
      {"solver.outer.matvecs", "count"},
      {"solver.outer.global_sum_events", "count"},
      {"solver.outer.recycle_projections", "count"},
      {"solver.bicgstab.self_s", "s"},
      {"solver.bicgstab.iterations", "count"},
      {"solver.bicgstab.iterations_spread", "count"},
      {"solver.repro.distinct_solutions", "count"},
      {"service.submit_s", "s"},
      {"service.queue_s.hit", "s"},
      {"service.queue_s.miss", "s"},
      {"service.batch_solve_s", "s"},
      {"service.mean_lanes", "count"},
      {"service.batches", "count"},
      {"service.partial_batches", "count"},
      {"service.cache.hits", "count"},
      {"service.cache.misses", "count"},
      {"service.cache.evictions", "count"},
      {"service.cache.hit_ratio", "fraction"},
      {"host.compute_gflops", "Gflop/s"},
      {"host.stream_gbs", "GB/s"},
      {"run.warmup_s", "s"},
      {"run.trace_overhead_frac", "fraction"},
      {"run.attempted", "count"},
      {"run.failed", "count"},
  };
  return l;
}

/// Collects the metrics of one run by name; emit() orders them.
class MetricSet {
 public:
  void set(const std::string& name, double v) { values_[name] = v; }
  /// Copy every metric of `o` whose name starts with `prefix`.
  void copy_prefixed(const MetricSet& o, const std::string& prefix) {
    for (const auto& [n, v] : o.values_)
      if (n.rfind(prefix, 0) == 0) values_[n] = v;
  }
  std::vector<Metric> emit_end_to_end() const {
    static const std::pair<const char*, const char*> kE2e[] = {
        {"solve_s", "s"},       {"setup_s", "s"},
        {"rhs_per_s", "1/s"},   {"latency_p50_s", "s"},
        {"latency_tail_s", "s"}, {"peak_rss_mb", "MiB"}};
    std::vector<Metric> out;
    for (const auto& [n, u] : kE2e) out.push_back({n, at(n), u});
    return out;
  }
  std::vector<Metric> emit_per_layer() const {
    std::vector<Metric> out;
    for (const auto& [n, u] : per_layer_list()) out.push_back({n, at(n), u});
    return out;
  }

 private:
  double at(const std::string& n) const {
    const auto it = values_.find(n);
    return it == values_.end() ? 0.0 : it->second;
  }
  std::map<std::string, double> values_;
};

/// Pass/fail accounting of every checked operation of a run.
struct Accounting {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  }
};

/// A converged single-RHS solve from a zero guess, checked from outside.
void check_solve(Accounting& acc, const SolverStats& st,
                 const lqcd::WilsonCloverOperator<double>& op,
                 const FermionField<double>& b, const FermionField<double>& x,
                 double tol, const std::string& what) {
  const double res = true_residual(op, b, x);
  acc.check(st.converged && st.iterations >= 1 && std::isfinite(res) &&
                res <= tol * kResidualSlack,
            fmt("%s: converged=%d iterations=%d true_residual=%.3e",
                what.c_str(), st.converged ? 1 : 0, st.iterations, res));
}

// ---------------------------------------------------------------------------
// Context lines and the roofline ceilings

std::vector<std::string> context_lines(const RunOptions& o, const Problem& p,
                                       double working_set_bytes) {
  return {
      fmt("context: workload=%s seed=%llu trace=%d seconds=%.0f",
          o.workload.c_str(), static_cast<unsigned long long>(o.seed),
          o.trace ? 1 : 0, o.seconds),
      fmt("context: nproc=%u omp_threads=%d simd_backend=%s compiler=\"%s\"",
          std::thread::hardware_concurrency(), omp_threads(),
          lqcd::simd::to_string(lqcd::simd::active_backend()), __VERSION__),
      fmt("context: lattice=%dx%dx%dx%d mass=%.2f csw=%.1f disorder=%.2f "
          "tolerance=%.0e",
          p.dims[0], p.dims[1], p.dims[2], p.dims[3], p.mass, p.csw,
          p.disorder, p.tolerance),
      fmt("context: per_configuration_working_set_bytes=%.0f (computed from "
          "array sizes) llc_bytes=%lld",
          working_set_bytes, static_cast<long long>(llc_bytes())),
  };
}

/// Bytes of the per-configuration DD solver state, from array sizes:
/// double and float gauge fields, double and float clover terms (the
/// float one with its odd-site inverses), and the packed half matrices.
double dd_working_set_bytes(const DDSolverSetup& s) {
  const double v = static_cast<double>(s.geometry().volume());
  const double links = 4.0 * 18.0, clover = 2.0 * 36.0;
  const auto& h = *s.schwarz_half();
  const double packed =
      static_cast<double>(h.domain_matrix_bytes()) * h.num_domains();
  return v * (links * 8 + clover * 8 + links * 4 + 2 * clover * 4) + packed;
}

struct Ceilings {
  double compute_gflops = 0;
  double stream_gbs = 0;
  std::vector<std::string> notes;
};

/// Compute ceiling: the SU(3) matrix-matrix stream of bench/host_measure.h
/// on every thread at once, on L2-resident arrays (a ceiling must not be
/// bandwidth-bound). Bandwidth ceiling: an all-thread read of one array
/// four times the last-level cache.
Ceilings measure_ceilings() {
  Ceilings c;
  const int nt = omp_threads();
  constexpr std::int64_t kMats = 2048;  // 3 arrays x 144 KiB per thread
  std::vector<double> rate(static_cast<std::size_t>(nt), 0.0);
  double* rate_p = rate.data();
#pragma omp parallel default(none) shared(rate_p)
  {
#ifdef _OPENMP
    const int t = omp_get_thread_num();
#else
    const int t = 0;
#endif
    rate_p[t] = lqcd::bench::measure_su3_mul_nn(kMats, 0.3).gflops();
  }
  for (const double r : rate) c.compute_gflops += r;

  const std::int64_t llc = std::max<std::int64_t>(llc_bytes(), 32 << 20);
  const std::int64_t n = 4 * llc / static_cast<std::int64_t>(sizeof(float));
  std::vector<float> a(static_cast<std::size_t>(n));
  float* ap = a.data();
#pragma omp parallel for schedule(static) default(none) shared(ap, n)
  for (std::int64_t i = 0; i < n; ++i) ap[i] = static_cast<float>(i & 7);
  std::vector<double> times;
  double sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    double s = 0;
#pragma omp parallel for schedule(static) reduction(+ : s) default(none) \
    shared(ap, n)
    for (std::int64_t i = 0; i < n; ++i) s += ap[i];
    times.push_back(now_s() - t0);
    sink += s;
  }
  c.stream_gbs = static_cast<double>(n) * sizeof(float) / median(times) / 1e9;
  c.notes.push_back(fmt(
      "ceiling: compute su3_mul_nn %.1f Gflop/s on %d threads, arrays "
      "3x%lld KiB per thread (L2-resident)",
      c.compute_gflops, nt,
      static_cast<long long>(kMats * 18 * sizeof(float) / 1024)));
  c.notes.push_back(fmt(
      "ceiling: stream read %.1f GB/s on %d threads, array %lld MiB = 4 x "
      "LLC %lld MiB (checksum %.0f)",
      c.stream_gbs, nt, static_cast<long long>(n * 4 >> 20),
      static_cast<long long>(llc >> 20), sink));
  return c;
}

/// Roofline bound of a layer: min(compute ceiling, bandwidth x intensity).
double roofline_frac(double gflops, double flops_per_byte, const Ceilings& c) {
  const double bound =
      std::min(c.compute_gflops, c.stream_gbs * flops_per_byte);
  return bound > 0 ? gflops / bound : 0.0;
}

/// Flops per byte of one double Wilson-Clover apply, from array sizes:
/// four links and two clover blocks per site, one spinor in, one out.
constexpr double kAFlopsPerByte =
    static_cast<double>(lqcd::kWilsonCloverFlopsPerSite) /
    ((4 * 18 + 2 * 36 + 24 + 24) * 8.0);

// ---------------------------------------------------------------------------
// Shared pieces of the traced runs

/// Per-layer metrics from the spans of the traced solves (spans of other
/// names, e.g. set-up or service spans, do not enter).
void layer_metrics_from_spans(const Tracer& tr, std::int64_t volume,
                              const lqcd::SchwarzStats& ms,
                              std::int64_t matrix_bytes_per_load,
                              const Ceilings& ceil, MetricSet& m) {
  const auto tot = totals_by_name(tr.spans());
  auto get = [&](const char* n) {
    const auto it = tot.find(n);
    return it == tot.end() ? LayerTotals{} : it->second;
  };
  const LayerTotals a = get("dirac.A"), mm = get("schwarz.M"),
                    br = get("linalg.convert"), outer = get("solver.outer"),
                    bicg = get("solver.bicgstab");
  const double total = outer.total_s + bicg.total_s;
  m.set("dirac.A.calls", static_cast<double>(a.calls));
  m.set("dirac.A.self_s", a.self_s);
  m.set("dirac.A.share", total > 0 ? a.self_s / total : 0.0);
  const double a_gflops =
      a.self_s > 0 ? static_cast<double>(a.calls) * volume *
                         lqcd::kWilsonCloverFlopsPerSite / a.self_s / 1e9
                   : 0.0;
  m.set("dirac.A.gflops", a_gflops);
  m.set("dirac.A.flops_per_byte", kAFlopsPerByte);
  m.set("dirac.A.roofline_frac", roofline_frac(a_gflops, kAFlopsPerByte, ceil));
  m.set("solver.bicgstab.self_s", bicg.self_s);
  if (mm.calls == 0) return;
  m.set("schwarz.M.calls", static_cast<double>(mm.calls));
  m.set("schwarz.M.self_s", mm.self_s);
  m.set("schwarz.M.share", total > 0 ? mm.self_s / total : 0.0);
  m.set("schwarz.M.s_per_rhs",
        ms.applications > 0 ? mm.self_s / static_cast<double>(ms.applications)
                            : 0.0);
  const double m_gflops =
      mm.self_s > 0 ? static_cast<double>(ms.flops) / mm.self_s / 1e9 : 0.0;
  m.set("schwarz.M.gflops", m_gflops);
  m.set("schwarz.M.flops", static_cast<double>(ms.flops));
  m.set("schwarz.M.block_solves", static_cast<double>(ms.block_solves));
  m.set("schwarz.M.mr_iterations", static_cast<double>(ms.mr_iterations));
  m.set("schwarz.M.matrix_block_loads",
        static_cast<double>(ms.matrix_block_loads));
  m.set("schwarz.M.boundary_bytes", static_cast<double>(ms.boundary_bytes));
  const double bytes = static_cast<double>(ms.matrix_block_loads) *
                           static_cast<double>(matrix_bytes_per_load) +
                       static_cast<double>(ms.boundary_bytes);
  m.set("schwarz.M.bytes_computed", bytes);
  const double fpb = bytes > 0 ? static_cast<double>(ms.flops) / bytes : 0.0;
  m.set("schwarz.M.flops_per_byte", fpb);
  m.set("schwarz.M.roofline_frac", roofline_frac(m_gflops, fpb, ceil));
  m.set("linalg.convert.self_s", br.self_s);
  m.set("solver.outer.self_s", outer.self_s);
  m.set("solver.outer.share", total > 0 ? outer.self_s / total : 0.0);
}

/// M probes on one configuration: thread scaling of one nrhs=1 apply and
/// the per-RHS cost of a full-width lane batch against nrhs=1.
void probe_schwarz(TracedPipeline& pipe, const FermionField<double>& src,
                   MetricSet& m, std::vector<std::string>& notes) {
  auto& M = pipe.schwarz();
  const std::int64_t n = src.size();
  FermionField<float> in(n), out(n);
  lqcd::convert(src, in);
  auto time_apply = [&](int reps) {
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_s();
      M.apply(in, out);
      t.push_back(now_s() - t0);
    }
    return median(t);
  };
  const int nt = omp_threads();
  M.apply(in, out);  // warm
  const double t_n = time_apply(kMicroRepeats);
  set_omp_threads(1);
  const double t_1 = time_apply(kMicroRepeats);
  set_omp_threads(nt);
  m.set("schwarz.M.thread_scaling", t_1 / (nt * t_n));

  const int lanes = 2 * lqcd::kRhsSimdWidth;
  std::vector<FermionField<float>> bin(static_cast<std::size_t>(lanes),
                                       FermionField<float>(n)),
      bout(static_cast<std::size_t>(lanes), FermionField<float>(n));
  std::vector<const FermionField<float>*> pin;
  std::vector<FermionField<float>*> pout;
  for (int l = 0; l < lanes; ++l) {
    lqcd::gaussian(bin[static_cast<std::size_t>(l)],
                   static_cast<std::uint64_t>(l + 1));
    pin.push_back(&bin[static_cast<std::size_t>(l)]);
    pout.push_back(&bout[static_cast<std::size_t>(l)]);
  }
  M.apply_batch(pin, pout);  // warm
  const lqcd::SchwarzStats before = M.stats();
  std::vector<double> t;
  for (int r = 0; r < kMicroRepeats; ++r) {
    const double t0 = now_s();
    M.apply_batch(pin, pout);
    t.push_back(now_s() - t0);
  }
  const double flops_per_batch =
      static_cast<double>(M.stats().flops - before.flops) / kMicroRepeats;
  const double t_b = median(t);
  m.set("simd.lanes.M.s_per_rhs", t_b / lanes);
  m.set("simd.lanes.M.gflops", flops_per_batch / t_b / 1e9);
  m.set("simd.lanes.nrhs_gap", t_n / (t_b / lanes));
  notes.push_back(fmt(
      "probe: M nrhs=1 apply %.4f s at %d threads, %.4f s at 1 thread; "
      "nrhs=%d batch %.4f s (%.4f s per RHS)",
      t_n, nt, t_1, lanes, t_b, t_b / lanes));
}

/// knc/ model numbers, printed next to the measurements (never metrics).
void knc_notes(const Problem& p, std::vector<std::string>& notes) {
  const DDSolverConfig c = p.dd_config();
  const auto w = lqcd::knc::block_solve_work(c.block, c.block_mr_iterations,
                                             true, 1);
  const lqcd::knc::KncSpec spec;
  notes.push_back(fmt(
      "model (knc/, not measured): %.0f flop per block solve, %.1f Gflop/s "
      "instruction-bound per KNC core, %.0f GB/s KNC streaming",
      w.flops, spec.sp_gflops_bound_per_core(), spec.mem_bw_gbs));
}

/// The solve-level end-to-end metrics of the single-caller workloads:
/// latency is the call->return time of one solve, and throughput counts
/// solver time only (not the benchmark's source generation and checks).
void single_caller_metrics(const std::vector<double>& solve_t,
                           const std::vector<double>& iterations,
                           double tail_p, MetricSet& m,
                           std::vector<std::string>& notes) {
  double busy = 0;
  for (const double t : solve_t) busy += t;
  m.set("solve_s", median(solve_t));
  m.set("latency_p50_s", median(solve_t));
  m.set("latency_tail_s", percentile(solve_t, tail_p));
  m.set("rhs_per_s", static_cast<double>(solve_t.size()) / busy);
  notes.push_back(fmt(
      "samples: solve_s/latency_p50_s n=%zu; latency_tail_s = p%.0f with %zu "
      "beyond; rhs_per_s = %zu solves / %.2f s in the solver",
      solve_t.size(), tail_p, samples_beyond(solve_t.size(), tail_p),
      solve_t.size(), busy));
  notes.push_back(fmt("iterations: median %.1f, min %.0f, max %.0f",
                      median(iterations),
                      *std::min_element(iterations.begin(), iterations.end()),
                      *std::max_element(iterations.begin(), iterations.end())));
}

/// Closed loop of one caller: solve sources 0, 1, ... back to back until
/// `seconds` have passed and the tail has enough samples.
template <class Solve>
std::vector<double> closed_loop(const Geometry& geom, std::uint64_t seed,
                                double seconds, std::size_t min_samples,
                                Solve&& solve,
                                std::vector<double>& iterations) {
  std::vector<double> t;
  const double start = now_s();
  for (std::uint64_t i = 0;; ++i) {
    const FermionField<double> b = make_source(geom, seed, i);
    FermionField<double> x(geom.volume());  // zero initial guess
    const double t0 = now_s();
    const SolverStats st = solve(i, b, x);
    t.push_back(now_s() - t0);
    iterations.push_back(st.iterations);
    if (now_s() - start >= seconds && t.size() >= min_samples) break;
  }
  return t;
}

/// Traced and untraced solves of the same sources, one pair per source,
/// alternating which goes first so that a drift in machine speed cancels
/// out of the tracing overhead. Runs for `seconds`.
template <class Traced, class Plain>
void paired_loop(const Geometry& geom, std::uint64_t seed, double seconds,
                 Traced&& traced, Plain&& plain, std::vector<double>& traced_t,
                 std::vector<double>& plain_t, std::vector<double>& iterations) {
  const double start = now_s();
  for (std::uint64_t i = 0; i == 0 || now_s() - start < seconds; ++i) {
    const FermionField<double> b = make_source(geom, seed, i);
    FermionField<double> x(geom.volume()), y(geom.volume());
    for (int k = 0; k < 2; ++k) {
      const bool traced_now = (k == 0) == (i % 2 == 0);
      const double t0 = now_s();
      if (traced_now) {
        iterations.push_back(traced(i, b, x).iterations);
        traced_t.push_back(now_s() - t0);
      } else {
        plain(i, b, y);
        plain_t.push_back(now_s() - t0);
      }
    }
  }
}

/// Whether two solvers give bit-identical solutions for source 0.
template <class SolveA, class SolveB>
bool same_solution(const Geometry& geom, std::uint64_t seed, SolveA&& a,
                   SolveB&& b) {
  const FermionField<double> src = make_source(geom, seed, 0);
  FermionField<double> x(geom.volume()), y(geom.volume());
  a(0, src, x);
  b(0, src, y);
  return bit_equal(x, y);
}

void write_spans(const std::string& path, const Tracer& tr,
                 const std::vector<std::string>& notes) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"notes\": [");
  for (std::size_t i = 0; i < notes.size(); ++i) {
    std::string esc;
    for (const char ch : notes[i]) {
      if (ch == '"' || ch == '\\') esc += '\\';
      esc += ch;
    }
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", esc.c_str());
  }
  std::fprintf(f, "],\n\"spans\": [\n");
  const auto& s = tr.spans();
  const double t0 = s.empty() ? 0.0 : s.front().start;
  for (std::size_t i = 0; i < s.size(); ++i)
    std::fprintf(f,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"request\": %lld}",
                 i ? ",\n" : "", i, s[i].name.c_str(), s[i].start - t0,
                 s[i].end - t0, s[i].parent,
                 static_cast<long long>(s[i].request));
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

/// One untimed-for-metrics solve before the loop: first-touch of the
/// solver's buffers and the OpenMP team start-up land here.
template <class Solve>
void warm_up(const Geometry& geom, std::uint64_t seed, Solve&& solve,
             MetricSet& m) {
  const double t0 = now_s();
  const auto b = make_source(geom, seed, ~0ull);
  FermionField<double> x(geom.volume());
  solve(~0ull, b, x);
  m.set("run.warmup_s", now_s() - t0);
}

/// The closing part of every traced run: ceilings, model lines, spans.
void finish_trace(const RunOptions& o, const Problem& p, const Tracer& tr,
                  const Ceilings& ceil, MetricSet& m,
                  std::vector<std::string>& notes) {
  m.set("host.compute_gflops", ceil.compute_gflops);
  m.set("host.stream_gbs", ceil.stream_gbs);
  notes.insert(notes.end(), ceil.notes.begin(), ceil.notes.end());
  knc_notes(p, notes);
  write_spans(o.trace_path, tr, notes);
}

/// The closing part of every run: memory, failure accounting, and the
/// metric list the run's mode prints.
RunReport finish_run(const RunOptions& o, const Accounting& acc, MetricSet& m,
                     std::vector<std::string> notes) {
  m.set("peak_rss_mb", peak_rss_mb());
  m.set("run.attempted", static_cast<double>(acc.attempted));
  m.set("run.failed", static_cast<double>(acc.failed));
  for (const auto& f : acc.failures) notes.push_back("FAILED: " + f);
  RunReport rep;
  rep.notes = std::move(notes);
  rep.attempted = acc.attempted;
  rep.failed = acc.failed;
  rep.correct = acc.failed == 0;
  rep.metrics = o.trace ? m.emit_per_layer() : m.emit_end_to_end();
  return rep;
}

// ---------------------------------------------------------------------------
// Service requests

struct FarmRecord {
  int config = 0;
  std::uint64_t source = 0;
  double submit_at = 0;
  double submit_call_s = 0;
  double ready_at = 0;
  lqcd::SolveResult result;
};

/// Submit source `source` of the run seeded with `seed` on `gauge`
/// (configuration `config`), timing the submit call itself.
std::future<lqcd::SolveResult> submit_request(
    lqcd::SolverService& svc, const Geometry& geom,
    const lqcd::GaugeField<double>& gauge, int config, const Problem& p,
    std::uint64_t seed, std::uint64_t source, FarmRecord& r) {
  r.config = config;
  r.source = source;
  lqcd::SolveRequest req;
  req.geom = &geom;
  req.gauge = &gauge;
  req.source = make_source(geom, seed, source);
  req.mass = p.mass;
  req.csw = p.csw;
  req.tolerance = p.tolerance;
  r.submit_at = now_s();
  auto fut = svc.submit(std::move(req));
  r.submit_call_s = now_s() - r.submit_at;
  return fut;
}

/// Per-layer service metrics over completed requests and the change in
/// the service's counters while they ran.
void service_metrics(const std::vector<FarmRecord>& recs,
                     const lqcd::ServiceStats& before,
                     const lqcd::ServiceStats& after, MetricSet& m) {
  std::vector<double> submit_t, q_hit, q_miss, solve_t;
  for (const auto& r : recs) {
    submit_t.push_back(r.submit_call_s);
    solve_t.push_back(r.result.solve_seconds);
    (r.result.setup_cache_hit ? q_hit : q_miss)
        .push_back(r.result.queue_seconds);
  }
  const double batches = static_cast<double>(after.batches - before.batches);
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  m.set("service.submit_s", median(submit_t));
  m.set("service.queue_s.hit", median(q_hit));
  m.set("service.queue_s.miss", median(q_miss));
  m.set("service.batch_solve_s", median(solve_t));
  m.set("service.batches", batches);
  m.set("service.partial_batches",
        static_cast<double>(after.partial_batches - before.partial_batches));
  m.set("service.mean_lanes",
        batches > 0 ? static_cast<double>(after.lanes_solved -
                                          before.lanes_solved) /
                          batches
                    : 0.0);
  m.set("service.cache.hits", hits);
  m.set("service.cache.misses", misses);
  m.set("service.cache.evictions",
        static_cast<double>(after.cache.evictions - before.cache.evictions));
  m.set("service.cache.hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0);
}

// ---------------------------------------------------------------------------
// Off-path probes. A traced run also measures, on the workload's own
// configuration, the layers the workload itself does not call, so that
// every per-layer metric of every traced run is a measurement.

/// Service: 8 requests submitted back to back (the first dispatch misses
/// the setup cache), then 8 more (hits).
void service_probe(const Geometry& geom, const lqcd::GaugeField<double>& gauge,
                   const Problem& p, std::uint64_t seed,
                   const lqcd::WilsonCloverOperator<double>& op,
                   Accounting& acc, MetricSet& m) {
  lqcd::SolverServiceConfig sc;
  sc.solver = p.dd_config();
  sc.worker_threads = 1;
  lqcd::SolverService svc(sc);
  const int lanes = sc.batch.max_lanes;
  const lqcd::ServiceStats before = svc.stats();
  std::vector<FarmRecord> recs;
  for (int round = 0; round < 2; ++round) {
    std::vector<FarmRecord> batch(static_cast<std::size_t>(lanes));
    std::vector<std::future<lqcd::SolveResult>> futs;
    for (int l = 0; l < lanes; ++l)
      futs.push_back(submit_request(
          svc, geom, gauge, 0, p, seed,
          (1ull << 43) + static_cast<std::uint64_t>(round * lanes + l),
          batch[static_cast<std::size_t>(l)]));
    for (int l = 0; l < lanes; ++l) {
      auto& r = batch[static_cast<std::size_t>(l)];
      r.result = futs[static_cast<std::size_t>(l)].get();
      check_solve(acc, r.result.stats, op, make_source(geom, seed, r.source),
                  r.result.solution, p.tolerance,
                  fmt("service probe request %llu",
                      static_cast<unsigned long long>(r.source)));
      recs.push_back(std::move(r));
    }
  }
  service_metrics(recs, before, svc.stats(), m);
}

/// BiCGstab on the timed A: three solves.
void bicgstab_probe(const Geometry& geom, const lqcd::WilsonCloverOperator<double>& op,
                    const Problem& p, std::uint64_t seed, Accounting& acc,
                    MetricSet& m) {
  Tracer tr;
  const lqcd::WilsonCloverLinOp<double> linop(op);
  const TimedOperator a(linop, &tr);
  lqcd::BiCGstabParams bp;
  bp.tolerance = p.tolerance;
  bp.max_iterations = p.nondd_config().max_iterations;
  std::vector<double> iters;
  for (std::uint64_t i = 0; i < kReproSolves; ++i) {
    const auto b = make_source(geom, seed, (1ull << 44) + i);
    FermionField<double> x(geom.volume());
    SolverStats st;
    {
      ScopedSpan s(&tr, "solver.bicgstab");
      st = lqcd::bicgstab_solve(a, b, x, bp);
    }
    check_solve(acc, st, op, b, x, p.tolerance, "bicgstab probe solve");
    iters.push_back(st.iterations);
  }
  m.set("solver.bicgstab.self_s",
        totals_by_name(tr.spans())["solver.bicgstab"].self_s);
  m.set("solver.bicgstab.iterations", median(iters));
  m.set("solver.bicgstab.iterations_spread",
        *std::max_element(iters.begin(), iters.end()) -
            *std::min_element(iters.begin(), iters.end()));
}

// ---------------------------------------------------------------------------
// dd_single

/// Setup by parts, mirroring DDSolverSetup's constructor, so the build of
/// the operators, the packing, and the checksum verification are timed
/// separately.
void traced_dd_setup(const Geometry& geom, const lqcd::GaugeField<double>& u,
                     const Problem& p, Tracer& tr, MetricSet& m) {
  std::vector<double> build, pack, verify;
  std::int64_t packed = 0;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const lqcd::Checkerboard cb(geom);
    const int sb = tr.begin("dirac.build");
    lqcd::WilsonCloverOperator<double> op_d(geom, cb, u, p.mass, p.csw);
    const auto u_f = lqcd::convert<float>(u);
    lqcd::WilsonCloverOperator<float> op_f(geom, cb, u_f,
                                           static_cast<float>(p.mass),
                                           static_cast<float>(p.csw));
    op_f.prepare_schur();
    tr.end(sb);
    const int sp = tr.begin("schwarz.pack");
    const lqcd::DomainPartition part(geom, p.dd_config().block);
    const lqcd::SchwarzSetup<lqcd::Half> setup(part, op_f);
    tr.end(sp);
    const int sv = tr.begin("schwarz.verify");
    const int bad = setup.verify_checksums();
    tr.end(sv);
    LQCD_CHECK_MSG(bad == 0, "freshly packed matrices failed verification");
    const auto& s = tr.spans();
    build.push_back(s[static_cast<std::size_t>(sb)].duration());
    pack.push_back(s[static_cast<std::size_t>(sp)].duration());
    verify.push_back(s[static_cast<std::size_t>(sv)].duration());
    packed = setup.domain_matrix_bytes() * setup.num_domains();
  }
  m.set("dirac.build_s", median(build));
  m.set("schwarz.pack_s", median(pack));
  m.set("schwarz.verify_s", median(verify));
  m.set("schwarz.packed_bytes", static_cast<double>(packed));
}

/// Solution checksums of repeated solves of one source.
template <class Solve>
int distinct_solutions(const Geometry& geom, std::uint64_t seed,
                       Solve&& solve) {
  std::set<std::uint32_t> sums;
  const FermionField<double> b = make_source(geom, seed, 0);
  for (int r = 0; r < kReproSolves; ++r) {
    FermionField<double> x(geom.volume());
    solve(b, x);
    sums.insert(field_checksum(x));
  }
  return static_cast<int>(sums.size());
}

RunReport run_dd_single(const RunOptions& o) {
  Accounting acc;
  MetricSet m;
  const Problem p;
  const DDSolverConfig cfg = p.dd_config();
  const Geometry geom(p.dims);
  const auto gauge = make_gauge(geom, p, o.seed, 0);
  const double tail_p = tail_percentile(o.workload);

  // Set-up: the per-configuration state, built several times.
  std::vector<double> setup_t;
  std::shared_ptr<DDSolverSetup> setup;
  std::unique_ptr<DDSolver> solver;
  for (int k = 0; k < kSetupRepeats; ++k) {
    solver.reset();
    setup.reset();
    const double t0 = now_s();
    setup = std::make_shared<DDSolverSetup>(geom, gauge, p.mass, p.csw, cfg);
    solver = std::make_unique<DDSolver>(setup, cfg);
    setup_t.push_back(now_s() - t0);
  }
  m.set("setup_s", median(setup_t));
  const auto& op = setup->op_d();
  auto notes = context_lines(o, p, dd_working_set_bytes(*setup));

  auto dd_solve = [&](std::uint64_t i, const FermionField<double>& b,
                      FermionField<double>& x) {
    const SolverStats st = solver->solve(b, x);
    check_solve(acc, st, op, b, x, p.tolerance,
                fmt("dd solve of source %llu",
                    static_cast<unsigned long long>(i)));
    return st;
  };
  warm_up(geom, o.seed, dd_solve, m);

  if (!o.trace) {
    std::vector<double> iters;
    const auto t = closed_loop(geom, o.seed, o.seconds,
                               samples_for_tail(tail_p, kTailBeyond),
                               dd_solve, iters);
    single_caller_metrics(t, iters, tail_p, m, notes);
  } else {
    Tracer tr;
    TracedPipeline pipe(setup, cfg, &tr);
    TracedPipeline bare(setup, cfg, nullptr);  // the same calls, no spans
    std::vector<double> iters, matvecs, sums;
    int projections = 0;
    auto traced_solve = [&](std::uint64_t i, const FermionField<double>& b,
                            FermionField<double>& x) {
      const SolverStats st = pipe.solve(b, x);
      check_solve(acc, st, op, b, x, p.tolerance,
                  fmt("traced dd solve of source %llu",
                      static_cast<unsigned long long>(i)));
      matvecs.push_back(static_cast<double>(st.matvecs));
      sums.push_back(static_cast<double>(st.global_sum_events));
      projections += st.recycle_projections;
      return st;
    };
    auto bare_solve = [&](std::uint64_t i, const FermionField<double>& b,
                          FermionField<double>& x) {
      const SolverStats st = bare.solve(b, x);
      check_solve(acc, st, op, b, x, p.tolerance,
                  fmt("untraced pipeline solve of source %llu",
                      static_cast<unsigned long long>(i)));
      return st;
    };
    {  // warm both pipelines' own Schwarz scratch; spans dropped
      const auto b = make_source(geom, o.seed, ~0ull);
      FermionField<double> x(geom.volume());
      pipe.solve(b, x);
      bare.solve(b, x);
      tr.clear();
      pipe.schwarz().reset_stats();
    }
    traced_dd_setup(geom, gauge, p, tr, m);
    // Each source with and without spans: the tracing overhead.
    std::vector<double> traced_t, plain_t;
    paired_loop(geom, o.seed, o.seconds, traced_solve, bare_solve, traced_t,
                plain_t, iters);
    const lqcd::SchwarzStats ms = pipe.schwarz().stats();
    const bool identical = same_solution(geom, o.seed, dd_solve, bare_solve);
    // DDSolver::solve re-checksums the gauge field on every call (the
    // stale-setup check); the rebuilt pipeline does not.
    std::vector<double> stale_t;
    for (int r = 0; r < kMicroRepeats; ++r) {
      const double t0 = now_s();
      const std::uint32_t sum = setup->master().content_checksum();
      stale_t.push_back(now_s() - t0);
      LQCD_CHECK(sum == setup->gauge_checksum());
    }
    const Ceilings ceil = measure_ceilings();
    layer_metrics_from_spans(tr, geom.volume(), ms,
                             pipe.schwarz().domain_matrix_bytes(), ceil, m);
    m.set("solver.outer.iterations", median(iters));
    m.set("solver.outer.matvecs", median(matvecs));
    m.set("solver.outer.global_sum_events", median(sums));
    m.set("solver.outer.recycle_projections", projections);
    m.set("run.trace_overhead_frac", median(traced_t) / median(plain_t) - 1.0);
    m.set("solver.repro.distinct_solutions",
          distinct_solutions(geom, o.seed, [&](const auto& b, auto& x) {
            return dd_solve(0, b, x);
          }));
    probe_schwarz(pipe, make_source(geom, o.seed, 0), m, notes);
    service_probe(geom, gauge, p, o.seed, op, acc, m);
    bicgstab_probe(geom, op, p, o.seed, acc, m);
    notes.push_back(fmt(
        "fidelity: rebuilt pipeline vs DDSolver::solve at %d threads: %s; "
        "DDSolver::solve's stale-setup gauge checksum costs %.4f s per call",
        omp_threads(), identical ? "bit-identical" : "differs",
        median(stale_t)));
    notes.push_back(fmt(
        "samples: %zu traced solves (median %.4f s), %zu untraced (median "
        "%.4f s)",
        traced_t.size(), median(traced_t), plain_t.size(), median(plain_t)));
    finish_trace(o, p, tr, ceil, m, notes);
  }
  return finish_run(o, acc, m, std::move(notes));
}

// ---------------------------------------------------------------------------
// nondd_bicgstab

/// Off-path probe of the DD layers for the non-DD workload: set-up by
/// parts, three traced DD solves, and the M probes, on its configuration.
void dd_probe(const Geometry& geom, const lqcd::GaugeField<double>& gauge,
              const Problem& p, std::uint64_t seed, const Ceilings& ceil,
              Accounting& acc, MetricSet& m, std::vector<std::string>& notes) {
  const DDSolverConfig cfg = p.dd_config();
  auto setup =
      std::make_shared<DDSolverSetup>(geom, gauge, p.mass, p.csw, cfg);
  Tracer tr;
  traced_dd_setup(geom, gauge, p, tr, m);
  tr.clear();
  TracedPipeline pipe(setup, cfg, &tr);
  std::vector<double> iters, matvecs, sums;
  for (std::uint64_t i = 0; i <= kReproSolves; ++i) {
    const auto b = make_source(geom, seed, (1ull << 45) + i);
    FermionField<double> x(geom.volume());
    const SolverStats st = pipe.solve(b, x);
    check_solve(acc, st, setup->op_d(), b, x, p.tolerance, "dd probe solve");
    if (i == 0) {  // warm-up solve
      tr.clear();
      pipe.schwarz().reset_stats();
      continue;
    }
    iters.push_back(st.iterations);
    matvecs.push_back(static_cast<double>(st.matvecs));
    sums.push_back(static_cast<double>(st.global_sum_events));
  }
  MetricSet dd;
  layer_metrics_from_spans(tr, geom.volume(), pipe.schwarz().stats(),
                           pipe.schwarz().domain_matrix_bytes(), ceil, dd);
  for (const char* prefix : {"schwarz.M.", "linalg.", "solver.outer."})
    m.copy_prefixed(dd, prefix);
  m.set("solver.outer.iterations", median(iters));
  m.set("solver.outer.matvecs", median(matvecs));
  m.set("solver.outer.global_sum_events", median(sums));
  probe_schwarz(pipe, make_source(geom, seed, 1ull << 45), m, notes);
}

RunReport run_nondd(const RunOptions& o) {
  Accounting acc;
  MetricSet m;
  const Problem p;
  const Geometry geom(p.dims);
  const auto gauge = make_gauge(geom, p, o.seed, 0);
  const double tail_p = tail_percentile(o.workload);

  std::vector<double> setup_t;
  std::unique_ptr<lqcd::NonDDSolver> solver;
  for (int k = 0; k < kSetupRepeats; ++k) {
    solver.reset();
    const double t0 = now_s();
    solver = std::make_unique<lqcd::NonDDSolver>(geom, gauge, p.mass, p.csw,
                                                 p.nondd_config());
    setup_t.push_back(now_s() - t0);
  }
  m.set("setup_s", median(setup_t));
  const auto& op = solver->op();
  const double v = static_cast<double>(geom.volume());
  auto notes = context_lines(o, p, v * (4 * 18 + 2 * 36) * 8.0);

  auto solve = [&](std::uint64_t i, const FermionField<double>& b,
                   FermionField<double>& x) {
    const SolverStats st = solver->solve(b, x);
    check_solve(acc, st, op, b, x, p.tolerance,
                fmt("bicgstab solve of source %llu",
                    static_cast<unsigned long long>(i)));
    return st;
  };
  warm_up(geom, o.seed, solve, m);

  if (!o.trace) {
    std::vector<double> iters;
    const auto t = closed_loop(geom, o.seed, o.seconds,
                               samples_for_tail(tail_p, kTailBeyond), solve,
                               iters);
    single_caller_metrics(t, iters, tail_p, m, notes);
  } else {
    Tracer tr;
    std::vector<double> build;
    for (int k = 0; k < kSetupRepeats; ++k) {
      const lqcd::Checkerboard cb(geom);
      const int sb = tr.begin("dirac.build");
      lqcd::WilsonCloverOperator<double> op_d(geom, cb, gauge, p.mass, p.csw);
      tr.end(sb);
      build.push_back(tr.spans()[static_cast<std::size_t>(sb)].duration());
    }
    m.set("dirac.build_s", median(build));
    const lqcd::WilsonCloverLinOp<double> linop(op);
    const TimedOperator a(linop, &tr);
    lqcd::BiCGstabParams bp;
    bp.tolerance = p.tolerance;
    bp.max_iterations = p.nondd_config().max_iterations;
    std::vector<double> iters;
    auto traced_solve = [&](std::uint64_t i, const FermionField<double>& b,
                            FermionField<double>& x) {
      SolverStats st;
      {
        ScopedSpan s(&tr, "solver.bicgstab");
        st = lqcd::bicgstab_solve(a, b, x, bp);
      }
      check_solve(acc, st, op, b, x, p.tolerance,
                  fmt("traced bicgstab solve of source %llu",
                      static_cast<unsigned long long>(i)));
      return st;
    };
    std::vector<double> traced_t, plain_t;
    paired_loop(geom, o.seed, o.seconds, traced_solve, solve, traced_t,
                plain_t, iters);
    const bool identical = same_solution(geom, o.seed, traced_solve, solve);
    const Ceilings ceil = measure_ceilings();
    layer_metrics_from_spans(tr, geom.volume(),
                             lqcd::SchwarzStats{}, 0, ceil, m);
    m.set("solver.bicgstab.iterations", median(iters));
    m.set("solver.bicgstab.iterations_spread",
          *std::max_element(iters.begin(), iters.end()) -
              *std::min_element(iters.begin(), iters.end()));
    m.set("run.trace_overhead_frac", median(traced_t) / median(plain_t) - 1.0);
    m.set("solver.repro.distinct_solutions",
          distinct_solutions(geom, o.seed, [&](const auto& b, auto& x) {
            solve(0, b, x);
          }));
    dd_probe(geom, gauge, p, o.seed, ceil, acc, m, notes);
    m.set("dirac.build_s", median(build));  // this workload's own build
    service_probe(geom, gauge, p, o.seed, op, acc, m);
    notes.push_back(fmt(
        "fidelity: traced BiCGstab vs NonDDSolver::solve at %d threads: %s",
        omp_threads(), identical ? "bit-identical" : "differs"));
    notes.push_back(fmt(
        "samples: %zu traced solves (median %.4f s), %zu untraced (median "
        "%.4f s)",
        traced_t.size(), median(traced_t), plain_t.size(), median(plain_t)));
    finish_trace(o, p, tr, ceil, m, notes);
  }
  return finish_run(o, acc, m, std::move(notes));
}

// ---------------------------------------------------------------------------
// farm_mixed

/// Closed loop of one client keeping kFarmInFlight requests in the
/// service until `seconds` have passed and the tail has enough samples,
/// then draining. Configurations follow a smooth weighted round-robin of
/// period 20 (12/5/3 = 60/25/15 %), entered at a seeded offset.
std::vector<FarmRecord> farm_loop(
    lqcd::SolverService& svc, const Geometry& geom,
    const std::vector<lqcd::GaugeField<double>>& gauges, const Problem& p,
    std::uint64_t seed, double seconds, std::size_t min_samples,
    double& window_s) {
  int credit[kFarmConfigs] = {};
  auto next_config = [&]() {
    int best = 0, total = 0;
    for (int c = 0; c < kFarmConfigs; ++c) {
      credit[c] += kFarmBlock[c];
      total += kFarmBlock[c];
      if (credit[c] > credit[best]) best = c;
    }
    credit[best] -= total;
    return best;
  };
  for (std::uint64_t k = derive_seed(seed, 3, 0) % 20; k > 0; --k)
    next_config();
  std::vector<FarmRecord> done;
  std::vector<std::pair<FarmRecord, std::future<lqcd::SolveResult>>> flight;
  std::uint64_t next_source = 0;
  const double start = now_s();
  auto open = [&]() {
    return now_s() - start < seconds ||
           done.size() + flight.size() < min_samples;
  };
  while (open() || !flight.empty()) {
    while (open() && flight.size() < static_cast<std::size_t>(kFarmInFlight)) {
      FarmRecord r;
      const int c = next_config();
      auto fut = submit_request(svc, geom, gauges[static_cast<std::size_t>(c)],
                                c, p, seed, next_source++, r);
      flight.emplace_back(std::move(r), std::move(fut));
    }
    bool any = false;
    for (std::size_t i = 0; i < flight.size();) {
      auto& f = flight[i].second;
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        FarmRecord r = std::move(flight[i].first);
        r.ready_at = now_s();
        r.result = f.get();
        done.push_back(std::move(r));
        flight.erase(flight.begin() + static_cast<std::ptrdiff_t>(i));
        any = true;
      } else {
        ++i;
      }
    }
    if (!any && !flight.empty())
      flight.front().second.wait_for(std::chrono::milliseconds(1));
  }
  window_s = now_s() - start;
  return done;
}

RunReport run_farm(const RunOptions& o) {
  Accounting acc;
  MetricSet m;
  const Problem p;
  const DDSolverConfig cfg = p.dd_config();
  const Geometry geom(p.dims);
  const double tail_p = tail_percentile(o.workload);
  std::vector<lqcd::GaugeField<double>> gauges;
  for (int c = 0; c < kFarmConfigs; ++c)
    gauges.push_back(make_gauge(geom, p, o.seed, static_cast<std::uint64_t>(c)));
  // The benchmark's own operators for the independent residual check.
  const lqcd::Checkerboard cb(geom);
  std::vector<std::unique_ptr<lqcd::WilsonCloverOperator<double>>> check_ops;
  for (const auto& u : gauges)
    check_ops.push_back(std::make_unique<lqcd::WilsonCloverOperator<double>>(
        geom, cb, u, p.mass, p.csw));

  // Set-up: what a cache miss builds, per configuration.
  std::vector<double> setup_t;
  double ws = 0;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto& u = gauges[static_cast<std::size_t>(k % kFarmConfigs)];
    const double t0 = now_s();
    auto s = DDSolverSetup::make_owning(geom, u, p.mass, p.csw, cfg);
    DDSolver solver(s, cfg);
    setup_t.push_back(now_s() - t0);
    ws = dd_working_set_bytes(*s);
  }
  m.set("setup_s", median(setup_t));
  auto notes = context_lines(o, p, ws);

  lqcd::SolverServiceConfig sc;
  sc.solver = cfg;
  sc.setup_cache_capacity = kFarmCacheCapacity;
  sc.worker_threads = 1;
  const int lanes = sc.batch.max_lanes;
  lqcd::SolverService svc(sc);

  auto check_records = [&](const std::vector<FarmRecord>& recs) {
    for (const auto& r : recs) {
      const auto b = make_source(geom, o.seed, r.source);
      check_solve(acc, r.result.stats,
                  *check_ops[static_cast<std::size_t>(r.config)], b,
                  r.result.solution, p.tolerance,
                  fmt("farm request %llu (configuration %d)",
                      static_cast<unsigned long long>(r.source), r.config));
    }
  };

  // Warm-up: one full batch per configuration, so every configuration has
  // been built once and the process has reached its steady footprint.
  {
    const double t0 = now_s();
    std::vector<FarmRecord> warm;
    std::vector<std::future<lqcd::SolveResult>> futs;
    std::uint64_t src = 1ull << 40;
    for (int c = 0; c < kFarmConfigs; ++c)
      for (int l = 0; l < lanes; ++l) {
        FarmRecord r;
        futs.push_back(submit_request(svc, geom,
                                      gauges[static_cast<std::size_t>(c)], c,
                                      p, o.seed, src++, r));
        warm.push_back(std::move(r));
      }
    for (std::size_t i = 0; i < futs.size(); ++i) warm[i].result = futs[i].get();
    m.set("run.warmup_s", now_s() - t0);
    check_records(warm);
  }

  const lqcd::ServiceStats before = svc.stats();
  double window = 0;
  const auto recs = farm_loop(svc, geom, gauges, p, o.seed, o.seconds,
                              samples_for_tail(tail_p, kTailBeyond), window);
  const lqcd::ServiceStats after = svc.stats();
  check_records(recs);
  acc.check(after.completed - before.completed == recs.size(),
            "every submitted request completed");

  std::vector<double> latency, solve_t;
  for (const auto& r : recs) {
    latency.push_back(r.ready_at - r.submit_at);
    solve_t.push_back(r.result.solve_seconds);
  }
  const double batches = static_cast<double>(after.batches - before.batches);
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  const double mean_lanes =
      batches > 0
          ? static_cast<double>(after.lanes_solved - before.lanes_solved) /
                batches
          : 0.0;
  notes.push_back(fmt(
      "farm: %zu requests in %.2f s, %d in flight, %.0f batches (%.0f "
      "partial), mean %.2f lanes, cache %.0f hits / %.0f misses",
      recs.size(), window, kFarmInFlight, batches,
      static_cast<double>(after.partial_batches - before.partial_batches),
      mean_lanes, hits, misses));

  if (!o.trace) {
    m.set("solve_s", median(solve_t));
    m.set("rhs_per_s", static_cast<double>(recs.size()) / window);
    m.set("latency_p50_s", median(latency));
    m.set("latency_tail_s", percentile(latency, tail_p));
    notes.push_back(fmt(
        "samples: latency n=%zu, latency_tail_s = p%.0f with %zu beyond; "
        "solve_s = median batch solve time over n=%zu requests",
        latency.size(), tail_p, samples_beyond(latency.size(), tail_p),
        solve_t.size()));
  } else {
    // Replay of one full-width batch on configuration 0 through the
    // pipeline with and without spans (two rounds; the second, with both
    // warm, counts), and through DDSolver::solve_batch for fidelity. No
    // recycle space is carried in: at this mass every solve converges
    // inside the first FGMRES-DR cycle, so no deflation subspace is ever
    // harvested and every service batch takes this cold path (lane 0
    // alone, then the rest in lockstep).
    Tracer tr;
    auto setup = std::make_shared<DDSolverSetup>(geom, gauges[0], p.mass,
                                                 p.csw, cfg);
    DDSolver solver(setup, cfg);
    TracedPipeline traced(setup, cfg, &tr), bare(setup, cfg, nullptr);
    std::vector<FermionField<double>> b;
    for (int l = 0; l < lanes; ++l)
      b.push_back(make_source(geom, o.seed, (1ull << 42) + l));
    const std::vector<FermionField<double>> zeros(
        b.size(), FermionField<double>(geom.volume()));
    auto x_ref = zeros, x_tr = zeros;
    std::vector<SolverStats> tr_st;
    double plain_s = 0, traced_s = 0;
    for (int round = 0; round < 2; ++round) {
      auto x_bare = zeros;
      x_tr = zeros;
      tr.clear();
      traced.schwarz().reset_stats();
      lqcd::DeflationSpace<double> s1, s2;
      double t0 = now_s();
      bare.solve_batch(b, x_bare, s1);
      plain_s = now_s() - t0;
      t0 = now_s();
      tr_st = traced.solve_batch(b, x_tr, s2);
      traced_s = now_s() - t0;
    }
    const auto ref_st = solver.solve_batch(b, x_ref);
    bool identical = true;
    std::vector<double> iters, matvecs, sums;
    int projections = 0;
    for (std::size_t l = 0; l < b.size(); ++l) {
      check_solve(acc, tr_st[l], setup->op_d(), b[l], x_tr[l], p.tolerance,
                  fmt("replayed lane %zu", l));
      check_solve(acc, ref_st[l], setup->op_d(), b[l], x_ref[l], p.tolerance,
                  fmt("reference lane %zu", l));
      identical = identical && bit_equal(x_tr[l], x_ref[l]) &&
                  tr_st[l].iterations == ref_st[l].iterations;
      iters.push_back(tr_st[l].iterations);
      matvecs.push_back(static_cast<double>(tr_st[l].matvecs));
      sums.push_back(static_cast<double>(tr_st[l].global_sum_events));
      projections += tr_st[l].recycle_projections;
    }
    const Ceilings ceil = measure_ceilings();
    layer_metrics_from_spans(tr, geom.volume(), traced.schwarz().stats(),
                             traced.schwarz().domain_matrix_bytes(), ceil, m);
    m.set("solver.outer.iterations", median(iters));
    m.set("solver.outer.matvecs", median(matvecs));
    m.set("solver.outer.global_sum_events", median(sums));
    m.set("solver.outer.recycle_projections", projections);
    m.set("run.trace_overhead_frac", traced_s / plain_s - 1.0);
    probe_schwarz(traced, b[0], m, notes);
    notes.push_back(fmt(
        "fidelity: replayed %d-lane batch vs DDSolver::solve_batch at %d "
        "threads: %s (replay %.3f s traced, %.3f s untraced)",
        lanes, omp_threads(), identical ? "bit-identical" : "differs",
        traced_s, plain_s));

    // Set-up by parts (what a miss rebuilds), then the service spans,
    // reconstructed from the client's clock and each result's own
    // queue/solve timings.
    traced_dd_setup(geom, gauges[0], p, tr, m);
    for (const auto& r : recs) {
      const auto id = static_cast<std::int64_t>(r.result.id);
      const int root =
          tr.add("service.request", r.submit_at, r.ready_at, -1, id);
      tr.add("service.submit", r.submit_at, r.submit_at + r.submit_call_s,
             root, id);
      tr.add(r.result.setup_cache_hit ? "service.queue.hit"
                                      : "service.queue.miss",
             r.submit_at, r.submit_at + r.result.queue_seconds, root, id);
      tr.add("service.batch_solve",
             r.submit_at + r.result.total_seconds - r.result.solve_seconds,
             r.submit_at + r.result.total_seconds, root, id);
    }
    service_metrics(recs, before, after, m);
    bicgstab_probe(geom, *check_ops[0], p, o.seed, acc, m);
    finish_trace(o, p, tr, ceil, m, notes);
  }
  svc.shutdown();
  return finish_run(o, acc, m, std::move(notes));
}

}  // namespace

RunReport run_workload(const RunOptions& opt) {
  if (opt.workload == "dd_single") return run_dd_single(opt);
  if (opt.workload == "nondd_bicgstab") return run_nondd(opt);
  if (opt.workload == "farm_mixed") return run_farm(opt);
  throw lqcd::Error("unknown workload '" + opt.workload + "'");
}

}  // namespace perfbench
