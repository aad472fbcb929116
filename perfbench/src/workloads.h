// The benchmark's problem definition and its three workloads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layers.h"
#include "lqcd/core/nondd_solver.h"

namespace perfbench {

/// The solved system, identical for every workload: an 8^4 lattice,
/// disorder-0.25 synthetic gauge fields with antiperiodic time boundary,
/// Wilson-Clover mass -0.40, csw 1, relative residual 1e-10.
struct Problem {
  lqcd::Coord dims = {8, 8, 8, 8};
  double disorder = 0.25;
  double mass = -0.40;
  double csw = 1.0;
  double tolerance = 1e-10;
  lqcd::DDSolverConfig dd_config() const;
  lqcd::NonDDSolverConfig nondd_config() const;
};

/// Gauge configuration `index` of the run seeded with `seed`.
lqcd::GaugeField<double> make_gauge(const lqcd::Geometry& geom,
                                    const Problem& p, std::uint64_t seed,
                                    std::uint64_t index);
/// Source `index` (a Gaussian field) of the run seeded with `seed`.
FermionField<double> make_source(const lqcd::Geometry& geom,
                                 std::uint64_t seed, std::uint64_t index);

/// True relative residual |b - A x| / |b| with the double operator.
double true_residual(const lqcd::WilsonCloverOperator<double>& op,
                     const FermionField<double>& b,
                     const FermionField<double>& x);

/// Bitwise equality of two fields.
bool bit_equal(const FermionField<double>& a, const FermionField<double>& b);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where spans are written; empty = nowhere
};

struct RunReport {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< context and model lines, printed
};

/// Run one workload; throws lqcd::Error on an unknown name.
RunReport run_workload(const RunOptions& opt);

}  // namespace perfbench
