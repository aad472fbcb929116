// Timing decorators around the library's public layer interfaces, and
// the DD solve rebuilt from public parts so each layer can be timed.
//
// Every decorator forwards to the object it wraps and records one span
// per call; with a null tracer it only forwards. The rebuilt pipeline
// runs exactly the calls DDSolver::solve / solve_batch make (same
// objects, same order), so at one thread it reproduces them bit for bit.
#pragma once

#include <memory>
#include <vector>

#include "lqcd/core/dd_solver.h"
#include "trace.h"

namespace perfbench {

using lqcd::FermionField;

/// A: the double-precision outer operator.
class TimedOperator final : public lqcd::LinearOperator<double> {
 public:
  TimedOperator(const lqcd::LinearOperator<double>& inner, Tracer* t)
      : inner_(&inner), t_(t) {}
  void apply(const FermionField<double>& in,
             FermionField<double>& out) const override {
    ScopedSpan s(t_, "dirac.A");
    inner_->apply(in, out);
  }
  std::int64_t vector_size() const override { return inner_->vector_size(); }

 private:
  const lqcd::LinearOperator<double>* inner_;
  Tracer* t_;
};

/// M: the float Schwarz preconditioner, single or batched.
class TimedPreconditioner final : public lqcd::BatchPreconditioner<float> {
 public:
  TimedPreconditioner(lqcd::BatchPreconditioner<float>& inner, Tracer* t)
      : inner_(&inner), t_(t) {}
  void apply(const FermionField<float>& in,
             FermionField<float>& out) override {
    ScopedSpan s(t_, "schwarz.M");
    inner_->apply(in, out);
  }
  void apply_batch(const std::vector<const FermionField<float>*>& in,
                   const std::vector<FermionField<float>*>& out) override {
    ScopedSpan s(t_, "schwarz.M");
    inner_->apply_batch(in, out);
  }

 private:
  lqcd::BatchPreconditioner<float>* inner_;
  Tracer* t_;
};

/// The double<->float bridge (SchwarzPrecondAdapter) around M.
class TimedBridge final : public lqcd::BatchPreconditioner<double> {
 public:
  TimedBridge(lqcd::BatchPreconditioner<double>& inner, Tracer* t)
      : inner_(&inner), t_(t) {}
  void apply(const FermionField<double>& in,
             FermionField<double>& out) override {
    ScopedSpan s(t_, "linalg.convert");
    inner_->apply(in, out);
  }
  void apply_batch(const std::vector<const FermionField<double>*>& in,
                   const std::vector<FermionField<double>*>& out) override {
    ScopedSpan s(t_, "linalg.convert");
    inner_->apply_batch(in, out);
  }

 private:
  lqcd::BatchPreconditioner<double>* inner_;
  Tracer* t_;
};

/// DDSolver's solve path assembled from its public parts on a shared
/// DDSolverSetup: WilsonCloverLinOp -> A, SchwarzPreconditioner<Half> on
/// setup->schwarz_half() -> M, SchwarzPrecondAdapter -> bridge, driven
/// by fgmres_dr_solve (single RHS) or FgmresDrEngine lanes (batch).
/// Requires a setup built with half-precision matrices and resilience off.
class TracedPipeline {
 public:
  TracedPipeline(std::shared_ptr<lqcd::DDSolverSetup> setup,
                 const lqcd::DDSolverConfig& config, Tracer* t);
  TracedPipeline(const TracedPipeline&) = delete;
  TracedPipeline& operator=(const TracedPipeline&) = delete;

  /// DDSolver::solve: one FGMRES-DR solve inside a "solver.outer" span.
  lqcd::SolverStats solve(const FermionField<double>& b,
                          FermionField<double>& x);

  /// DDSolver::solve_batch with a caller-held recycle space: when
  /// `recycle` is valid every lane runs in lockstep from the first M
  /// application (the service's warm path); otherwise lane 0 is solved
  /// alone first and seeds it. One "solver.outer" span covers the call.
  std::vector<lqcd::SolverStats> solve_batch(
      const std::vector<FermionField<double>>& b,
      std::vector<FermionField<double>>& x,
      lqcd::DeflationSpace<double>& recycle);

  lqcd::SchwarzPreconditioner<lqcd::Half>& schwarz() noexcept { return *m_; }

 private:
  lqcd::FGMRESDRParams outer_params() const;

  std::shared_ptr<lqcd::DDSolverSetup> setup_;
  lqcd::DDSolverConfig config_;
  Tracer* t_;
  lqcd::WilsonCloverLinOp<double> linop_;
  TimedOperator a_;
  std::unique_ptr<lqcd::SchwarzPreconditioner<lqcd::Half>> m_;
  TimedPreconditioner timed_m_;
  lqcd::SchwarzPrecondAdapter adapter_;
  TimedBridge bridge_;
};

}  // namespace perfbench
