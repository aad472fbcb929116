#include "layers.h"

namespace perfbench {

namespace {

lqcd::SchwarzParams schwarz_params(const lqcd::DDSolverConfig& c) {
  lqcd::SchwarzParams sp;
  sp.schwarz_iterations = c.schwarz_iterations;
  sp.block_mr_iterations = c.block_mr_iterations;
  sp.additive = c.additive_schwarz;
  sp.half_precision_spinors = c.half_precision_spinors;
  return sp;
}

}  // namespace

TracedPipeline::TracedPipeline(std::shared_ptr<lqcd::DDSolverSetup> setup,
                               const lqcd::DDSolverConfig& config, Tracer* t)
    : setup_(std::move(setup)),
      config_(config),
      t_(t),
      linop_(setup_->op_d()),
      a_(linop_, t),
      m_(std::make_unique<lqcd::SchwarzPreconditioner<lqcd::Half>>(
          setup_->schwarz_half(), schwarz_params(config))),
      timed_m_(*m_, t),
      adapter_(timed_m_, setup_->geometry().volume()),
      bridge_(adapter_, t) {
  LQCD_CHECK_MSG(config.half_precision_matrices && !config.resilience.enabled,
                 "the traced pipeline mirrors the half-precision, "
                 "resilience-off solve path only");
}

lqcd::FGMRESDRParams TracedPipeline::outer_params() const {
  lqcd::FGMRESDRParams p;
  p.basis_size = config_.basis_size;
  p.deflation_size = config_.deflation_size;
  p.tolerance = config_.tolerance;
  p.max_iterations = config_.max_iterations;
  p.stagnation_threshold = config_.stagnation_threshold;
  p.max_stagnant_cycles = config_.max_stagnant_cycles;
  return p;
}

lqcd::SolverStats TracedPipeline::solve(const FermionField<double>& b,
                                        FermionField<double>& x) {
  ScopedSpan s(t_, "solver.outer");
  return lqcd::fgmres_dr_solve<double>(a_, &bridge_, b, x, outer_params());
}

std::vector<lqcd::SolverStats> TracedPipeline::solve_batch(
    const std::vector<FermionField<double>>& b,
    std::vector<FermionField<double>>& x,
    lqcd::DeflationSpace<double>& recycle) {
  LQCD_CHECK_MSG(!b.empty() && b.size() == x.size(),
                 "solve_batch needs matching, non-empty b/x");
  ScopedSpan s(t_, "solver.outer");
  const int nrhs = static_cast<int>(b.size());
  std::vector<lqcd::SolverStats> out(b.size());
  const lqcd::FGMRESDRParams params = outer_params();
  int first = 0;
  if (!recycle.valid()) {
    out[0] = lqcd::fgmres_dr_solve<double>(a_, &bridge_, b[0], x[0], params,
                                           nullptr, &recycle);
    first = 1;
  }
  std::vector<std::unique_ptr<lqcd::FgmresDrEngine<double>>> lanes;
  for (int i = first; i < nrhs; ++i)
    lanes.push_back(std::make_unique<lqcd::FgmresDrEngine<double>>(
        a_, b[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)],
        params, nullptr, &recycle));
  std::vector<const FermionField<double>*> pin;
  std::vector<FermionField<double>*> pout;
  std::vector<lqcd::FgmresDrEngine<double>*> active;
  for (;;) {
    pin.clear();
    pout.clear();
    active.clear();
    for (auto& e : lanes) {
      if (e->done()) continue;
      active.push_back(e.get());
      pin.push_back(&e->precond_input());
      pout.push_back(&e->precond_output());
    }
    if (active.empty()) break;
    bridge_.apply_batch(pin, pout);
    for (auto* e : active) {
      e->note_precond_application();
      e->advance();
    }
  }
  for (std::size_t i = 0; i < lanes.size(); ++i)
    out[static_cast<std::size_t>(first) + i] = lanes[i]->finish();
  return out;
}

}  // namespace perfbench
