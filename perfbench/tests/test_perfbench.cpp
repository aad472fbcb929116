// Tests of the benchmark's own machinery: the order statistics and tail
// rule it reports, the self-time subtraction of the span tree, and the
// fidelity of the traced pipeline, which must reproduce DDSolver's solves
// bit for bit at one thread.
#include <gtest/gtest.h>

#include "layers.h"
#include "trace.h"
#include "workloads.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {
namespace {

TEST(OrderStatistics, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(OrderStatistics, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 40; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 75), 30.0);
  EXPECT_EQ(percentile(v, 50), 20.0);
  EXPECT_EQ(percentile(v, 100), 40.0);
  EXPECT_EQ(percentile(v, 0), 1.0);
  EXPECT_EQ(percentile({7.0}, 90), 7.0);
}

TEST(OrderStatistics, TailRuleKeepsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(40, 75), 10u);
  EXPECT_EQ(samples_beyond(39, 75), 9u);
  EXPECT_EQ(samples_for_tail(75, 10), 40u);
  EXPECT_EQ(samples_for_tail(50, 10), 20u);
  EXPECT_EQ(samples_for_tail(90, 10), 100u);
  for (const double p : {50.0, 60.0, 75.0, 80.0, 90.0}) {
    const std::size_t n = samples_for_tail(p, 10);
    EXPECT_GE(samples_beyond(n, p), 10u) << p;
    EXPECT_LT(samples_beyond(n - 1, p), 10u) << p;
  }
}

TEST(SelfTime, SubtractsTheUnionOfChildIntervals) {
  Tracer t;
  const int root = t.add("root", 0.0, 10.0, -1, 7);
  t.add("a", 1.0, 3.0, root, 7);
  t.add("b", 2.0, 5.0, root, 7);   // overlaps a: the union counts once
  t.add("c", 8.0, 12.0, root, 7);  // clipped to the parent's end
  t.add("d", 3.5, 4.0, 2, 7);  // grandchild, under b
  const auto self = self_times(t.spans());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 2.0));
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
  const auto tot = totals_by_name(t.spans());
  EXPECT_EQ(tot.at("root").calls, 1);
  EXPECT_DOUBLE_EQ(tot.at("b").total_s, 3.0);
  EXPECT_DOUBLE_EQ(tot.at("b").self_s, 2.5);
}

TEST(SelfTime, NestedScopedSpansRecordTheirParent) {
  Tracer t;
  {
    ScopedSpan outer(&t, "outer");
    { ScopedSpan inner(&t, "inner", 3); }
    { ScopedSpan inner(&t, "inner", 4); }
  }
  ScopedSpan none(nullptr, "ignored");
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 0);
  EXPECT_EQ(t.spans()[2].request, 4);
  for (const Span& s : t.spans()) EXPECT_GE(s.end, s.start);
}

/// The benchmark's own problem, at one thread.
class PipelineFidelity : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef _OPENMP
    threads_ = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
    geom_ = std::make_unique<lqcd::Geometry>(p_.dims);
    gauge_ = std::make_unique<lqcd::GaugeField<double>>(
        make_gauge(*geom_, p_, 11, 0));
    setup_ = std::make_shared<lqcd::DDSolverSetup>(*geom_, *gauge_, p_.mass,
                                                   p_.csw, p_.dd_config());
  }
  void TearDown() override {
#ifdef _OPENMP
    omp_set_num_threads(threads_);
#endif
  }
  std::vector<FermionField<double>> sources(int n, std::uint64_t first) {
    std::vector<FermionField<double>> b;
    for (int i = 0; i < n; ++i)
      b.push_back(make_source(*geom_, 11, first + static_cast<std::uint64_t>(i)));
    return b;
  }
  std::vector<FermionField<double>> zeros(std::size_t n) {
    return std::vector<FermionField<double>>(
        n, FermionField<double>(geom_->volume()));
  }

  int threads_ = 1;
  Problem p_;
  std::unique_ptr<lqcd::Geometry> geom_;
  std::unique_ptr<lqcd::GaugeField<double>> gauge_;
  std::shared_ptr<lqcd::DDSolverSetup> setup_;
};

TEST_F(PipelineFidelity, TracedSolveIsBitIdenticalToDDSolverSolve) {
  lqcd::DDSolver solver(setup_, p_.dd_config());
  Tracer tr;
  TracedPipeline pipe(setup_, p_.dd_config(), &tr);
  const auto b = sources(1, 0);
  FermionField<double> x_ref(geom_->volume()), x(geom_->volume());
  const auto ref = solver.solve(b[0], x_ref);
  const auto st = pipe.solve(b[0], x);
  ASSERT_TRUE(ref.converged);
  EXPECT_EQ(st.iterations, ref.iterations);
  EXPECT_EQ(st.matvecs, ref.matvecs);
  EXPECT_TRUE(bit_equal(x, x_ref));
  EXPECT_LE(true_residual(setup_->op_d(), b[0], x), p_.tolerance);

  // A, M, bridge and outer self times add up to the traced total, and
  // the span counts match the solver's own operation counts.
  const auto tot = totals_by_name(tr.spans());
  const double sum = tot.at("dirac.A").self_s + tot.at("schwarz.M").self_s +
                     tot.at("linalg.convert").self_s +
                     tot.at("solver.outer").self_s;
  EXPECT_NEAR(sum, tot.at("solver.outer").total_s, 1e-9);
  EXPECT_EQ(tot.at("dirac.A").calls, st.matvecs);
  EXPECT_EQ(tot.at("schwarz.M").calls, st.precond_applications);
  EXPECT_EQ(tot.at("linalg.convert").calls, st.precond_applications);
  EXPECT_EQ(pipe.schwarz().stats().applications, st.precond_applications);
}

TEST_F(PipelineFidelity, ReplayedColdBatchIsBitIdenticalToSolveBatch) {
  lqcd::DDSolver solver(setup_, p_.dd_config());
  TracedPipeline pipe(setup_, p_.dd_config(), nullptr);
  const auto b = sources(3, 10);
  auto x_ref = zeros(b.size()), x = zeros(b.size());
  const auto ref = solver.solve_batch(b, x_ref);
  lqcd::DeflationSpace<double> space;
  const auto st = pipe.solve_batch(b, x, space);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_TRUE(ref[i].converged) << i;
    EXPECT_EQ(st[i].iterations, ref[i].iterations) << i;
    EXPECT_TRUE(bit_equal(x[i], x_ref[i])) << i;
  }
}

TEST_F(PipelineFidelity, ReplayedWarmBatchIsBitIdenticalToSolveBatch) {
  // The benchmark's own problem converges inside one FGMRES-DR cycle, so
  // it never harvests a deflation subspace; a 6-vector basis restarts and
  // makes the warm (recycled, all-lanes-lockstep) path reachable.
  lqcd::DDSolverConfig cfg = p_.dd_config();
  cfg.basis_size = 6;
  cfg.deflation_size = 2;
  lqcd::DDSolver solver(setup_, cfg);
  lqcd::RecycleCache seeded;
  seeded.gauge_key = setup_->gauge_checksum();
  {
    auto b0 = sources(1, 20);
    auto x0 = zeros(1);
    lqcd::BatchSolveOptions opt;
    opt.recycle = &seeded;
    solver.solve_batch(b0, x0, opt);
  }
  ASSERT_TRUE(seeded.space.valid());
  const auto b = sources(2 * lqcd::kRhsSimdWidth, 30);
  lqcd::RecycleCache ref_cache = seeded;
  lqcd::BatchSolveOptions opt;
  opt.recycle = &ref_cache;
  auto x_ref = zeros(b.size()), x = zeros(b.size());
  const auto ref = solver.solve_batch(b, x_ref, opt);

  Tracer tr;
  TracedPipeline pipe(setup_, cfg, &tr);
  lqcd::DeflationSpace<double> space = seeded.space;
  const auto st = pipe.solve_batch(b, x, space);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_TRUE(ref[i].converged) << i;
    EXPECT_EQ(st[i].iterations, ref[i].iterations) << i;
    EXPECT_EQ(st[i].recycle_projections, 1) << i;
    EXPECT_TRUE(bit_equal(x[i], x_ref[i])) << i;
  }
  // Every lane ran in lockstep: one batched M call per outer step.
  const auto tot = totals_by_name(tr.spans());
  int max_apps = 0;
  for (const auto& s : st)
    max_apps = std::max(max_apps, static_cast<int>(s.precond_applications));
  EXPECT_EQ(tot.at("schwarz.M").calls, max_apps);
  const double sum = tot.at("dirac.A").self_s + tot.at("schwarz.M").self_s +
                     tot.at("linalg.convert").self_s +
                     tot.at("solver.outer").self_s;
  EXPECT_NEAR(sum, tot.at("solver.outer").total_s, 1e-9);
}

TEST(Inputs, SeedDeterminesEveryInput) {
  const Problem p;
  const lqcd::Geometry geom({8, 8, 8, 8});
  const auto a = make_source(geom, 5, 3), b = make_source(geom, 5, 3),
             c = make_source(geom, 6, 3), d = make_source(geom, 5, 4);
  EXPECT_TRUE(bit_equal(a, b));
  EXPECT_FALSE(bit_equal(a, c));
  EXPECT_FALSE(bit_equal(a, d));
  const auto u1 = make_gauge(geom, p, 5, 0), u2 = make_gauge(geom, p, 5, 0),
             u3 = make_gauge(geom, p, 5, 1);
  EXPECT_EQ(u1.content_checksum(), u2.content_checksum());
  EXPECT_NE(u1.content_checksum(), u3.content_checksum());
}

}  // namespace
}  // namespace perfbench
