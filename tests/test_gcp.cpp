// Tests for the Poisson (KL) NTF solver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "cstf/metrics.hpp"
#include "gcp/poisson_ntf.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

// Counts sampled from a planted non-negative low-rank rate tensor, fully
// observed (zero counts dropped — they carry no KL log term, and the model
// mass accounts for them).
struct CountData {
  SparseTensor counts;
  std::vector<Matrix> rate_factors;
};

CountData make_count_data(std::vector<index_t> dims, index_t rank,
                          std::uint64_t seed, double rate_scale = 10.0) {
  Rng rng(seed);
  CountData data;
  for (index_t dim : dims) {
    Matrix f(dim, rank);
    f.fill_uniform(rng, 0.1, 1.0);
    data.rate_factors.push_back(std::move(f));
  }
  SparseTensor counts(dims);
  const int modes = static_cast<int>(dims.size());
  index_t coords[kMaxModes];
  double cells = 1.0;
  for (index_t d : dims) cells *= static_cast<double>(d);
  for (index_t lin = 0; lin < static_cast<index_t>(cells); ++lin) {
    index_t rem = lin;
    for (int m = 0; m < modes; ++m) {
      coords[m] = rem % dims[static_cast<std::size_t>(m)];
      rem /= dims[static_cast<std::size_t>(m)];
    }
    real_t rate = 0.0;
    for (index_t r = 0; r < rank; ++r) {
      real_t prod = rate_scale;
      for (int m = 0; m < modes; ++m) {
        prod *= data.rate_factors[static_cast<std::size_t>(m)](coords[m], r);
      }
      rate += prod;
    }
    const auto count = static_cast<real_t>(rng.poisson(rate));
    if (count > 0.0) counts.append(coords, count);
  }
  counts.sort_by_mode(0);
  data.counts = std::move(counts);
  return data;
}

TEST(RngPoisson, MeanAndVarianceMatchRate) {
  Rng rng(1);
  for (double rate : {0.5, 4.0, 50.0}) {
    double sum = 0.0, sum_sq = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
      const double x = static_cast<double>(rng.poisson(rate));
      sum += x;
      sum_sq += x * x;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, rate, 0.1 * rate + 0.05) << "rate " << rate;
    EXPECT_NEAR(var, rate, 0.2 * rate + 0.1) << "rate " << rate;
  }
}

TEST(RngPoisson, ZeroRateAlwaysZero) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(PoissonNtf, ObjectiveDecreasesMonotonically) {
  const CountData data = make_count_data({15, 12, 10}, 3, 3);
  PoissonNtfOptions opt;
  opt.rank = 4;
  opt.max_iterations = 15;
  PoissonNtf solver(data.counts, opt);
  const PoissonNtfResult result = solver.run();
  ASSERT_GE(result.objective_history.size(), 2u);
  for (std::size_t i = 1; i < result.objective_history.size(); ++i) {
    EXPECT_LE(result.objective_history[i],
              result.objective_history[i - 1] + 1e-6)
        << "iteration " << i;
  }
}

TEST(PoissonNtf, FactorsStayNonNegative) {
  const CountData data = make_count_data({12, 10, 8}, 2, 4);
  PoissonNtfOptions opt;
  opt.rank = 3;
  opt.max_iterations = 10;
  PoissonNtf solver(data.counts, opt);
  solver.run();
  for (const Matrix& f : solver.factors()) {
    for (index_t i = 0; i < f.size(); ++i) EXPECT_GE(f.data()[i], 0.0);
  }
}

TEST(PoissonNtf, RecoversPlantedRateStructure) {
  const CountData data = make_count_data({20, 16, 12}, 2, 5, 20.0);
  PoissonNtfOptions opt;
  opt.rank = 2;
  opt.max_iterations = 120;
  opt.tolerance = 1e-9;
  PoissonNtf solver(data.counts, opt);
  solver.run();
  KTensor truth;
  truth.factors = data.rate_factors;
  truth.lambda.assign(2, 1.0);
  // Congruence only (scale lives arbitrarily in the Poisson magnitudes):
  // each recovered component matches some planted component directionally.
  const KTensor got = solver.ktensor();
  for (index_t r = 0; r < 2; ++r) {
    double best = 0.0;
    for (index_t s = 0; s < 2; ++s) {
      best = std::max(best, component_congruence(got, r, truth, s));
    }
    EXPECT_GT(best, 0.9) << "component " << r;
  }
}

TEST(PoissonNtf, RejectsNegativeCounts) {
  SparseTensor t({3, 3});
  t.append({0, 0}, -1.0);
  PoissonNtfOptions opt;
  EXPECT_THROW(PoissonNtf(t, opt), Error);
}

TEST(PoissonNtf, RejectsNonPositiveEpsilon) {
  SparseTensor t({3, 3});
  t.append({0, 0}, 1.0);
  PoissonNtfOptions zero;
  zero.epsilon = 0.0;  // would reintroduce log(0) / division by zero
  EXPECT_THROW(PoissonNtf(t, zero), Error);
  PoissonNtfOptions negative;
  negative.epsilon = -1e-12;
  EXPECT_THROW(PoissonNtf(t, negative), Error);
}

TEST(PoissonNtf, SetFactorsValidatesShapesAndSign) {
  SparseTensor t({2, 3});
  t.append({0, 0}, 1.0);
  PoissonNtfOptions opt;
  opt.rank = 2;
  PoissonNtf solver(t, opt);

  std::vector<Matrix> wrong_count;
  wrong_count.emplace_back(2, 2);
  EXPECT_THROW(solver.set_factors(std::move(wrong_count)), Error);

  std::vector<Matrix> wrong_shape;
  wrong_shape.emplace_back(2, 2);
  wrong_shape.emplace_back(3, 1);  // rank mismatch
  EXPECT_THROW(solver.set_factors(std::move(wrong_shape)), Error);

  std::vector<Matrix> negative;
  negative.emplace_back(2, 2);
  negative.emplace_back(3, 2);
  negative[0](1, 1) = -0.5;
  EXPECT_THROW(solver.set_factors(std::move(negative)), Error);
}

TEST(PoissonNtf, LossFloorGivesFiniteObjectiveOnZeroModelCell) {
  // One observed count x = 2 at (0,0,0) over a rank-1 model that is EXACTLY
  // zero there: without the floor the log term would be -inf. Hand-computed
  // boundary value:
  //   mass      = colsum(f0) * colsum(f1) * colsum(f2) = 0.5 * 0.25 * 0.125
  //   log term  = x * log(max(0, eps)) = 2 * log(1e-12)
  //   objective = mass - log term
  SparseTensor t({2, 2, 2});
  t.append({0, 0, 0}, 2.0);
  PoissonNtfOptions opt;
  opt.rank = 1;
  opt.epsilon = 1e-12;
  PoissonNtf solver(t, opt);

  Matrix f0(2, 1), f1(2, 1), f2(2, 1);
  f0(0, 0) = 0.0;   f0(1, 0) = 0.5;    // zero row at the observed index
  f1(0, 0) = 0.25;  f1(1, 0) = 0.0;
  f2(0, 0) = 0.125; f2(1, 0) = 0.0;
  std::vector<Matrix> factors;
  factors.push_back(std::move(f0));
  factors.push_back(std::move(f1));
  factors.push_back(std::move(f2));
  solver.set_factors(std::move(factors));

  const real_t expected =
      0.5 * 0.25 * 0.125 - 2.0 * std::log(real_t{1e-12});
  const real_t objective = solver.objective();
  EXPECT_TRUE(std::isfinite(objective));
  EXPECT_NEAR(objective, expected, 1e-9);

  // A larger floor changes exactly the log term: the floor IS the bound.
  PoissonNtfOptions coarse = opt;
  coarse.epsilon = 1e-6;
  PoissonNtf coarse_solver(t, coarse);
  Matrix g0(2, 1), g1(2, 1), g2(2, 1);
  g0(0, 0) = 0.0;   g0(1, 0) = 0.5;
  g1(0, 0) = 0.25;  g1(1, 0) = 0.0;
  g2(0, 0) = 0.125; g2(1, 0) = 0.0;
  std::vector<Matrix> same;
  same.push_back(std::move(g0));
  same.push_back(std::move(g1));
  same.push_back(std::move(g2));
  coarse_solver.set_factors(std::move(same));
  EXPECT_NEAR(coarse_solver.objective(),
              0.5 * 0.25 * 0.125 - 2.0 * std::log(real_t{1e-6}), 1e-9);
}

TEST(PoissonNtf, RunsAreBitIdentical) {
  // The ratio MTTKRP accumulates through the scatter engine, not atomics, so
  // two runs agree bit for bit. About 20k nonzeros put every short-mode row
  // in many parallel ranges; the long mode resolves to the sorted strategy
  // once there are 16 private tiles (4 or more workers).
  SparseTensor counts({50, 40, 200000});
  Rng rng(11);
  index_t coords[3];
  for (int k = 0; k < 20000; ++k) {
    coords[0] = static_cast<index_t>(rng.uniform_index(50));
    coords[1] = static_cast<index_t>(rng.uniform_index(40));
    coords[2] = static_cast<index_t>(rng.uniform_index(200000));
    counts.append(coords, static_cast<real_t>(1 + rng.uniform_index(5)));
  }
  counts.sort_by_mode(0);
  counts.dedup_sum();
  ASSERT_GT(counts.nnz(), 16 * kParallelGrainDefault);

  PoissonNtfOptions opt;
  opt.rank = 4;
  opt.max_iterations = 3;
  PoissonNtf first(counts, opt);
  PoissonNtf second(counts, opt);
  const PoissonNtfResult a = first.run();
  const PoissonNtfResult b = second.run();
  ASSERT_EQ(a.objective_history.size(), b.objective_history.size());
  EXPECT_EQ(std::memcmp(a.objective_history.data(), b.objective_history.data(),
                        a.objective_history.size() * sizeof(real_t)),
            0);
  for (std::size_t m = 0; m < first.factors().size(); ++m) {
    const Matrix& fa = first.factors()[m];
    const Matrix& fb = second.factors()[m];
    ASSERT_TRUE(fa.same_shape(fb));
    EXPECT_EQ(std::memcmp(fa.data(), fb.data(),
                          static_cast<std::size_t>(fa.size()) * sizeof(real_t)),
              0)
        << "mode " << m << " factors differ bitwise";
  }
}

TEST(PoissonNtf, ConvergesWithToleranceEarlyExit) {
  const CountData data = make_count_data({10, 8, 6}, 2, 6);
  PoissonNtfOptions opt;
  opt.rank = 3;
  opt.max_iterations = 200;
  // KL-MU has a sublinear tail; a practical stopping tolerance is coarse.
  opt.tolerance = 1e-3;
  PoissonNtf solver(data.counts, opt);
  const PoissonNtfResult result = solver.run();
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 200);
}

}  // namespace
}  // namespace cstf
