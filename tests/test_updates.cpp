// Unit and property tests for the constrained update algorithms: proximity
// operators, ADMM in all four OF/PI configurations, blocked ADMM, MU, HALS,
// unconstrained ALS.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/timer.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "common/error.hpp"
#include "updates/admm.hpp"
#include "updates/admm_kernels.hpp"
#include "updates/als.hpp"
#include "updates/block_admm.hpp"
#include "updates/bpp.hpp"
#include "updates/bpp.hpp"
#include "updates/hals.hpp"
#include "updates/mu.hpp"

namespace cstf {
namespace {

// Builds a synthetic constrained least-squares instance: S = G^T G + I
// (SPD), M = H_true * S with non-negative H_true, so the unconstrained and
// non-negative optima coincide at H_true.
struct Instance {
  Matrix s, m, h_true;
};

Instance make_instance(index_t i_len, index_t rank, std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  Matrix g(2 * rank, rank);
  g.fill_normal(rng);
  inst.s.resize(rank, rank);
  la::gram(g, inst.s);
  la::add_diagonal(inst.s, 1.0);
  inst.h_true.resize(i_len, rank);
  inst.h_true.fill_uniform(rng, 0.0, 1.0);
  inst.m.resize(i_len, rank);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, inst.h_true, inst.s, 0.0, inst.m);
  return inst;
}

// MU is a true NMF method: it requires elementwise non-negative S and M
// (which cSTF guarantees — non-negative data and factors). This variant
// plants a fully non-negative instance.
Instance make_nonneg_instance(index_t i_len, index_t rank, std::uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  Matrix g(2 * rank, rank);
  g.fill_uniform(rng, 0.0, 1.0);
  inst.s.resize(rank, rank);
  la::gram(g, inst.s);
  la::add_diagonal(inst.s, 1.0);
  inst.h_true.resize(i_len, rank);
  inst.h_true.fill_uniform(rng, 0.0, 1.0);
  inst.m.resize(i_len, rank);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, inst.h_true, inst.s, 0.0, inst.m);
  return inst;
}

bool same_bits(real_t a, real_t b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(real_t)) == 0;
}

// Quadratic objective f(H) = 0.5*tr(H S H^T) - tr(H M^T); the quantity every
// update method is descending (up to its constraint).
real_t objective(const Matrix& s, const Matrix& m, const Matrix& h) {
  Matrix hs(h.rows(), h.cols());
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, h, s, 0.0, hs);
  real_t quad = 0.0, lin = 0.0;
  for (index_t i = 0; i < h.size(); ++i) {
    quad += h.data()[i] * hs.data()[i];
    lin += h.data()[i] * m.data()[i];
  }
  return 0.5 * quad - lin;
}

TEST(Prox, NonNegativeClampsNegatives) {
  const Proximity p = Proximity::non_negative();
  EXPECT_DOUBLE_EQ(p.apply_scalar(-2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(3.0, 1.0), 3.0);
  EXPECT_TRUE(p.elementwise());
}

TEST(Prox, L1SoftThresholds) {
  const Proximity p = Proximity::l1(2.0);
  // threshold = lambda * rho_scale = 2 * 0.5 = 1.
  EXPECT_DOUBLE_EQ(p.apply_scalar(3.0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(-3.0, 0.5), -2.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(0.5, 0.5), 0.0);
}

TEST(Prox, L1NonNegativeCombines) {
  const Proximity p = Proximity::l1_non_negative(1.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(-3.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(0.5, 1.0), 0.0);
}

TEST(Prox, BoxClamps) {
  const Proximity p = Proximity::box(-1.0, 2.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(-5.0, 1.0), -1.0);
  EXPECT_DOUBLE_EQ(p.apply_scalar(1.5, 1.0), 1.5);
  EXPECT_DOUBLE_EQ(p.apply_scalar(9.0, 1.0), 2.0);
}

TEST(Prox, L2BallProjectsColumns) {
  const Proximity p = Proximity::l2_ball(1.0);
  EXPECT_FALSE(p.elementwise());
  Matrix h = Matrix::from_rows({{3.0, 0.1}, {4.0, 0.2}});
  p.apply(h, 1.0);
  EXPECT_NEAR(la::nrm2(2, h.col(0)), 1.0, 1e-12);
  // Column already inside the ball is untouched.
  EXPECT_DOUBLE_EQ(h(0, 1), 0.1);
  EXPECT_TRUE(p.is_feasible(h, 1e-9));
}

TEST(Prox, FeasibilityOracle) {
  const Proximity nn = Proximity::non_negative();
  Matrix ok = Matrix::from_rows({{0.0, 1.0}});
  Matrix bad = Matrix::from_rows({{-0.5, 1.0}});
  EXPECT_TRUE(nn.is_feasible(ok));
  EXPECT_FALSE(nn.is_feasible(bad));
}

TEST(Prox, SimplexProjectionSumsToOneAndIsNonNegative) {
  const Proximity p = Proximity::simplex();
  EXPECT_FALSE(p.elementwise());
  Rng rng(41);
  Matrix h(50, 4);
  h.fill_normal(rng, 0.0, 3.0);
  p.apply(h, 1.0);
  EXPECT_TRUE(p.is_feasible(h, 1e-9));
  for (index_t j = 0; j < 4; ++j) {
    real_t sum = 0.0;
    for (index_t i = 0; i < 50; ++i) {
      EXPECT_GE(h(i, j), 0.0);
      sum += h(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Prox, SimplexIsIdentityOnSimplexPoints) {
  const Proximity p = Proximity::simplex();
  Matrix h = Matrix::from_rows({{0.2}, {0.3}, {0.5}});
  Matrix before = h;
  p.apply(h, 1.0);
  EXPECT_LT(max_abs_diff(h, before), 1e-12);
}

TEST(Prox, SimplexProjectionIsClosestPoint) {
  // For v = (2, 0), the projection onto the simplex is (1, 0).
  const Proximity p = Proximity::simplex();
  Matrix h = Matrix::from_rows({{2.0}, {0.0}});
  p.apply(h, 1.0);
  EXPECT_NEAR(h(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(h(1, 0), 0.0, 1e-12);
}

TEST(Prox, SmoothSolvesTheTridiagonalSystemExactly) {
  // Verify (I + lambda D^T D) x == v after the prox.
  const real_t lambda = 0.7;
  const Proximity p = Proximity::smooth(lambda);
  EXPECT_FALSE(p.elementwise());
  Rng rng(42);
  const index_t n = 40;
  Matrix v(n, 2);
  v.fill_normal(rng);
  Matrix x = v;
  p.apply(x, 1.0);
  for (index_t j = 0; j < 2; ++j) {
    for (index_t i = 0; i < n; ++i) {
      real_t lhs = x(i, j);
      // D^T D row: 2x_i - x_{i-1} - x_{i+1} with free boundaries.
      real_t dtd = 0.0;
      if (i > 0) dtd += x(i, j) - x(i - 1, j);
      if (i < n - 1) dtd += x(i, j) - x(i + 1, j);
      lhs += lambda * dtd;
      EXPECT_NEAR(lhs, v(i, j), 1e-10) << "row " << i;
    }
  }
}

TEST(Prox, SmoothReducesTotalVariation) {
  const Proximity p = Proximity::smooth(5.0);
  Rng rng(43);
  Matrix h(100, 1);
  h.fill_normal(rng);
  auto variation = [&](const Matrix& m) {
    real_t tv = 0.0;
    for (index_t i = 1; i < m.rows(); ++i) {
      const real_t d = m(i, 0) - m(i - 1, 0);
      tv += d * d;
    }
    return tv;
  };
  const real_t before = variation(h);
  p.apply(h, 1.0);
  EXPECT_LT(variation(h), 0.2 * before);
}

TEST(Prox, SmoothPreservesColumnMean) {
  // (I + lambda D^T D) has row sums 1 outside... the all-ones vector is in
  // D's null space, so the smoothing operator preserves the mean exactly.
  const Proximity p = Proximity::smooth(2.0);
  Rng rng(44);
  Matrix h(64, 1);
  h.fill_uniform(rng, -1.0, 1.0);
  real_t mean_before = 0.0;
  for (index_t i = 0; i < 64; ++i) mean_before += h(i, 0);
  p.apply(h, 1.0);
  real_t mean_after = 0.0;
  for (index_t i = 0; i < 64; ++i) mean_after += h(i, 0);
  EXPECT_NEAR(mean_after, mean_before, 1e-9);
}

TEST(Admm, SimplexConstrainedUpdateStaysOnSimplex) {
  const Instance inst = make_nonneg_instance(60, 4, 45);
  AdmmOptions opt;
  opt.prox = Proximity::simplex();
  opt.inner_iterations = 20;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(60, 4);
  Rng rng(46);
  h.fill_uniform(rng, 0.0, 1.0);
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  EXPECT_TRUE(opt.prox.is_feasible(h, 1e-6));
}

TEST(Admm, SmoothRegularizedUpdateIsSmootherThanUnregularized) {
  const Instance inst = make_instance(200, 4, 47);
  auto run = [&](Proximity prox) {
    AdmmOptions opt;
    opt.prox = prox;
    opt.inner_iterations = 30;
    AdmmUpdate admm(opt);
    simgpu::Device dev(simgpu::a100());
    Matrix h(200, 4);
    Rng rng(48);
    h.fill_uniform(rng, 0.0, 1.0);
    ModeState state;
    admm.update(dev, inst.s, inst.m, h, state);
    real_t tv = 0.0;
    for (index_t j = 0; j < 4; ++j) {
      for (index_t i = 1; i < 200; ++i) {
        const real_t d = h(i, j) - h(i - 1, j);
        tv += d * d;
      }
    }
    return tv;
  };
  EXPECT_LT(run(Proximity::smooth(20.0)), run(Proximity::identity()));
}

struct AdmmConfig {
  bool fusion;
  bool preinversion;
};

class AdmmConfigSweep : public ::testing::TestWithParam<AdmmConfig> {};

TEST_P(AdmmConfigSweep, RecoversUnconstrainedOptimumWhenFeasible) {
  // M = H_true * S with H_true >= 0: the non-negative LS optimum is H_true.
  const Instance inst = make_instance(200, 8, 1);
  AdmmOptions opt;
  opt.prox = Proximity::non_negative();
  opt.inner_iterations = 60;
  opt.operation_fusion = GetParam().fusion;
  opt.preinversion = GetParam().preinversion;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(200, 8);
  Rng rng(2);
  h.fill_uniform(rng, 0.0, 1.0);
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-4);
  EXPECT_TRUE(opt.prox.is_feasible(h));
}

TEST_P(AdmmConfigSweep, OutputFeasibleForL1NonNegative) {
  const Instance inst = make_instance(100, 6, 3);
  AdmmOptions opt;
  opt.prox = Proximity::l1_non_negative(0.5);
  opt.inner_iterations = 10;
  opt.operation_fusion = GetParam().fusion;
  opt.preinversion = GetParam().preinversion;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(100, 6);
  Rng rng(4);
  h.fill_normal(rng);  // start infeasible
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  EXPECT_TRUE(opt.prox.is_feasible(h));
}

TEST_P(AdmmConfigSweep, DecreasesObjectiveFromColdStart) {
  const Instance inst = make_instance(300, 12, 5);
  AdmmOptions opt;
  opt.prox = Proximity::non_negative();
  opt.inner_iterations = 10;
  opt.operation_fusion = GetParam().fusion;
  opt.preinversion = GetParam().preinversion;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::h100());
  Matrix h(300, 12);
  Rng rng(6);
  h.fill_uniform(rng, 0.0, 1.0);
  const real_t before = objective(inst.s, inst.m, h);
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(objective(inst.s, inst.m, h), before);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AdmmConfigSweep,
    ::testing::Values(AdmmConfig{false, false}, AdmmConfig{true, false},
                      AdmmConfig{false, true}, AdmmConfig{true, true}),
    [](const auto& name_info) {
      return std::string(name_info.param.fusion ? "OF" : "noOF") +
             (name_info.param.preinversion ? "_PI" : "_noPI");
    });

// Regression: kernel_apply_proximity used to fall back silently to
// inv_rho = 1 on rho <= 0, letting the fused path scale the prox differently
// from the unfused BLAS chain. The clamp lives in AdmmUpdate::update; the
// kernels must reject a non-positive rho outright.
TEST(AdmmKernels, NonPositiveRhoThrows) {
  simgpu::Device dev(simgpu::a100());
  Matrix m(6, 3), h(6, 3), u(6, 3), t(6, 3);
  real_t delta = 0.0;
  EXPECT_THROW(kernel_apply_proximity(dev, Proximity::non_negative(), 0.0, t,
                                      u, h, &delta),
               Error);
  EXPECT_THROW(kernel_apply_proximity(dev, Proximity::non_negative(), -2.0, t,
                                      u, h, &delta),
               Error);
  EXPECT_THROW(kernel_compute_auxiliary(dev, m, h, u, 0.0, t), Error);
}

// Degenerate rho (all-zero S → trace 0) goes through the centralized clamp,
// and the fused/unfused paths must agree on the clamped problem.
TEST(Admm, DegenerateRhoClampedConsistentlyAcrossPaths) {
  const index_t i_len = 40, rank = 5;
  Matrix s(rank, rank);  // all zeros: trace(S)/R = 0, clamp kicks in
  Rng rng(17);
  Matrix m(i_len, rank);
  m.fill_uniform(rng, -1.0, 1.0);
  Matrix h0(i_len, rank);
  h0.fill_uniform(rng, 0.0, 1.0);

  Matrix results[2];
  int idx = 0;
  for (bool fusion : {false, true}) {
    AdmmOptions opt;
    opt.prox = Proximity::non_negative();
    opt.inner_iterations = 5;
    opt.operation_fusion = fusion;
    AdmmUpdate admm(opt);
    simgpu::Device dev(simgpu::a100());
    Matrix h = h0;
    ModeState state;
    EXPECT_NO_THROW(admm.update(dev, s, m, h, state));
    EXPECT_DOUBLE_EQ(admm.last().rho, 1.0);  // the documented clamp value
    results[idx++] = std::move(h);
  }
  EXPECT_LT(max_abs_diff(results[0], results[1]), 1e-9);
}

TEST(Admm, AllFourConfigurationsAgreeNumerically) {
  // OF and PI are performance transformations; the math is identical, so all
  // four variants must produce (near-)identical iterates. Fusion changes no
  // arithmetic at all: the fused kernels (and the row-tiled pass) evaluate
  // the BLAS chain's expressions, so H and U are bitwise equal at either
  // pre-inversion setting, for every constraint.
  const Instance inst = make_instance(150, 10, 7);
  Matrix h0(150, 10);
  Rng rng(8);
  h0.fill_uniform(rng, 0.0, 1.0);

  for (const Proximity& prox :
       {Proximity::non_negative(), Proximity::identity(), Proximity::l1(0.3),
        Proximity::l1_non_negative(0.3), Proximity::box(0.1, 0.6),
        Proximity::l2_ball(2.0), Proximity::simplex(), Proximity::smooth(0.5)}) {
    SCOPED_TRACE(prox.name());
    Matrix h_out[2][2], u_out[2][2];  // [fusion][pi]
    for (bool fusion : {false, true}) {
      for (bool pi : {false, true}) {
        AdmmOptions opt;
        opt.prox = prox;
        opt.inner_iterations = 10;
        opt.operation_fusion = fusion;
        opt.preinversion = pi;
        AdmmUpdate admm(opt);
        simgpu::Device dev(simgpu::a100());
        Matrix h = h0;
        ModeState state;
        admm.update(dev, inst.s, inst.m, h, state);
        h_out[fusion][pi] = std::move(h);
        u_out[fusion][pi] = std::move(state.dual);
      }
    }
    for (bool pi : {false, true}) {
      EXPECT_TRUE(bitwise_equal(h_out[0][pi], h_out[1][pi])) << "pi " << pi;
      EXPECT_TRUE(bitwise_equal(u_out[0][pi], u_out[1][pi])) << "pi " << pi;
    }
    EXPECT_LT(max_abs_diff(h_out[1][0], h_out[1][1]), 1e-9);
  }
}

TEST(Admm, FusedPathIssuesFewerBytesThanUnfused) {
  // The Figure-4 mechanism: same math, less traffic.
  const Instance inst = make_instance(2000, 32, 9);
  Matrix h0(2000, 32);
  Rng rng(10);
  h0.fill_uniform(rng, 0.0, 1.0);

  auto run_traffic = [&](bool fusion, bool pi) {
    AdmmOptions opt;
    opt.prox = Proximity::non_negative();
    opt.inner_iterations = 10;
    opt.operation_fusion = fusion;
    opt.preinversion = pi;
    AdmmUpdate admm(opt);
    simgpu::Device dev(simgpu::a100());
    Matrix h = h0;
    ModeState state;
    admm.update(dev, inst.s, inst.m, h, state);
    return dev.total().total_bytes();
  };

  EXPECT_LT(run_traffic(true, false), run_traffic(false, false));
  EXPECT_LT(run_traffic(true, true), run_traffic(false, true));
}

TEST(Admm, PreinversionReplacesTriangularSolvesWithGemm) {
  const Instance inst = make_instance(500, 16, 11);
  Matrix h0(500, 16);
  Rng rng(12);
  h0.fill_uniform(rng, 0.0, 1.0);

  auto kernels = [&](bool pi) {
    AdmmOptions opt;
    opt.inner_iterations = 3;
    opt.operation_fusion = true;
    opt.preinversion = pi;
    AdmmUpdate admm(opt);
    simgpu::Device dev(simgpu::a100());
    Matrix h = h0;
    ModeState state;
    admm.update(dev, inst.s, inst.m, h, state);
    return dev.per_kernel();
  };

  const auto with_pi = kernels(true);
  EXPECT_TRUE(with_pi.count("dgemm"));
  EXPECT_FALSE(with_pi.count("dpotrs_right"));
  EXPECT_TRUE(with_pi.count("dpotri"));
  const auto without_pi = kernels(false);
  EXPECT_TRUE(without_pi.count("dpotrs_right"));
  EXPECT_FALSE(without_pi.count("dpotri"));
}

TEST(Admm, EarlyExitHonorsTolerance) {
  const Instance inst = make_instance(100, 4, 13);
  AdmmOptions opt;
  opt.inner_iterations = 200;
  opt.tolerance = 1e-8;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(100, 4);
  Rng rng(14);
  h.fill_uniform(rng, 0.0, 1.0);
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(admm.last().iterations, 200);
  EXPECT_LT(admm.last().primal_residual, 1e-8);
}

// The residual reductions sum their block partials in block order, so a
// multi-block update's diagnostics — and with them the tolerance exit and
// the factors — repeat bit for bit at any worker count.
TEST(Admm, DiagnosticsBitReproducibleAcrossRepeatedRuns) {
  // Mixed-sign M keeps the constraint active, so the duals settle away
  // from zero and the non-negative run exits on the tolerance.
  Instance inst = make_instance(4000, 16, 21);
  Rng rng(22);
  inst.m.fill_uniform(rng, -1.0, 1.0);
  Matrix h0(4000, 16);
  h0.fill_uniform(rng, 0.0, 1.0);
  for (const Proximity& prox : {Proximity::non_negative(), Proximity::simplex()}) {
    SCOPED_TRACE(prox.name());
    AdmmOptions opt;
    opt.prox = prox;
    opt.inner_iterations = 40;
    opt.tolerance = 1e-6;
    AdmmUpdate admm(opt);
    AdmmDiagnostics first;
    Matrix h_first, u_first;
    for (int run = 0; run < 5; ++run) {
      simgpu::Device dev(simgpu::a100());
      Matrix h = h0;
      ModeState state;
      admm.update(dev, inst.s, inst.m, h, state);
      if (run == 0) {
        if (prox.kind() == ProxKind::kNonNegative) {
          EXPECT_LT(admm.last().iterations, opt.inner_iterations);
        }
        first = admm.last();
        h_first = std::move(h);
        u_first = std::move(state.dual);
        continue;
      }
      EXPECT_EQ(admm.last().iterations, first.iterations) << "run " << run;
      EXPECT_TRUE(same_bits(admm.last().primal_residual, first.primal_residual))
          << "run " << run;
      EXPECT_TRUE(same_bits(admm.last().dual_residual, first.dual_residual))
          << "run " << run;
      EXPECT_TRUE(bitwise_equal(h, h_first)) << "run " << run;
      EXPECT_TRUE(bitwise_equal(state.dual, u_first)) << "run " << run;
    }
  }
}

// Runs `prox` through the per-kernel cuADMM path (a positive tolerance too
// small to ever exit, so every inner iteration runs) and through the
// row-tiled pass (tolerance 0) from the same start, and requires identical
// H and U bits and an identical device record: the same spans, in the same
// order, on the same stream, with the same stats.
void expect_row_tiles_match_per_kernel(const Matrix& s, const Matrix& m,
                                       const Matrix& h0, const Proximity& prox) {
  constexpr int kIterations = 10;
  Matrix h_out[2], u_out[2];
  std::vector<simgpu::Timeline::Span> spans[2];
  for (int tiled = 0; tiled < 2; ++tiled) {
    AdmmOptions opt;
    opt.prox = prox;
    opt.inner_iterations = kIterations;
    opt.tolerance = tiled ? 0.0 : 1e-300;
    simgpu::Device dev(simgpu::a100());
    AdmmUpdate admm(opt);
    Matrix h = h0;
    ModeState state;
    admm.update(dev, s, m, h, state);
    ASSERT_EQ(admm.last().iterations, kIterations);
    // The tiled pass leaves the per-kernel path's scratch unallocated.
    EXPECT_EQ(state.aux.empty(), tiled == 1);
    h_out[tiled] = std::move(h);
    u_out[tiled] = std::move(state.dual);
    for (std::size_t i = 0; i < dev.timeline().span_count(); ++i) {
      spans[tiled].push_back(dev.timeline().span(static_cast<std::int64_t>(i)));
    }
  }
  EXPECT_TRUE(bitwise_equal(h_out[0], h_out[1]));
  EXPECT_TRUE(bitwise_equal(u_out[0], u_out[1]));
  ASSERT_EQ(spans[0].size(), spans[1].size());
  for (std::size_t i = 0; i < spans[0].size(); ++i) {
    const simgpu::Timeline::Span& a = spans[0][i];
    const simgpu::Timeline::Span& b = spans[1][i];
    SCOPED_TRACE("span " + std::to_string(i) + " " + a.kernel);
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.stats.flops, b.stats.flops);
    EXPECT_EQ(a.stats.bytes_streamed, b.stats.bytes_streamed);
    EXPECT_EQ(a.stats.bytes_reused, b.stats.bytes_reused);
    EXPECT_EQ(a.stats.working_set_bytes, b.stats.working_set_bytes);
    EXPECT_EQ(a.stats.bytes_random, b.stats.bytes_random);
    EXPECT_EQ(a.stats.host_link_bytes, b.stats.host_link_bytes);
    EXPECT_EQ(a.stats.serial_depth, b.stats.serial_depth);
    EXPECT_EQ(a.stats.atomic_ops, b.stats.atomic_ops);
    EXPECT_EQ(a.stats.parallel_items, b.stats.parallel_items);
    EXPECT_EQ(a.stats.launches, b.stats.launches);
    EXPECT_EQ(a.stats.compute_efficiency, b.stats.compute_efficiency);
  }
}

TEST(AdmmRowTiles, MatchPerKernelPathBitwise) {
  // Rows around the 8-row micro-kernel block and the 64-row tile; ranks
  // below, at and between multiples of the 4-column block.
  for (const Proximity& prox :
       {Proximity::identity(), Proximity::non_negative(), Proximity::l1(0.2),
        Proximity::l1_non_negative(0.2), Proximity::box(0.05, 0.7)}) {
    for (index_t rows : {1, 7, 8, 63, 64, 65, 1000}) {
      for (index_t rank : {1, 5, 17, 32}) {
        SCOPED_TRACE(prox.name() + " rows " + std::to_string(rows) + " R " +
                     std::to_string(rank));
        const Instance inst =
            make_instance(rows, rank, 100 + static_cast<std::uint64_t>(rows));
        Matrix h0(rows, rank);
        Rng rng(static_cast<std::uint64_t>(rank));
        h0.fill_uniform(rng, -0.5, 1.0);
        expect_row_tiles_match_per_kernel(inst.s, inst.m, h0, prox);
      }
    }
  }
}

TEST(AdmmRowTiles, DiagonalSystemTakesTheScalarFallback) {
  // A diagonal S has an inverse with exact zeros, which la::gemm skips; the
  // pass must then use the in-order scalar loop everywhere and still match.
  const index_t rows = 200, rank = 8;
  Matrix s(rank, rank);
  for (index_t r = 0; r < rank; ++r) s(r, r) = 1.0 + 0.25 * static_cast<real_t>(r);
  const AdmmGram gram = prepare_admm_gram(s, /*preinvert=*/true);
  ASSERT_EQ(gram.inverse(0, 1), 0.0);
  Rng rng(31);
  Matrix m(rows, rank), h0(rows, rank);
  m.fill_uniform(rng, -1.0, 2.0);
  h0.fill_uniform(rng, 0.0, 1.0);
  for (const Proximity& prox : {Proximity::non_negative(), Proximity::l1(0.1)}) {
    SCOPED_TRACE(prox.name());
    expect_row_tiles_match_per_kernel(s, m, h0, prox);
  }
}

TEST(AdmmRowTiles, HostTimeIsATracerPhaseAndRecordsCarryNone) {
  const Instance inst = make_instance(300, 8, 41);
  simgpu::Tracer tracer;
  simgpu::Device dev(simgpu::a100());
  dev.set_tracer(&tracer);
  AdmmUpdate admm(AdmmOptions{});
  Matrix h(300, 8);
  h.set_all(0.5);
  ModeState state;
  {
    simgpu::ScopedPhase update(&tracer, phase::kUpdate);
    admm.update(dev, inst.s, inst.m, h, state);
  }
  std::vector<std::string> phases;
  for (const simgpu::PhaseSpan& p : tracer.phase_spans()) {
    phases.push_back(p.phase);
  }
  EXPECT_EQ(phases, (std::vector<std::string>{"UPDATE/admm_row_tiles",
                                              "UPDATE"}));
  for (const simgpu::TraceSpan& span : tracer.spans()) {
    EXPECT_EQ(span.phase, "UPDATE") << span.kernel;
    if (span.kernel.rfind("admm_", 0) == 0 || span.kernel == "dgemm") {
      EXPECT_EQ(span.wall_s, 0.0) << span.kernel;
    }
  }
}

TEST(Admm, DualVariableWarmStartsAcrossCalls) {
  const Instance inst = make_instance(50, 4, 15);
  AdmmOptions opt;
  opt.inner_iterations = 5;
  AdmmUpdate admm(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(50, 4);
  Rng rng(16);
  h.fill_uniform(rng, 0.0, 1.0);
  ModeState state;
  admm.update(dev, inst.s, inst.m, h, state);
  const Matrix dual_after_first = state.dual;
  EXPECT_GT(la::frobenius_norm(dual_after_first), 0.0);
  admm.update(dev, inst.s, inst.m, h, state);
  // Dual evolves from, not resets to, its previous value.
  EXPECT_TRUE(state.dual.same_shape(dual_after_first));
}

class BlockAdmmBlockSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(BlockAdmmBlockSizes, MatchesUnblockedAdmmExactly) {
  // Rows are independent given S, so blocking must not change the math at
  // all — any block size yields the same iterates as the unfused ADMM.
  const Instance inst = make_instance(257, 8, 17);
  Matrix h0(257, 8);
  Rng rng(18);
  h0.fill_uniform(rng, 0.0, 1.0);

  AdmmOptions ref_opt;
  ref_opt.prox = Proximity::non_negative();
  ref_opt.inner_iterations = 10;
  ref_opt.operation_fusion = false;
  ref_opt.preinversion = false;
  AdmmUpdate ref(ref_opt);
  simgpu::Device dev_a(simgpu::xeon_8367hc());
  Matrix h_ref = h0;
  ModeState state_ref;
  ref.update(dev_a, inst.s, inst.m, h_ref, state_ref);

  BlockAdmmOptions blk_opt;
  blk_opt.prox = Proximity::non_negative();
  blk_opt.inner_iterations = 10;
  blk_opt.block_rows = GetParam();
  BlockAdmmUpdate blocked(blk_opt);
  simgpu::Device dev_b(simgpu::xeon_8367hc());
  Matrix h_blk = h0;
  ModeState state_blk;
  blocked.update(dev_b, inst.s, inst.m, h_blk, state_blk);

  EXPECT_LT(max_abs_diff(h_ref, h_blk), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockAdmmBlockSizes,
                         ::testing::Values<index_t>(1, 7, 64, 257, 4096));

TEST(Mu, PreservesNonNegativityAndDescends) {
  const Instance inst = make_nonneg_instance(120, 8, 19);
  MuUpdate mu;
  simgpu::Device dev(simgpu::a100());
  Matrix h(120, 8);
  Rng rng(20);
  h.fill_uniform(rng, 0.1, 1.0);
  ModeState state;
  real_t prev = objective(inst.s, inst.m, h);
  for (int sweep = 0; sweep < 5; ++sweep) {
    mu.update(dev, inst.s, inst.m, h, state);
    const real_t now = objective(inst.s, inst.m, h);
    EXPECT_LE(now, prev + 1e-9) << "sweep " << sweep;
    prev = now;
  }
  EXPECT_TRUE(Proximity::non_negative().is_feasible(h));
}

TEST(Mu, FixedPointAtExactSolution) {
  const Instance inst = make_nonneg_instance(60, 5, 21);
  MuUpdate mu;
  simgpu::Device dev(simgpu::a100());
  Matrix h = inst.h_true;
  ModeState state;
  mu.update(dev, inst.s, inst.m, h, state);
  // At H_true, M ./ (H S) == 1 elementwise wherever H > 0.
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-9);
}

TEST(Hals, PreservesNonNegativityAndDescends) {
  const Instance inst = make_instance(120, 8, 22);
  HalsUpdate hals;
  simgpu::Device dev(simgpu::a100());
  Matrix h(120, 8);
  Rng rng(23);
  h.fill_uniform(rng, 0.1, 1.0);
  ModeState state;
  real_t prev = objective(inst.s, inst.m, h);
  for (int sweep = 0; sweep < 5; ++sweep) {
    hals.update(dev, inst.s, inst.m, h, state);
    const real_t now = objective(inst.s, inst.m, h);
    EXPECT_LE(now, prev + 1e-9) << "sweep " << sweep;
    prev = now;
  }
  for (index_t i = 0; i < h.size(); ++i) EXPECT_GT(h.data()[i], 0.0);
}

TEST(Hals, ConvergesToOptimumWithEnoughSweeps) {
  const Instance inst = make_instance(80, 6, 24);
  HalsOptions opt;
  opt.inner_iterations = 100;
  HalsUpdate hals(opt);
  simgpu::Device dev(simgpu::a100());
  Matrix h(80, 6);
  Rng rng(25);
  h.fill_uniform(rng, 0.1, 1.0);
  ModeState state;
  hals.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-6);
}

TEST(Bpp, MatchesUnconstrainedSolutionWhenInterior) {
  // M = H_true * S with H_true > 0: the NNLS optimum is the unconstrained
  // one, and BPP must hit it exactly.
  const Instance inst = make_instance(80, 6, 61);
  BppUpdate bpp;
  simgpu::Device dev(simgpu::a100());
  Matrix h(80, 6);
  ModeState state;
  bpp.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-9);
}

TEST(Bpp, SatisfiesKktConditionsWithActiveConstraints) {
  // Signed optimum forces a non-trivial active set; verify primal/dual KKT.
  Rng rng(62);
  Matrix g(12, 6);
  g.fill_normal(rng);
  Matrix s(6, 6);
  la::gram(g, s);
  la::add_diagonal(s, 1.0);
  Matrix h_signed(50, 6);
  h_signed.fill_normal(rng);
  Matrix m(50, 6);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, h_signed, s, 0.0, m);

  BppUpdate bpp;
  simgpu::Device dev(simgpu::a100());
  Matrix h(50, 6);
  ModeState state;
  bpp.update(dev, s, m, h, state);

  index_t active = 0;
  for (index_t i = 0; i < 50; ++i) {
    for (index_t r = 0; r < 6; ++r) {
      // Primal feasibility.
      ASSERT_GE(h(i, r), 0.0);
      // Dual: y = (H S - M) row-wise; y >= 0 where x == 0, |y| ~ 0 where
      // x > 0 (complementary slackness).
      real_t y = -m(i, r);
      for (index_t k = 0; k < 6; ++k) y += s(r, k) * h(i, k);
      if (h(i, r) > 1e-10) {
        EXPECT_NEAR(y, 0.0, 1e-8) << "row " << i << " col " << r;
      } else {
        EXPECT_GE(y, -1e-8) << "row " << i << " col " << r;
        ++active;
      }
    }
  }
  EXPECT_GT(active, 0);  // the instance must actually clamp something
}

TEST(Bpp, IsTheOracleAdmmConvergesTo) {
  // Run ADMM to (near-)convergence and compare against BPP's exact answer.
  const Instance inst = make_instance(60, 5, 63);
  Rng rng(64);
  Matrix m_hard(60, 5);
  Matrix h_signed(60, 5);
  h_signed.fill_normal(rng);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, h_signed, inst.s, 0.0, m_hard);

  BppUpdate bpp;
  simgpu::Device dev(simgpu::a100());
  Matrix h_exact(60, 5);
  ModeState st1;
  bpp.update(dev, inst.s, m_hard, h_exact, st1);

  AdmmOptions opt;
  opt.inner_iterations = 3000;
  opt.tolerance = 1e-14;
  AdmmUpdate admm(opt);
  Matrix h_admm(60, 5);
  Rng rng2(65);
  h_admm.fill_uniform(rng2, 0.0, 1.0);
  ModeState st2;
  admm.update(dev, inst.s, m_hard, h_admm, st2);

  EXPECT_LT(max_abs_diff(h_admm, h_exact), 1e-4);
  // And BPP's objective is never worse.
  EXPECT_LE(objective(inst.s, m_hard, h_exact),
            objective(inst.s, m_hard, h_admm) + 1e-9);
}

TEST(Bpp, ZeroMttkrpGivesZeroSolution) {
  const Instance inst = make_nonneg_instance(20, 4, 66);
  Matrix m_zero(20, 4);
  BppUpdate bpp;
  simgpu::Device dev(simgpu::a100());
  Matrix h(20, 4);
  ModeState state;
  bpp.update(dev, inst.s, m_zero, h, state);
  EXPECT_LT(la::frobenius_norm(h), 1e-12);
}

TEST(Als, SolvesTheNormalEquationsExactly) {
  const Instance inst = make_instance(90, 7, 26);
  AlsUpdate als;
  simgpu::Device dev(simgpu::a100());
  Matrix h(90, 7);  // ALS ignores the start
  ModeState state;
  als.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(max_abs_diff(h, inst.h_true), 1e-8);
}

TEST(Als, HandlesNegativeOptimum) {
  // Without constraints the solver must follow M wherever it leads.
  Instance inst = make_instance(40, 4, 27);
  Rng rng(28);
  Matrix h_signed(40, 4);
  h_signed.fill_normal(rng);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, h_signed, inst.s, 0.0, inst.m);
  AlsUpdate als;
  simgpu::Device dev(simgpu::a100());
  Matrix h(40, 4);
  ModeState state;
  als.update(dev, inst.s, inst.m, h, state);
  EXPECT_LT(max_abs_diff(h, h_signed), 1e-8);
}

}  // namespace
}  // namespace cstf
