// Integration tests: KTensor, the AUNTF driver (its device program and
// footprint), the CstfFramework facade, and the driver over the CPU
// baselines' backends (SPLATT's CSF, PLANC's ALTO and dense).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cstf/auntf.hpp"
#include "cstf/footprint.hpp"
#include "cstf/framework.hpp"
#include "cstf/ktensor.hpp"
#include "device_program.hpp"
#include "la/blas.hpp"
#include "la/elementwise.hpp"
#include "metrics/registry.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "perfmodel/admm_model.hpp"
#include "tensor/datasets.hpp"
#include "tensor/generate.hpp"
#include "updates/block_admm.hpp"

namespace cstf {
namespace {

LowRankTensor make_low_rank(std::uint64_t seed = 1) {
  // Fully observed (target_nnz covers every cell): CP of a partially
  // sampled tensor treats missing cells as zeros, so only full observation
  // makes the planted rank-4 model recoverable with high fit.
  LowRankTensorParams params;
  params.dims = {24, 18, 14};
  params.rank = 4;
  params.target_nnz = 24 * 18 * 14;
  params.noise = 0.01;
  params.seed = seed;
  return generate_low_rank(params);
}

// The sequential reference MTTKRP (mttkrp_ref) as a backend. It records
// nothing on the device.
class RefBackend final : public MttkrpBackend {
 public:
  explicit RefBackend(const SparseTensor& x) : x_(x) {}

  std::string name() const override { return "ref"; }
  int num_modes() const override { return x_.num_modes(); }
  index_t dim(int mode) const override { return x_.dim(mode); }
  index_t nnz() const override { return x_.nnz(); }
  real_t norm_sq() const override { return x_.frobenius_norm_sq(); }
  void mttkrp(simgpu::Device&, const std::vector<Matrix>& factors, int mode,
              Matrix& out) const override {
    mttkrp_ref(x_, factors, mode, out);
  }

 private:
  const SparseTensor& x_;
};

TEST(KTensor, ValueAtMatchesExplicitSum) {
  KTensor kt;
  kt.factors.push_back(Matrix::from_rows({{1, 2}, {3, 4}}));
  kt.factors.push_back(Matrix::from_rows({{5, 6}, {7, 8}}));
  kt.lambda = {1.0, 0.5};
  index_t coords[2] = {1, 0};
  // 1*3*5 + 0.5*4*6 = 27.
  EXPECT_DOUBLE_EQ(kt.value_at(coords), 27.0);
}

TEST(KTensor, NormSqMatchesDenseEnumeration) {
  Rng rng(3);
  KTensor kt;
  kt.factors.emplace_back(5, 3);
  kt.factors.emplace_back(4, 3);
  kt.factors.emplace_back(6, 3);
  for (auto& f : kt.factors) f.fill_uniform(rng, 0.0, 1.0);
  kt.lambda = {1.0, 2.0, 0.5};
  real_t brute = 0.0;
  index_t coords[3];
  for (coords[0] = 0; coords[0] < 5; ++coords[0]) {
    for (coords[1] = 0; coords[1] < 4; ++coords[1]) {
      for (coords[2] = 0; coords[2] < 6; ++coords[2]) {
        const real_t v = kt.value_at(coords);
        brute += v * v;
      }
    }
  }
  EXPECT_NEAR(kt.norm_sq(), brute, 1e-9 * brute);
}

TEST(KTensor, PerfectFitOnSelfGeneratedTensor) {
  // Sample a tensor exactly from the model: fit to those nonzeros is
  // dominated by the dense zero region, but against its dense version the
  // fit must be 1.
  Rng rng(4);
  KTensor kt;
  kt.factors.emplace_back(8, 2);
  kt.factors.emplace_back(7, 2);
  for (auto& f : kt.factors) f.fill_uniform(rng, 0.1, 1.0);
  kt.lambda = {1.0, 1.0};
  SparseTensor dense_as_sparse({8, 7});
  index_t coords[2];
  for (coords[0] = 0; coords[0] < 8; ++coords[0]) {
    for (coords[1] = 0; coords[1] < 7; ++coords[1]) {
      dense_as_sparse.append(coords, kt.value_at(coords));
    }
  }
  EXPECT_NEAR(kt.fit_to(dense_as_sparse), 1.0, 1e-9);
}

TEST(KTensor, ValidateAcceptsWellFormedModel) {
  Rng rng(8);
  KTensor model;
  model.factors.emplace_back(6, 2);
  model.factors.emplace_back(4, 2);
  for (auto& f : model.factors) f.fill_uniform(rng, 0.0, 1.0);
  model.lambda = {1.0, 2.0};
  EXPECT_NO_THROW(model.validate());
}

TEST(KTensor, ValidateRejectsStructuralAndNumericalDefects) {
  const auto well_formed = [] {
    Rng rng(8);
    KTensor model;
    model.factors.emplace_back(6, 2);
    model.factors.emplace_back(4, 2);
    for (auto& f : model.factors) f.fill_uniform(rng, 0.0, 1.0);
    model.lambda = {1.0, 2.0};
    return model;
  };

  EXPECT_THROW(KTensor{}.validate(), Error);  // no modes

  KTensor bad_lambda = well_formed();
  bad_lambda.lambda.push_back(3.0);
  EXPECT_THROW(bad_lambda.validate(), Error);

  KTensor ragged = well_formed();
  ragged.factors[1] = Matrix(4, 3);  // rank mismatch across modes
  EXPECT_THROW(ragged.validate(), Error);

  KTensor nan_factor = well_formed();
  nan_factor.factors[0](3, 1) = std::nan("");
  EXPECT_THROW(nan_factor.validate(), Error);

  KTensor inf_lambda = well_formed();
  inf_lambda.lambda[0] = std::numeric_limits<real_t>::infinity();
  EXPECT_THROW(inf_lambda.validate(), Error);
}

TEST(Auntf, FitIncreasesAndFactorsStayFeasible) {
  const LowRankTensor lr = make_low_rank();
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmOptions admm_opt;
  admm_opt.prox = Proximity::non_negative();
  admm_opt.inner_iterations = 10;
  AdmmUpdate update(admm_opt);
  AuntfOptions opt;
  opt.rank = 6;
  opt.max_iterations = 8;
  Auntf driver(dev, backend, update, opt);
  driver.initialize();
  const real_t fit1 = driver.iterate();
  real_t last_fit = fit1;
  for (int i = 0; i < 7; ++i) last_fit = driver.iterate();
  EXPECT_GT(last_fit, fit1 - 1e-6);
  EXPECT_GT(last_fit, 0.9);
  for (const auto& f : driver.factors()) {
    EXPECT_TRUE(Proximity::non_negative().is_feasible(f, 1e-9));
  }
  for (real_t l : driver.lambda()) EXPECT_GE(l, 0.0);
}

TEST(Auntf, FactorColumnsAreNormalizedAfterIterate) {
  const LowRankTensor lr = make_low_rank(2);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 4;
  Auntf driver(dev, backend, update, opt);
  driver.initialize();
  driver.iterate();
  for (const auto& f : driver.factors()) {
    std::vector<real_t> norms(static_cast<std::size_t>(f.cols()));
    la::column_norms(f, norms.data());
    for (index_t j = 0; j < f.cols(); ++j) {
      const real_t norm = norms[static_cast<std::size_t>(j)];
      // Unit norm, or an untouched degenerate column.
      EXPECT_TRUE(std::abs(norm - 1.0) < 1e-9 || norm < 1e-9) << "col " << j;
    }
  }
}

TEST(Auntf, PhaseTimersAndModeledPhasesArePopulated) {
  const LowRankTensor lr = make_low_rank(3);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 4;
  Auntf driver(dev, backend, update, opt);
  driver.initialize();
  driver.iterate();
  for (const char* phase :
       {phase::kGram, phase::kMttkrp, phase::kUpdate, phase::kNormalize}) {
    EXPECT_GT(driver.phases().total(phase), 0.0) << phase;
    ASSERT_TRUE(driver.modeled_phase_seconds().count(phase)) << phase;
    EXPECT_GT(driver.modeled_phase_seconds().at(phase), 0.0) << phase;
  }
}

TEST(Auntf, RunStopsOnFitTolerance) {
  const LowRankTensor lr = make_low_rank(4);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 4;
  opt.max_iterations = 50;
  opt.fit_tolerance = 1e-3;
  Auntf driver(dev, backend, update, opt);
  const AuntfResult result = driver.run();
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 50);
  EXPECT_EQ(result.fit_history.size(),
            static_cast<std::size_t>(result.iterations));
}

TEST(Auntf, UncomputedFitReturnsNaN) {
  const LowRankTensor lr = make_low_rank(5);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 4;
  opt.compute_fit = false;
  Auntf driver(dev, backend, update, opt);
  driver.initialize();
  EXPECT_TRUE(std::isnan(driver.iterate()));
}

TEST(Auntf, SameSeedSameResultAcrossBackends) {
  // The driver's math must not depend on the MTTKRP format: BLCO, CSF and
  // ALTO backends produce the reference MTTKRP's factorization.
  const LowRankTensor lr = make_low_rank(6);
  AdmmOptions admm_opt;
  admm_opt.inner_iterations = 5;
  AdmmUpdate update(admm_opt);
  AuntfOptions opt;
  opt.rank = 4;
  opt.seed = 99;

  auto run_with = [&](const MttkrpBackend& backend) {
    simgpu::Device dev(simgpu::a100());
    Auntf driver(dev, backend, update, opt);
    driver.initialize();
    driver.iterate();
    driver.iterate();
    return driver.ktensor();
  };

  BlcoBackend blco(lr.tensor);
  CsfBackend csf(lr.tensor);
  AltoBackend alto(lr.tensor);
  RefBackend ref(lr.tensor);
  const KTensor kt_blco = run_with(blco);
  const KTensor kt_csf = run_with(csf);
  const KTensor kt_alto = run_with(alto);
  const KTensor kt_ref = run_with(ref);
  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(max_abs_diff(kt_blco.factors[m], kt_csf.factors[m]), 1e-8);
    EXPECT_LT(max_abs_diff(kt_blco.factors[m], kt_alto.factors[m]), 1e-8);
    EXPECT_LT(max_abs_diff(kt_blco.factors[m], kt_ref.factors[m]), 1e-8);
  }
}

TEST(Auntf, ScatterStrategiesAgreeAcrossEngines) {
  // The scatter strategy changes only the host's accumulation schedule,
  // never the math or the modeled device: through the flat BLCO kernel and
  // through the dimension tree, both concrete strategies factor to
  // (numerically) the same model, and their devices hold the same kernels,
  // field for field, and the same modeled time.
  const LowRankTensor lr = make_low_rank(6);
  AdmmOptions admm_opt;
  admm_opt.inner_iterations = 5;
  AdmmUpdate update(admm_opt);
  AuntfOptions opt;
  opt.rank = 4;
  opt.seed = 99;

  struct Run {
    KTensor model;
    std::map<std::string, simgpu::KernelStats> kernels;
    double modeled_s = 0.0;
  };
  auto run_with = [&](ScatterStrategy strategy, bool dimtree) {
    ScatterOptions scatter;
    scatter.strategy = strategy;
    simgpu::Device dev(simgpu::a100());
    BlcoBackend backend(lr.tensor, 4096, scatter);
    if (dimtree) {
      EXPECT_TRUE(backend.enable_dimtree(lr.tensor, opt.rank));
    }
    Auntf driver(dev, backend, update, opt);
    driver.initialize();
    driver.iterate();
    driver.iterate();
    return Run{driver.ktensor(), dev.per_kernel(), dev.modeled_time_s()};
  };

  for (const bool dimtree : {false, true}) {
    SCOPED_TRACE(dimtree ? "dimtree" : "flat");
    const Run privatized = run_with(ScatterStrategy::kPrivatized, dimtree);
    const Run sorted = run_with(ScatterStrategy::kSorted, dimtree);
    for (int m = 0; m < 3; ++m) {
      EXPECT_LT(
          max_abs_diff(privatized.model.factors[m], sorted.model.factors[m]),
          1e-8);
    }
    std::vector<std::string> privatized_names, sorted_names;
    for (const auto& [name, stats] : privatized.kernels) {
      privatized_names.push_back(name);
    }
    for (const auto& [name, stats] : sorted.kernels) {
      sorted_names.push_back(name);
    }
    ASSERT_EQ(privatized_names, sorted_names);
    EXPECT_EQ(privatized.kernels.count(dimtree ? "dimtree_derive"
                                               : "mttkrp_blco"),
              1u);
    for (const auto& [name, stats] : privatized.kernels) {
      SCOPED_TRACE(name);
      golden::expect_same_stats(stats, sorted.kernels.at(name));
    }
    EXPECT_EQ(privatized.modeled_s, sorted.modeled_s);
  }
}

TEST(Framework, DeterministicScatterGivesBitIdenticalRuns) {
  // The end-to-end determinism guarantee: no scatter strategy uses atomics,
  // so two complete factorizations from the same seed agree bit for bit —
  // every factor entry and every lambda.
  const LowRankTensor lr = make_low_rank(9);
  FrameworkOptions options;
  options.rank = 4;
  options.max_iterations = 4;
  options.seed = 5;
  options.fit_tolerance = 0.0;

  auto run_once = [&]() {
    CstfFramework framework(lr.tensor, options);
    framework.run();
    return framework.ktensor();
  };
  const KTensor a = run_once();
  const KTensor b = run_once();
  ASSERT_EQ(a.num_modes(), b.num_modes());
  for (int m = 0; m < a.num_modes(); ++m) {
    EXPECT_DOUBLE_EQ(max_abs_diff(a.factors[m], b.factors[m]), 0.0)
        << "mode " << m;
  }
  EXPECT_EQ(a.lambda, b.lambda);
}

TEST(Framework, BackendResolvesAutoAndCachesSortedPlans) {
  const LowRankTensor lr = make_low_rank(13);
  ScatterOptions scatter;
  scatter.strategy = ScatterStrategy::kSorted;
  BlcoBackend backend(lr.tensor, 4096, scatter);
  simgpu::Device dev(simgpu::a100());
  // The device records one kernel whatever the strategy; the backend's plan
  // cache counts each sorted plan it builds (a miss) and reuses (a hit).
  auto& registry = metrics::MetricsRegistry::global();
  const metrics::Labels cache = {{"engine", "backend"}};
  const metrics::Counter* misses =
      registry.counter("mttkrp.scatter_cache.misses", cache);
  const metrics::Counter* hits =
      registry.counter("mttkrp.scatter_cache.hits", cache);
  Rng rng(8);
  std::vector<Matrix> factors;
  for (int m = 0; m < backend.num_modes(); ++m) {
    factors.emplace_back(backend.dim(m), 4);
    factors.back().fill_uniform(rng, 0.1, 1.0);
  }
  for (int mode = 0; mode < backend.num_modes(); ++mode) {
    Matrix got(backend.dim(mode), 4), want(backend.dim(mode), 4);
    dev.reset();
    const double missed = misses->value();
    backend.mttkrp(dev, factors, mode, got);
    EXPECT_EQ(dev.per_kernel().count("mttkrp_blco"), 1u);
    EXPECT_EQ(misses->value(), missed + 1.0) << "mode " << mode;
    mttkrp_ref(lr.tensor, factors, mode, want);
    EXPECT_LT(max_abs_diff(got, want), 1e-10) << "mode " << mode;
    // Second call reuses the cached plan and must agree exactly.
    const double hit = hits->value();
    Matrix again(backend.dim(mode), 4);
    backend.mttkrp(dev, factors, mode, again);
    EXPECT_EQ(hits->value(), hit + 1.0) << "mode " << mode;
    EXPECT_DOUBLE_EQ(max_abs_diff(got, again), 0.0) << "mode " << mode;
  }
}

TEST(Framework, DimtreeMatchesFlatAndIsDeterministicEndToEnd) {
  // End-to-end guarantees of the reuse engine: (a) a dimtree run is
  // bit-reproducible run to run, (b) it agrees with the
  // flat engine to fp tolerance (the flat path is the BLCO kernel, whose
  // block ordering regroups the per-row sums, so the two engines are only
  // bitwise-equal against the *COO reference* order — which the dimtree
  // backend is, see DimtreeBackendIsBitIdenticalToCooReference).
  LowRankTensorParams params;
  params.dims = {21, 11, 17, 9};
  params.rank = 4;
  params.target_nnz = 21 * 11 * 17 * 9;
  params.noise = 0.01;
  params.seed = 31;
  const LowRankTensor lr = generate_low_rank(params);

  FrameworkOptions options;
  options.rank = 4;
  options.max_iterations = 3;
  options.seed = 5;

  auto run_mode = [&](MttkrpMode mode) {
    FrameworkOptions o = options;
    o.mttkrp_mode = mode;
    CstfFramework framework(lr.tensor, o);
    framework.run();
    EXPECT_EQ(framework.resolved_mttkrp_mode(), mode);
    EXPECT_EQ(framework.backend().dimtree() != nullptr,
              mode == MttkrpMode::kDimtree);
    return framework.ktensor();
  };
  const KTensor flat = run_mode(MttkrpMode::kFlat);
  const KTensor tree = run_mode(MttkrpMode::kDimtree);
  const KTensor tree2 = run_mode(MttkrpMode::kDimtree);
  ASSERT_EQ(flat.num_modes(), tree.num_modes());
  for (int m = 0; m < flat.num_modes(); ++m) {
    EXPECT_DOUBLE_EQ(max_abs_diff(tree.factors[m], tree2.factors[m]), 0.0)
        << "mode " << m;
    EXPECT_LT(max_abs_diff(flat.factors[m], tree.factors[m]), 1e-10)
        << "mode " << m;
  }
  EXPECT_EQ(tree.lambda, tree2.lambda);
}

TEST(Framework, DimtreeBackendIsBitIdenticalToCooReference) {
  // The acceptance bar: with sorted scatter, the dimtree-enabled BLCO
  // backend reproduces mttkrp_ref bit for bit on every mode — chain
  // derives and the mode-0 from-raw path both fold factors in the
  // reference's ascending order and accumulate in ascending nonzero id.
  const LowRankTensor lr = make_low_rank(23);
  ScatterOptions scatter;
  scatter.strategy = ScatterStrategy::kSorted;
  BlcoBackend backend(lr.tensor, 4096, scatter);
  backend.enable_dimtree(lr.tensor, 4);
  simgpu::Device dev(simgpu::a100());
  Rng rng(19);
  std::vector<Matrix> factors;
  for (int m = 0; m < backend.num_modes(); ++m) {
    factors.emplace_back(backend.dim(m), 4);
    factors.back().fill_uniform(rng, 0.1, 1.0);
  }
  for (int mode = 0; mode < backend.num_modes(); ++mode) {
    Matrix got(backend.dim(mode), 4), want(backend.dim(mode), 4);
    backend.mttkrp(dev, factors, mode, got);
    mttkrp_ref(lr.tensor, factors, mode, want);
    EXPECT_DOUBLE_EQ(max_abs_diff(got, want), 0.0) << "mode " << mode;
  }
}

TEST(Framework, DimtreePlanAccountsForChainInPeakBytes) {
  // The chain intermediate must be a footprint row under the tree and none
  // under the flat engine, and the peak must include it: that is what keeps
  // the budget/OOM reasoning honest.
  const LowRankTensor lr = make_low_rank(17);
  FrameworkOptions flat_opts;
  flat_opts.rank = 6;
  flat_opts.mttkrp_mode = MttkrpMode::kFlat;
  CstfFramework flat(lr.tensor, flat_opts);

  FrameworkOptions tree_opts = flat_opts;
  tree_opts.mttkrp_mode = MttkrpMode::kDimtree;
  CstfFramework tree(lr.tensor, tree_opts);

  const DimTreeEngine* engine = tree.backend().dimtree();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(tree.device_footprint_bytes(),
            flat.device_footprint_bytes() + engine->chain_bytes());

  const auto has_chain_row = [](const DeviceFootprint& footprint) {
    for (const FootprintRow& row : footprint.rows()) {
      if (row.name == "dimtree_chain") return true;
    }
    return false;
  };
  EXPECT_TRUE(has_chain_row(tree.driver().footprint()));
  EXPECT_FALSE(has_chain_row(flat.driver().footprint()));
  EXPECT_NE(tree.driver().footprint().describe().find("dimtree_chain"),
            std::string::npos);
}

TEST(Framework, DimtreeOverBudgetResolvesFlat) {
  // The budget is checked once, when the engine is enabled: an explicit
  // kDimtree whose chain does not fit runs the flat kernels, reports flat,
  // has no engine and no chain row, and trains the flat run's factors.
  LowRankTensorParams params;
  params.dims = {9, 7, 6, 5};
  params.rank = 3;
  params.target_nnz = 240;
  params.seed = 41;
  const LowRankTensor lr = generate_low_rank(params);
  FrameworkOptions flat_opts;
  flat_opts.rank = 3;
  flat_opts.max_iterations = 1;
  flat_opts.mttkrp_mode = MttkrpMode::kFlat;
  FrameworkOptions tree_opts = flat_opts;
  tree_opts.mttkrp_mode = MttkrpMode::kDimtree;
  tree_opts.dimtree_budget_bytes =
      dimtree_chain_bytes(lr.tensor.nnz(), tree_opts.rank) - 1.0;

  CstfFramework tree(lr.tensor, tree_opts);
  EXPECT_EQ(tree.resolved_mttkrp_mode(), MttkrpMode::kFlat);
  EXPECT_EQ(tree.backend().dimtree(), nullptr);
  const DeviceFootprint footprint = tree.driver().footprint();
  for (const FootprintRow& row : footprint.rows()) {
    EXPECT_NE(row.name, "dimtree_chain");
  }

  simgpu::Tracer tracer;
  tree.device().set_tracer(&tracer);
  tree.run();
  tree.device().set_tracer(nullptr);
  int blco_spans = 0;
  for (const simgpu::TraceSpan& span : tracer.spans()) {
    EXPECT_NE(span.kernel.rfind("dimtree_", 0), 0u) << span.kernel;
    if (span.kernel == "mttkrp_blco") ++blco_spans;
  }
  EXPECT_EQ(blco_spans, lr.tensor.num_modes());

  CstfFramework flat(lr.tensor, flat_opts);
  flat.run();
  const KTensor a = tree.ktensor();
  const KTensor b = flat.ktensor();
  ASSERT_EQ(a.num_modes(), b.num_modes());
  for (int m = 0; m < a.num_modes(); ++m) {
    const Matrix& fa = a.factors[static_cast<std::size_t>(m)];
    const Matrix& fb = b.factors[static_cast<std::size_t>(m)];
    ASSERT_TRUE(fa.same_shape(fb)) << "mode " << m;
    EXPECT_EQ(std::memcmp(fa.data(), fb.data(),
                          static_cast<std::size_t>(fa.size()) * sizeof(real_t)),
              0)
        << "mode " << m;
  }
  EXPECT_EQ(a.lambda, b.lambda);
}

TEST(DeviceFootprint, CountsResidentStateHandComputed) {
  // Three modes with rows {5, 3, 2}, R = 2 and a 100 B tensor. Resident:
  // tensor 100 + factors 8*2*(5+3+2) = 160 + duals 160 + Grams 3*8*2*2 = 96
  // + lambda 8*2 = 16, i.e. 532 B. The longest-mode MTTKRP output (80 B),
  // the update scratch (160 B) and the Hadamard Gram (32 B) are live
  // together, so the peak is 532 + 272 = 804 B.
  const DeviceFootprint footprint(100.0, {5, 3, 2}, 2, std::nullopt);
  EXPECT_EQ(footprint.peak_bytes(), 804.0);
  std::vector<std::string> names;
  for (const FootprintRow& row : footprint.rows()) {
    names.push_back(row.name);
    const bool state = row.name == "tensor" || row.name == "lambda" ||
                       row.name.rfind("factor_", 0) == 0 ||
                       row.name.rfind("dual_", 0) == 0 ||
                       row.name.rfind("gram_", 0) == 0;
    EXPECT_EQ(row.resident, state) << row.name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "tensor", "factor_0", "gram_0", "dual_0", "factor_1",
                       "gram_1", "dual_1", "factor_2", "gram_2", "dual_2",
                       "s_hadamard", "mttkrp_out", "update_scratch",
                       "lambda"}));
  const std::string table = footprint.describe();
  EXPECT_NE(table.find("dual_0                               80 B *"),
            std::string::npos)
      << table;
  EXPECT_NE(table.find("peak modeled device bytes: 804\n"), std::string::npos)
      << table;
}

TEST(DeviceFootprint, DimtreeChainJoinsTheWorkingSetHandComputed) {
  // The same shape with a 240 B chain (15 nonzeros x R = 2 x 8 B): the
  // chain is live from the first extend to the last derive, alongside the
  // Hadamard Gram, the MTTKRP output and the update scratch, so the peak is
  // 804 + 240 = 1044 B. Its row sits after the MTTKRP output.
  const DeviceFootprint footprint(100.0, {5, 3, 2}, 2, 240.0);
  EXPECT_EQ(footprint.peak_bytes(), 1044.0);
  const std::vector<FootprintRow>& rows = footprint.rows();
  ASSERT_EQ(rows.size(), 15u);
  EXPECT_EQ(rows[11].name, "mttkrp_out");
  EXPECT_EQ(rows[12].name, "dimtree_chain");
  EXPECT_EQ(rows[12].bytes, 240.0);
  EXPECT_FALSE(rows[12].resident);
  EXPECT_EQ(rows[13].name, "update_scratch");
}

// ---------------------------------------------------------------------------
// The trainer's device program (Algorithm 1): which phase each step of one
// AO iteration runs under, what the steps outside MTTKRP and UPDATE issue,
// and the modeled time each phase is charged. A 4-way tensor under the
// sorted scatter strategy, so no record depends on the worker count.

struct ProgramCase {
  const char* name;
  MttkrpMode engine;
  bool fit;
  std::map<std::string, double> modeled_phase_s;  // %.17g goldens
};

const std::vector<ProgramCase>& program_cases() {
  // GRAM and UPDATE do not depend on the engine or the fit; the fit
  // capture's dsyrk rolls into NORMALIZE, and the dimension tree's extends
  // run inside MTTKRP.
  static const std::vector<ProgramCase> cases = {
      {"flat, fit", MttkrpMode::kFlat, true,
       {{"GRAM", 1.6049645390070977e-05},
        {"MTTKRP", 3.2044048734287019e-05},
        {"NORMALIZE", 3.6064539007091929e-05},
        {"UPDATE", 0.0022725234042553191}}},
      {"flat, no fit", MttkrpMode::kFlat, false,
       {{"GRAM", 1.6049645390070977e-05},
        {"MTTKRP", 3.2044048734287019e-05},
        {"NORMALIZE", 3.2057446808510378e-05},
        {"UPDATE", 0.0022725234042553191}}},
      {"dimtree, fit", MttkrpMode::kDimtree, true,
       {{"GRAM", 1.6049645390070977e-05},
        {"MTTKRP", 1.2163549606208457e-05},
        {"NORMALIZE", 3.6064539007091929e-05},
        {"UPDATE", 0.0022725234042553187}}},
      {"dimtree, no fit", MttkrpMode::kDimtree, false,
       {{"GRAM", 1.6049645390070977e-05},
        {"MTTKRP", 1.2163549606208457e-05},
        {"NORMALIZE", 3.2057446808510378e-05},
        {"UPDATE", 0.0022725234042553187}}},
  };
  return cases;
}

/// Consecutive spans of one phase, with the kernels they issued.
struct PhaseRun {
  std::string phase;
  std::vector<std::string> kernels;
};

std::vector<PhaseRun> phase_runs(const simgpu::Tracer& tracer) {
  std::vector<PhaseRun> runs;
  for (const simgpu::TraceSpan& span : tracer.spans()) {
    if (runs.empty() || runs.back().phase != span.phase) {
      runs.push_back({span.phase, {}});
    }
    runs.back().kernels.push_back(span.kernel);
  }
  return runs;
}

/// One iteration over `modes` modes: per mode GRAM, MTTKRP, UPDATE, the
/// unphased fit capture on the last mode, NORMALIZE and the Gram recompute,
/// which runs on into the next mode's Hadamard of Grams; FIT last. Under
/// the dimension tree each MTTKRP run is pinned: the mode-0 flat path, then
/// per later mode the fold of the previous mode's factor and the derive.
/// The flat engine's MTTKRP runs and the updates are pinned by phase only
/// (empty kernel list).
std::vector<PhaseRun> expected_runs(const ProgramCase& c, int modes) {
  const bool tree = c.engine == MttkrpMode::kDimtree;
  std::vector<PhaseRun> runs = {{"GRAM", {"gram_hadamard"}}};
  for (int n = 0; n < modes; ++n) {
    const bool last = n == modes - 1;
    if (!tree) {
      runs.push_back({"MTTKRP", {}});
    } else if (n == 0) {
      runs.push_back({"MTTKRP", {"dimtree_flat"}});
    } else {
      runs.push_back({"MTTKRP", {"dimtree_extend", "dimtree_derive"}});
    }
    runs.push_back({"UPDATE", {}});
    if (last && c.fit) runs.push_back({"", {"dsyrk"}});
    runs.push_back({"NORMALIZE", {"normalize"}});
    if (last) {
      runs.push_back({"GRAM", {"dsyrk"}});
    } else {
      runs.push_back({"GRAM", {"dsyrk", "gram_hadamard"}});
    }
  }
  if (c.fit) runs.push_back({"FIT", {"gram_hadamard", "fit_inner_product"}});
  return runs;
}

/// Calls `check(driver, runs)` after one traced AO iteration on a 4-way
/// tensor.
template <typename Check>
void after_one_traced_iteration(const ProgramCase& c, const Check& check) {
  LowRankTensorParams params;
  params.dims = {9, 7, 6, 5};
  params.rank = 3;
  params.target_nnz = 240;
  params.seed = 41;
  const LowRankTensor lr = generate_low_rank(params);
  FrameworkOptions options;
  options.rank = 3;
  options.compute_fit = c.fit;
  options.mttkrp_mode = c.engine;
  options.scatter.strategy = ScatterStrategy::kSorted;
  CstfFramework framework(lr.tensor, options);
  ASSERT_EQ(framework.resolved_mttkrp_mode(), c.engine);
  simgpu::Tracer tracer;
  framework.device().set_tracer(&tracer);
  framework.driver().initialize();
  framework.driver().iterate();
  framework.device().set_tracer(nullptr);
  check(framework.driver(), phase_runs(tracer));
}

TEST(AuntfProgram, EachModeRunsGramMttkrpUpdateNormalizeThenFit) {
  for (const ProgramCase& c : program_cases()) {
    SCOPED_TRACE(c.name);
    after_one_traced_iteration(c, [&](Auntf&,
                                      const std::vector<PhaseRun>& runs) {
      const std::vector<PhaseRun> want = expected_runs(c, 4);
      std::vector<std::string> got_phases, want_phases;
      for (const PhaseRun& r : runs) got_phases.push_back(r.phase);
      for (const PhaseRun& r : want) want_phases.push_back(r.phase);
      ASSERT_EQ(got_phases, want_phases);
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (want[i].kernels.empty()) continue;
        EXPECT_EQ(runs[i].kernels, want[i].kernels)
            << "run " << i << " [" << want[i].phase << "]";
      }
    });
  }
}

TEST(AuntfProgram, PhaseSplitKeepsFitOutAndPinsModeledSeconds) {
  for (const ProgramCase& c : program_cases()) {
    SCOPED_TRACE(c.name);
    after_one_traced_iteration(c, [&](Auntf& driver,
                                      const std::vector<PhaseRun>&) {
      std::vector<std::string> wall_phases;
      for (const auto& [phase, s] : driver.phases().totals()) {
        wall_phases.push_back(phase);
      }
      EXPECT_EQ(wall_phases, (std::vector<std::string>{
                                 "GRAM", "MTTKRP", "NORMALIZE", "UPDATE"}));
      EXPECT_EQ(driver.modeled_phase_seconds(), c.modeled_phase_s);
    });
  }
}

TEST(Framework, UnequalModeSizesKeepMttkrpWorkspaceExact) {
  // Regression for the shared m_out workspace: with mode sizes that are not
  // monotonically ordered, the per-mode resize/validate must hand every
  // update an exactly dim(n) x R MTTKRP result — a workspace sized for the
  // largest mode and merely reused would expose stale trailing rows. Flat
  // and dimtree must agree through the non-monotone sequence.
  LowRankTensorParams params;
  params.dims = {31, 7, 23, 5};  // large, small, large, small
  params.rank = 3;
  params.target_nnz = 31 * 7 * 23 * 5;
  params.noise = 0.01;
  params.seed = 77;
  const LowRankTensor lr = generate_low_rank(params);

  FrameworkOptions options;
  options.rank = 3;
  options.max_iterations = 3;

  auto run_mode = [&](MttkrpMode mode) {
    FrameworkOptions o = options;
    o.mttkrp_mode = mode;
    CstfFramework framework(lr.tensor, o);
    framework.run();
    return framework.ktensor();
  };
  const KTensor flat = run_mode(MttkrpMode::kFlat);
  const KTensor tree = run_mode(MttkrpMode::kDimtree);
  for (int m = 0; m < flat.num_modes(); ++m) {
    EXPECT_EQ(flat.factors[m].rows(), lr.tensor.dim(m));
    EXPECT_LT(max_abs_diff(flat.factors[m], tree.factors[m]), 1e-10)
        << "mode " << m;
    for (index_t j = 0; j < flat.factors[m].cols(); ++j) {
      for (index_t i = 0; i < flat.factors[m].rows(); ++i) {
        EXPECT_TRUE(std::isfinite(flat.factors[m](i, j)));
      }
    }
  }
}

TEST(Auntf, PerModeMixedConstraints) {
  // Non-negativity on modes 0-1, a probability simplex on mode 2 — the
  // topic-model-style mixed-constraint configuration.
  const LowRankTensor lr = make_low_rank(21);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmOptions nn_opt;
  nn_opt.prox = Proximity::non_negative();
  AdmmUpdate nonneg(nn_opt);
  AdmmOptions sx_opt;
  sx_opt.prox = Proximity::simplex();
  sx_opt.inner_iterations = 30;
  AdmmUpdate simplex(sx_opt);
  AuntfOptions opt;
  opt.rank = 4;
  opt.max_iterations = 8;
  Auntf driver(dev, backend, {&nonneg, &nonneg, &simplex}, opt);
  driver.initialize();
  for (int i = 0; i < 8; ++i) driver.iterate();

  EXPECT_TRUE(Proximity::non_negative().is_feasible(driver.factors()[0], 1e-9));
  EXPECT_TRUE(Proximity::non_negative().is_feasible(driver.factors()[1], 1e-9));
  // The simplex-constrained factor sums to 1 per column *before*
  // normalization rescales it; after the driver's 2-norm normalization the
  // columns are unit-norm but still non-negative with uniform sign.
  const Matrix& f2 = driver.factors()[2];
  EXPECT_TRUE(Proximity::non_negative().is_feasible(f2, 1e-9));
}

TEST(Auntf, PerModeCountMismatchThrows) {
  const LowRankTensor lr = make_low_rank(22);
  simgpu::Device dev(simgpu::a100());
  BlcoBackend backend(lr.tensor);
  AdmmUpdate update(AdmmOptions{});
  AuntfOptions opt;
  opt.rank = 2;
  EXPECT_THROW(Auntf(dev, backend, {&update, &update}, opt), Error);
}

class FrameworkSchemes : public ::testing::TestWithParam<UpdateScheme> {};

TEST_P(FrameworkSchemes, RunsAndRecoversSignal) {
  const LowRankTensor lr = make_low_rank(7);
  FrameworkOptions opt;
  opt.rank = 6;
  opt.max_iterations = 10;
  opt.scheme = GetParam();
  CstfFramework framework(lr.tensor, opt);
  const AuntfResult result = framework.run();
  EXPECT_EQ(result.iterations, 10);
  // MU makes slow per-sweep progress; the others should essentially recover
  // the planted model (1% noise) on fully observed data.
  EXPECT_GT(result.final_fit, GetParam() == UpdateScheme::kMu ? 0.3 : 0.85);
  if (GetParam() != UpdateScheme::kAls) {
    for (const auto& f : framework.ktensor().factors) {
      EXPECT_TRUE(Proximity::non_negative().is_feasible(f, 1e-9));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FrameworkSchemes,
    ::testing::Values(UpdateScheme::kCuAdmm, UpdateScheme::kAdmm,
                      UpdateScheme::kMu, UpdateScheme::kHals,
                      UpdateScheme::kAls, UpdateScheme::kBpp),
    [](const auto& name_info) {
      switch (name_info.param) {
        case UpdateScheme::kCuAdmm: return "cuADMM";
        case UpdateScheme::kAdmm: return "ADMM";
        case UpdateScheme::kMu: return "MU";
        case UpdateScheme::kHals: return "HALS";
        case UpdateScheme::kAls: return "ALS";
        case UpdateScheme::kBpp: return "BPP";
      }
      return "unknown";
    });

TEST(Framework, CuAdmmAndGenericAdmmAgree) {
  const LowRankTensor lr = make_low_rank(8);
  FrameworkOptions a;
  a.rank = 4;
  a.max_iterations = 3;
  a.scheme = UpdateScheme::kCuAdmm;
  FrameworkOptions b = a;
  b.scheme = UpdateScheme::kAdmm;
  CstfFramework fa(lr.tensor, a), fb(lr.tensor, b);
  fa.run();
  fb.run();
  const KTensor ka = fa.ktensor(), kb = fb.ktensor();
  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(max_abs_diff(ka.factors[m], kb.factors[m]), 1e-8);
  }
}

TEST(Framework, L1ConstraintYieldsSparserFactors) {
  const LowRankTensor lr = make_low_rank(9);
  FrameworkOptions plain;
  plain.rank = 6;
  plain.max_iterations = 6;
  plain.prox = Proximity::non_negative();
  FrameworkOptions sparse = plain;
  sparse.prox = Proximity::l1_non_negative(0.3);
  CstfFramework f_plain(lr.tensor, plain), f_sparse(lr.tensor, sparse);
  f_plain.run();
  f_sparse.run();
  auto zero_fraction = [](const KTensor& kt) {
    index_t zeros = 0, total = 0;
    for (const auto& f : kt.factors) {
      for (index_t i = 0; i < f.size(); ++i) zeros += (f.data()[i] == 0.0);
      total += f.size();
    }
    return static_cast<double>(zeros) / static_cast<double>(total);
  };
  EXPECT_GT(zero_fraction(f_sparse.ktensor()), zero_fraction(f_plain.ktensor()));
}

// The CPU baselines of the figures are the driver on the Xeon model over
// the baselines' backends (bench/bench_util.cpp builds the same systems):
// SPLATT is CSF MTTKRP with blocked AO-ADMM, modified PLANC the ALTO sparse
// MTTKRP (or the dense one for DenseTF) with a framework update scheme.

AuntfOptions baseline_options(index_t rank, int iterations,
                              bool compute_fit = true) {
  AuntfOptions opt;
  opt.rank = rank;
  opt.max_iterations = iterations;
  opt.compute_fit = compute_fit;
  return opt;
}

TEST(Baselines, SplattMatchesGpuFrameworkFit) {
  const LowRankTensor lr = make_low_rank(10);
  simgpu::Device xeon(simgpu::xeon_8367hc());
  CsfBackend csf(lr.tensor);
  BlockAdmmUpdate blocked(BlockAdmmOptions{});
  Auntf splatt(xeon, csf, blocked, baseline_options(5, 6));
  const AuntfResult splatt_result = splatt.run();

  FrameworkOptions gopt;
  gopt.rank = 5;
  gopt.max_iterations = 6;
  CstfFramework gpu(lr.tensor, gopt);
  const AuntfResult gpu_result = gpu.run();

  // Same algorithm family on the same data: fits land close together.
  EXPECT_NEAR(splatt_result.final_fit, gpu_result.final_fit, 0.05);
  EXPECT_GT(splatt_result.final_fit, 0.8);
}

TEST(Baselines, SplattModeledOnXeonIsSlowerThanGpuModel) {
  // The core claim of Figures 5-6, at test scale: for the same per-iteration
  // work, modeled Xeon time exceeds modeled A100 time.
  DatasetAnalog analog = make_analog(dataset_by_name("NELL2"), 20000);
  simgpu::Device xeon(simgpu::xeon_8367hc());
  CsfBackend csf(analog.tensor);
  BlockAdmmUpdate blocked(BlockAdmmOptions{});
  Auntf splatt(xeon, csf, blocked, baseline_options(32, 1, false));
  splatt.initialize();
  splatt.iterate();

  FrameworkOptions gopt;
  gopt.rank = 32;
  gopt.max_iterations = 1;
  gopt.compute_fit = false;
  CstfFramework gpu(analog.tensor, gopt);
  gpu.driver().initialize();
  gpu.driver().iterate();

  // At analog scale the GPU's kernel-launch overhead dominates (the paper's
  // small-tensor effect, cf. NIPS in Figure 5); scale the metered record to
  // full NELL2 size before modeling, as the benches do.
  const double scale = analog.nnz_scale();
  EXPECT_GT(perfmodel::modeled_time_scaled(xeon, scale),
            perfmodel::modeled_time_scaled(gpu.device(), scale));
}

TEST(Baselines, PlancSparseSupportsMuAndHals) {
  const LowRankTensor lr = make_low_rank(11);
  AltoBackend alto(lr.tensor);
  for (UpdateScheme scheme : {UpdateScheme::kMu, UpdateScheme::kHals}) {
    simgpu::Device xeon(simgpu::xeon_8367hc());
    const auto update =
        CstfFramework::make_update(scheme, Proximity::non_negative(), 10);
    // Slightly over-parameterized rank: exact-rank NTF is prone to local
    // minima; the planted model is rank 4.
    Auntf planc(xeon, alto, *update, baseline_options(6, 20));
    const AuntfResult result = planc.run();
    EXPECT_GT(result.final_fit, scheme == UpdateScheme::kMu ? 0.3 : 0.8);
  }
}

TEST(Baselines, PlancDenseUpdateDominatedBySparseNotDense) {
  // Figure 1's contrast: on a dense tensor MTTKRP dominates; on a sparse
  // tensor of comparable factor size the UPDATE phase dominates. The dense
  // side uses MU: at this toy scale ADMM's fixed per-inner-iteration sync
  // cost would mask the size-driven effect the test probes (the scaled Fig-1
  // bench shows the ADMM version). The sparse side runs PLANC's unfused
  // ADMM.
  const AuntfOptions opt = baseline_options(8, 1, false);

  // Dense 40x30x20x15 tensor.
  std::vector<index_t> dims{40, 30, 20, 15};
  Rng rng(12);
  DenseTensor dense(dims);
  for (index_t i = 0; i < dense.num_elements(); ++i) {
    dense.data()[i] = rng.uniform();
  }
  simgpu::Device dense_xeon(simgpu::xeon_8367hc());
  DenseBackend dense_backend(std::move(dense));
  const auto mu = CstfFramework::make_update(UpdateScheme::kMu,
                                             Proximity::non_negative(), 10);
  Auntf planc_dense(dense_xeon, dense_backend, *mu, opt);
  planc_dense.initialize();
  planc_dense.iterate();
  const auto& dense_phases = planc_dense.modeled_phase_seconds();

  // Sparse tensor with long modes and few nonzeros.
  RandomTensorParams sparse_params;
  sparse_params.dims = {4000, 3000, 2000};
  sparse_params.target_nnz = 5000;
  sparse_params.seed = 13;
  const SparseTensor sparse = generate_random(sparse_params);
  simgpu::Device sparse_xeon(simgpu::xeon_8367hc());
  AltoBackend alto(sparse);
  const auto admm = CstfFramework::make_update(
      UpdateScheme::kAdmm, Proximity::non_negative(), 10);
  Auntf planc_sparse(sparse_xeon, alto, *admm, opt);
  planc_sparse.initialize();
  planc_sparse.iterate();
  const auto& sparse_phases = planc_sparse.modeled_phase_seconds();

  EXPECT_GT(dense_phases.at(phase::kMttkrp), dense_phases.at(phase::kUpdate));
  EXPECT_GT(sparse_phases.at(phase::kUpdate), sparse_phases.at(phase::kMttkrp));
}

}  // namespace
}  // namespace cstf
