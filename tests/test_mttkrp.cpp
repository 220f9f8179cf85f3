// Differential tests: every MTTKRP kernel must agree with the sequential
// reference on every mode, across shapes, ranks, and formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "formats/alto.hpp"
#include "formats/blco.hpp"
#include "formats/csf.hpp"
#include "la/matrix.hpp"
#include "mttkrp/alto_mttkrp.hpp"
#include "mttkrp/blco_mttkrp.hpp"
#include "simgpu/cost_model.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "mttkrp/csf_mttkrp.hpp"
#include "tensor/datasets.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

SparseTensor random_tensor(std::vector<index_t> dims, index_t nnz,
                           std::uint64_t seed) {
  RandomTensorParams params;
  params.dims = std::move(dims);
  params.target_nnz = nnz;
  params.seed = seed;
  return generate_random(params);
}

std::vector<Matrix> random_factors(const SparseTensor& t, index_t rank,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (int m = 0; m < t.num_modes(); ++m) {
    Matrix f(t.dim(m), rank);
    f.fill_uniform(rng, 0.1, 1.0);
    factors.push_back(std::move(f));
  }
  return factors;
}

// (num_modes, rank) sweep.
class MttkrpSweep
    : public ::testing::TestWithParam<std::tuple<int, index_t>> {
 protected:
  SparseTensor make_tensor() const {
    const int modes = std::get<0>(GetParam());
    std::vector<index_t> dims;
    const index_t base[5] = {37, 23, 41, 11, 7};
    for (int m = 0; m < modes; ++m) dims.push_back(base[m]);
    return random_tensor(dims, 1500, 21);
  }
};

TEST_P(MttkrpSweep, CooParallelMatchesReferenceOnEveryMode) {
  const SparseTensor t = make_tensor();
  const index_t rank = std::get<1>(GetParam());
  const auto factors = random_factors(t, rank, 31);
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    Matrix want(t.dim(mode), rank), got(t.dim(mode), rank);
    mttkrp_ref(t, factors, mode, want);
    mttkrp_coo(t, factors, mode, got);
    EXPECT_LT(max_abs_diff(got, want), 1e-10) << "mode " << mode;
  }
}

TEST_P(MttkrpSweep, CsfMatchesReferenceOnEveryRootMode) {
  const SparseTensor t = make_tensor();
  const index_t rank = std::get<1>(GetParam());
  const auto factors = random_factors(t, rank, 32);
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    Matrix want(t.dim(mode), rank), got(t.dim(mode), rank);
    mttkrp_ref(t, factors, mode, want);
    CsfTensor csf(t, mode);
    mttkrp_csf(csf, factors, got);
    EXPECT_LT(max_abs_diff(got, want), 1e-10) << "mode " << mode;
  }
}

TEST_P(MttkrpSweep, AltoMatchesReferenceOnEveryMode) {
  const SparseTensor t = make_tensor();
  const index_t rank = std::get<1>(GetParam());
  const auto factors = random_factors(t, rank, 33);
  const AltoTensor alto(t);
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    Matrix want(t.dim(mode), rank), got(t.dim(mode), rank);
    mttkrp_ref(t, factors, mode, want);
    mttkrp_alto(alto, factors, mode, got);
    EXPECT_LT(max_abs_diff(got, want), 1e-10) << "mode " << mode;
  }
}

TEST_P(MttkrpSweep, BlcoMatchesReferenceOnEveryMode) {
  const SparseTensor t = make_tensor();
  const index_t rank = std::get<1>(GetParam());
  const auto factors = random_factors(t, rank, 34);
  const BlcoTensor blco(t, 256);
  simgpu::Device dev(simgpu::a100());
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    Matrix want(t.dim(mode), rank), got(t.dim(mode), rank);
    mttkrp_ref(t, factors, mode, want);
    mttkrp_blco(dev, blco, factors, mode, got);
    EXPECT_LT(max_abs_diff(got, want), 1e-10) << "mode " << mode;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesByRank, MttkrpSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values<index_t>(1, 8, 16, 32)),
    [](const auto& name_info) {
      return "modes" + std::to_string(std::get<0>(name_info.param)) + "_rank" +
             std::to_string(std::get<1>(name_info.param));
    });

TEST(Mttkrp, KnownValueByHand) {
  // 2x2 matrix (2-mode tensor) X = [[1,2],[0,3]]; factor B = [[1],[2]].
  // Mode-0 MTTKRP = X * B = [5, 6]^T.
  SparseTensor t({2, 2});
  t.append({0, 0}, 1.0);
  t.append({0, 1}, 2.0);
  t.append({1, 1}, 3.0);
  Matrix a(2, 1), b(2, 1);
  b(0, 0) = 1.0;
  b(1, 0) = 2.0;
  Matrix out(2, 1);
  mttkrp_ref(t, {a, b}, 0, out);
  EXPECT_DOUBLE_EQ(out(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 6.0);
}

TEST(Mttkrp, ThreeModeHandComputed) {
  // Single nonzero x_{1,2,0} = 2 with known factor rows: out row 1 must be
  // 2 * (B(2,:) .* C(0,:)).
  SparseTensor t({3, 3, 2});
  t.append({1, 2, 0}, 2.0);
  Rng rng(1);
  Matrix a(3, 4), b(3, 4), c(2, 4);
  b.fill_uniform(rng);
  c.fill_uniform(rng);
  Matrix out(3, 4);
  mttkrp_ref(t, {a, b, c}, 0, out);
  for (index_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(out(1, r), 2.0 * b(2, r) * c(0, r), 1e-14);
    EXPECT_DOUBLE_EQ(out(0, r), 0.0);
    EXPECT_DOUBLE_EQ(out(2, r), 0.0);
  }
}

TEST(Mttkrp, SharedOutputRowAccumulation) {
  SparseTensor t({1, 4});
  t.append({0, 0}, 1.0);
  t.append({0, 1}, 2.0);
  t.append({0, 2}, 3.0);
  Matrix a(1, 2), b(4, 2);
  for (index_t i = 0; i < 4; ++i) {
    b(i, 0) = 1.0;
    b(i, 1) = static_cast<real_t>(i);
  }
  Matrix out(1, 2);
  mttkrp_coo(t, {a, b}, 0, out);
  EXPECT_DOUBLE_EQ(out(0, 0), 6.0);   // 1+2+3
  EXPECT_DOUBLE_EQ(out(0, 1), 8.0);   // 1*0+2*1+3*2
}

TEST(Mttkrp, BlcoMetersTrafficAndLaunches) {
  SparseTensor t = random_tensor({64, 64, 64}, 4000, 41);
  const auto factors = random_factors(t, 16, 42);
  const BlcoTensor blco(t, 512);
  simgpu::Device dev(simgpu::h100());
  Matrix out(t.dim(0), 16);
  ScatterOptions sorted;
  sorted.strategy = ScatterStrategy::kSorted;
  mttkrp_blco(dev, blco, factors, 0, out, sorted);
  const auto& stats = dev.per_kernel().at("mttkrp_blco_sorted");
  EXPECT_GT(stats.flops, 0.0);
  EXPECT_GT(stats.bytes_random, 0.0);
  // The compressed tensor plus the plan's permutation, each streamed once.
  EXPECT_NEAR(stats.bytes_streamed,
              blco.storage_bytes() +
                  static_cast<double>(blco.nnz()) * sizeof(index_t),
              1.0);
  EXPECT_EQ(stats.launches, 1);
  EXPECT_GT(dev.modeled_time_s(), 0.0);
}

TEST(Mttkrp, StreamedMatchesResidentExactly) {
  // Mode 0 is long enough that its private tiles exceed the default scratch
  // budget at any worker count (>= 4 tiles x 150000 x 16 words), so kAuto
  // streams it through the sorted kernel; the short modes stream privatized.
  // Each batch adds its block range into the output, so repeated runs agree
  // bit for bit and match the resident kernel up to the regrouped row sums.
  SparseTensor t = random_tensor({150000, 70, 60}, 6000, 51);
  const auto factors = random_factors(t, 16, 52);
  const BlcoTensor blco(t, 256);
  simgpu::Device dev_resident(simgpu::a100());
  for (int mode = 0; mode < 3; ++mode) {
    const ScatterStrategy strategy =
        resolve_scatter_strategy(ScatterOptions{}, t.dim(mode), 16, t.nnz());
    EXPECT_EQ(strategy, mode == 0 ? ScatterStrategy::kSorted
                                  : ScatterStrategy::kPrivatized);
    Matrix want(t.dim(mode), 16), got(t.dim(mode), 16),
        again(t.dim(mode), 16);
    mttkrp_blco(dev_resident, blco, factors, mode, want);
    simgpu::Device dev(simgpu::a100());
    // Budget forcing ~4 batches.
    const double budget = blco.storage_bytes() / 4.0;
    const index_t batches =
        mttkrp_blco_streamed(dev, blco, factors, mode, got, budget);
    mttkrp_blco_streamed(dev, blco, factors, mode, again, budget);
    EXPECT_GE(batches, 4);
    EXPECT_EQ(dev.per_kernel().count("mttkrp_blco_reduce"),
              strategy == ScatterStrategy::kPrivatized ? 1u : 0u)
        << "mode " << mode;
    EXPECT_EQ(max_abs_diff(got, again), 0.0) << "mode " << mode;
    EXPECT_LT(max_abs_diff(got, want), 1e-12) << "mode " << mode;
  }
}

TEST(Mttkrp, StreamedDegeneratesToResidentWhenItFits) {
  SparseTensor t = random_tensor({40, 40, 40}, 2000, 53);
  const auto factors = random_factors(t, 8, 54);
  const BlcoTensor blco(t, 512);
  simgpu::Device dev(simgpu::a100());
  Matrix out(t.dim(0), 8);
  const index_t batches = mttkrp_blco_streamed(dev, blco, factors, 0, out,
                                               2.0 * blco.storage_bytes());
  EXPECT_EQ(batches, 1);
  EXPECT_EQ(dev.per_kernel().count("mttkrp_blco_priv"), 1u);
  EXPECT_EQ(dev.per_kernel().count("mttkrp_blco_streamed"), 0u);
}

TEST(Mttkrp, StreamedCopyStreamPipelineMatchesAndOverlaps) {
  // Passing an explicit copy stream changes only the time model: results are
  // bit-identical, staging traffic moves onto dedicated stage spans, and the
  // double-buffered makespan lands in [compute-only, copy-then-compute sum].
  SparseTensor t = random_tensor({80, 70, 60}, 6000, 61);
  const auto factors = random_factors(t, 16, 62);
  const BlcoTensor blco(t, 256);

  simgpu::Device legacy(simgpu::a100());
  Matrix want(t.dim(0), 16);
  const index_t batches = mttkrp_blco_streamed(legacy, blco, factors, 0, want,
                                               blco.storage_bytes() / 4.0);
  ASSERT_GE(batches, 4);

  simgpu::Device piped(simgpu::a100());
  const simgpu::Stream copy = piped.create_stream("h2d_copy");
  Matrix got(t.dim(0), 16);
  const index_t batches2 = mttkrp_blco_streamed(
      piped, blco, factors, 0, got, blco.storage_bytes() / 4.0, copy);
  EXPECT_EQ(batches2, batches);
  EXPECT_EQ(max_abs_diff(got, want), 0.0);

  // All staged bytes land on the stage spans, none on the compute kernel.
  const auto& stage = piped.per_kernel().at("mttkrp_stage_batch");
  const auto& legacy_stats = legacy.per_kernel().at("mttkrp_blco_streamed");
  EXPECT_NEAR(stage.host_link_bytes, legacy_stats.host_link_bytes, 1.0);
  EXPECT_DOUBLE_EQ(
      piped.per_kernel().at("mttkrp_blco_streamed").host_link_bytes, 0.0);

  const double serial = piped.serial_modeled_time_s();
  const double overlap = piped.modeled_makespan_s();
  const double compute_only =
      piped.modeled_kernel_time_s("mttkrp_blco_streamed");
  EXPECT_LE(overlap, serial * (1.0 + 1e-12));
  EXPECT_GE(overlap, compute_only * (1.0 - 1e-12));
}

TEST(Mttkrp, StreamedChargesHostLinkTraffic) {
  SparseTensor t = random_tensor({60, 60, 60}, 5000, 55);
  const auto factors = random_factors(t, 16, 56);
  const BlcoTensor blco(t, 128);
  simgpu::Device dev(simgpu::a100());
  Matrix out(t.dim(0), 16);
  mttkrp_blco_streamed(dev, blco, factors, 0, out, blco.storage_bytes() / 8.0);
  const auto& stats = dev.per_kernel().at("mttkrp_blco_streamed");
  // Every compressed byte must have been staged exactly once.
  double expected = 0.0;
  for (index_t b = 0; b < blco.num_blocks(); ++b) {
    expected += static_cast<double>(blco.block(b).packed_deltas.size()) *
                    sizeof(std::uint64_t) +
                static_cast<double>(blco.block(b).count) * sizeof(real_t);
  }
  EXPECT_NEAR(stats.host_link_bytes, expected, 1.0);
  const auto t_model = simgpu::model_time(stats, dev.spec());
  EXPECT_GT(t_model.link_s, 0.0);
}

// ---------------------------------------------------------------------------
// Adaptive scatter engine (mttkrp/scatter.hpp)
// ---------------------------------------------------------------------------

ScatterOptions explicit_strategy(ScatterStrategy s) {
  ScatterOptions opts;
  opts.strategy = s;
  return opts;
}

class ScatterStrategySweep
    : public ::testing::TestWithParam<ScatterStrategy> {};

TEST_P(ScatterStrategySweep, AllEnginesMatchReferenceOnEveryMode) {
  // Mixed mode lengths: 19 is the privatized sweet spot, 401 exercises the
  // segment sweep over many rows.
  const SparseTensor t = random_tensor({19, 57, 401}, 4000, 91);
  const auto factors = random_factors(t, 16, 92);
  const AltoTensor alto(t);
  const BlcoTensor blco(t, 256);
  simgpu::Device dev(simgpu::a100());
  const ScatterOptions opts = explicit_strategy(GetParam());
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    Matrix want(t.dim(mode), 16);
    mttkrp_ref(t, factors, mode, want);
    Matrix got_coo(t.dim(mode), 16), got_alto(t.dim(mode), 16),
        got_blco(t.dim(mode), 16);
    EXPECT_EQ(mttkrp_coo(t, factors, mode, got_coo, opts), GetParam());
    EXPECT_EQ(mttkrp_alto(alto, factors, mode, got_alto, opts), GetParam());
    EXPECT_EQ(mttkrp_blco(dev, blco, factors, mode, got_blco, opts),
              GetParam());
    EXPECT_LT(max_abs_diff(got_coo, want), 1e-10) << "coo mode " << mode;
    EXPECT_LT(max_abs_diff(got_alto, want), 1e-10) << "alto mode " << mode;
    EXPECT_LT(max_abs_diff(got_blco, want), 1e-10) << "blco mode " << mode;
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, ScatterStrategySweep,
                         ::testing::Values(ScatterStrategy::kPrivatized,
                                           ScatterStrategy::kSorted),
                         [](const auto& info) {
                           return scatter_strategy_name(info.param);
                         });

TEST(Scatter, CachedPlanMatchesOneShotBuild) {
  const SparseTensor t = random_tensor({23, 31, 17}, 2000, 95);
  const auto factors = random_factors(t, 8, 96);
  const ScatterOptions opts = explicit_strategy(ScatterStrategy::kSorted);
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    const ScatterPlan plan = coo_scatter_plan(t, mode);
    Matrix one_shot(t.dim(mode), 8), cached(t.dim(mode), 8);
    mttkrp_coo(t, factors, mode, one_shot, opts);  // builds its own plan
    mttkrp_coo(t, factors, mode, cached, opts, &plan);
    EXPECT_DOUBLE_EQ(max_abs_diff(one_shot, cached), 0.0) << "mode " << mode;
  }
}

TEST(Scatter, PlanSegmentsPartitionNonzerosByRow) {
  const SparseTensor t = random_tensor({13, 40, 40}, 1500, 97);
  const ScatterPlan plan = coo_scatter_plan(t, 0);
  const auto& rows = t.indices(0);
  ASSERT_EQ(static_cast<index_t>(plan.order.size()), t.nnz());
  ASSERT_EQ(plan.seg_ptr.size(), plan.seg_row.size() + 1);
  EXPECT_EQ(plan.seg_ptr.front(), 0);
  EXPECT_EQ(plan.seg_ptr.back(), t.nnz());
  for (index_t s = 0; s < plan.num_segments(); ++s) {
    const auto su = static_cast<std::size_t>(s);
    ASSERT_LT(plan.seg_ptr[su], plan.seg_ptr[su + 1]);  // no empty segments
    if (s > 0) ASSERT_LT(plan.seg_row[su - 1], plan.seg_row[su]);
    for (index_t k = plan.seg_ptr[su]; k < plan.seg_ptr[su + 1]; ++k) {
      const index_t i = plan.order[static_cast<std::size_t>(k)];
      ASSERT_EQ(rows[static_cast<std::size_t>(i)], plan.seg_row[su]);
      // Stability: ids ascend within a segment.
      if (k > plan.seg_ptr[su]) {
        ASSERT_LT(plan.order[static_cast<std::size_t>(k - 1)], i);
      }
    }
  }
}

TEST(Scatter, PlanHandlesAllNonzerosInOneRow) {
  SparseTensor t({3, 64});
  for (index_t j = 0; j < 64; ++j) t.append({1, j}, 1.0);
  const ScatterPlan plan = coo_scatter_plan(t, 0);
  ASSERT_EQ(plan.num_segments(), 1);
  EXPECT_EQ(plan.seg_row[0], 1);
  EXPECT_EQ(plan.seg_ptr[0], 0);
  EXPECT_EQ(plan.seg_ptr[1], 64);
}

TEST(Scatter, SortedPathIsBitIdenticalToReference) {
  // The plan's per-row order is ascending nonzero id — the same accumulation
  // order the sequential reference uses — so the sorted path is not just
  // close to the reference, it is the reference, bit for bit.
  const SparseTensor t = random_tensor({29, 37, 21}, 3000, 99);
  const auto factors = random_factors(t, 16, 100);
  const ScatterOptions opts = explicit_strategy(ScatterStrategy::kSorted);
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    Matrix want(t.dim(mode), 16), got(t.dim(mode), 16);
    mttkrp_ref(t, factors, mode, want);
    mttkrp_coo(t, factors, mode, got, opts);
    EXPECT_DOUBLE_EQ(max_abs_diff(got, want), 0.0) << "mode " << mode;
  }
}

TEST(Scatter, DeterministicRunsAreBitIdentical) {
  // Neither strategy uses atomics: repeated runs agree bit for bit.
  const SparseTensor t = random_tensor({31, 47, 300}, 5000, 101);
  const auto factors = random_factors(t, 16, 102);
  for (ScatterStrategy strategy :
       {ScatterStrategy::kAuto, ScatterStrategy::kPrivatized,
        ScatterStrategy::kSorted}) {
    const ScatterOptions opts = explicit_strategy(strategy);
    for (int mode = 0; mode < t.num_modes(); ++mode) {
      Matrix a(t.dim(mode), 16), b(t.dim(mode), 16);
      mttkrp_coo(t, factors, mode, a, opts);
      mttkrp_coo(t, factors, mode, b, opts);
      EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.0)
          << scatter_strategy_name(strategy) << " mode " << mode;
    }
  }
}

TEST(Scatter, ResolutionRespectsBudgetDeterminismAndContention) {
  // One rule: privatized when its tiles fit the budget, otherwise sorted —
  // whatever the updates per row; neither choice uses atomics.
  ScatterOptions opts;  // kAuto
  // Short mode, tiles fit the default 64 MB budget -> privatized.
  EXPECT_TRUE(privatized_fits(opts, 512, 32, 100000));
  EXPECT_EQ(resolve_scatter_strategy(opts, 512, 32, 100000),
            ScatterStrategy::kPrivatized);
  // Budget below one tile -> sorted, with ~195 updates per row...
  opts.privatization_budget_bytes = 1024.0;
  EXPECT_FALSE(privatized_fits(opts, 512, 32, 100000));
  EXPECT_EQ(resolve_scatter_strategy(opts, 512, 32, 100000),
            ScatterStrategy::kSorted);
  // ...and with ~0.1 updates per row on a long sparse mode.
  EXPECT_EQ(resolve_scatter_strategy(opts, 1 << 20, 32, 100000),
            ScatterStrategy::kSorted);
  // The budget compares against exactly T tiles of mode_len x rank words.
  const double tiles = static_cast<double>(privatized_tile_count(100000));
  opts.privatization_budget_bytes = tiles * 512.0 * 32.0 * 8.0;
  EXPECT_TRUE(privatized_fits(opts, 512, 32, 100000));
  opts.privatization_budget_bytes -= 1.0;
  EXPECT_FALSE(privatized_fits(opts, 512, 32, 100000));
  // Explicit requests pass through.
  opts.strategy = ScatterStrategy::kPrivatized;
  EXPECT_EQ(resolve_scatter_strategy(opts, 1 << 20, 32, 100000),
            ScatterStrategy::kPrivatized);
}

TEST(Scatter, StrategyNamesRoundTrip) {
  for (ScatterStrategy s :
       {ScatterStrategy::kAuto, ScatterStrategy::kPrivatized,
        ScatterStrategy::kSorted}) {
    ScatterStrategy parsed;
    ASSERT_TRUE(parse_scatter_strategy(scatter_strategy_name(s), &parsed));
    EXPECT_EQ(parsed, s);
  }
  ScatterStrategy untouched = ScatterStrategy::kSorted;
  EXPECT_FALSE(parse_scatter_strategy("bogus", &untouched));
  EXPECT_FALSE(parse_scatter_strategy("atomic", &untouched));
  EXPECT_EQ(untouched, ScatterStrategy::kSorted);
}

TEST(Scatter, ApplyStatsMetersPrivatizedAndSortedTraffic) {
  simgpu::KernelStats priv;
  apply_scatter_stats(priv, ScatterStrategy::kPrivatized, /*mode_len=*/100,
                      /*rank=*/8, /*nnz=*/5000.0);
  EXPECT_DOUBLE_EQ(priv.atomic_ops, 0.0);
  EXPECT_GT(priv.bytes_streamed, 0.0);  // tile zero/accumulate/reduce traffic
  EXPECT_GT(priv.flops, 0.0);           // the tree combine

  simgpu::KernelStats sorted;
  apply_scatter_stats(sorted, ScatterStrategy::kSorted, 100, 8, 5000.0);
  EXPECT_DOUBLE_EQ(sorted.atomic_ops, 0.0);
  EXPECT_DOUBLE_EQ(sorted.bytes_streamed, 5000.0 * sizeof(index_t));
}

// Regression (scatter-engine audit): the per-nonzero Khatri-Rao row lives in
// reusable thread_local scratch; every contribution must fully re-seed it.
// A nonzero whose factor rows are all zero would expose any stale values
// left by the previous nonzero handled on the same thread.
TEST(Scatter, ZeroFactorRowDoesNotLeakStaleScratch) {
  SparseTensor t({1, 3});
  t.append({0, 0}, 5.0);  // contributes 5 * B(0,:)
  t.append({0, 1}, 7.0);  // B(1,:) = 0 -> contributes exactly nothing
  t.append({0, 2}, 3.0);  // contributes 3 * B(2,:)
  Matrix a(1, 2), b(3, 2);
  b(0, 0) = 1.0;
  b(0, 1) = 2.0;
  b(1, 0) = 0.0;
  b(1, 1) = 0.0;
  b(2, 0) = 4.0;
  b(2, 1) = 0.5;
  for (ScatterStrategy strategy :
       {ScatterStrategy::kPrivatized, ScatterStrategy::kSorted}) {
    Matrix out(1, 2);
    mttkrp_coo(t, {a, b}, 0, out, explicit_strategy(strategy));
    EXPECT_DOUBLE_EQ(out(0, 0), 5.0 * 1.0 + 3.0 * 4.0)
        << scatter_strategy_name(strategy);
    EXPECT_DOUBLE_EQ(out(0, 1), 5.0 * 2.0 + 3.0 * 0.5)
        << scatter_strategy_name(strategy);
  }
}

TEST(Mttkrp, DatasetAnalogAllFormatsAgree) {
  // End-to-end cross-format agreement on a realistic skewed analog.
  DatasetAnalog analog = make_analog(dataset_by_name("Uber"), 5000);
  const SparseTensor& t = analog.tensor;
  const auto factors = random_factors(t, 8, 77);
  const AltoTensor alto(t);
  const BlcoTensor blco(t, 1024);
  simgpu::Device dev(simgpu::a100());
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    Matrix want(t.dim(mode), 8);
    mttkrp_ref(t, factors, mode, want);
    Matrix got_csf(t.dim(mode), 8), got_alto(t.dim(mode), 8),
        got_blco(t.dim(mode), 8);
    CsfTensor csf(t, mode);
    mttkrp_csf(csf, factors, got_csf);
    mttkrp_alto(alto, factors, mode, got_alto);
    mttkrp_blco(dev, blco, factors, mode, got_blco);
    EXPECT_LT(max_abs_diff(got_csf, want), 1e-9) << "csf mode " << mode;
    EXPECT_LT(max_abs_diff(got_alto, want), 1e-9) << "alto mode " << mode;
    EXPECT_LT(max_abs_diff(got_blco, want), 1e-9) << "blco mode " << mode;
  }
}

}  // namespace
}  // namespace cstf
