// Dimension-tree MTTKRP engine tests: bit-identity against the sequential
// reference across orders/ranks/modes (the property DESIGN.md §13 builds
// on), chain staleness handling, and the tree-vs-flat cost-model resolution
// with its budget check.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "formats/blco.hpp"
#include "la/matrix.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "mttkrp/dimtree.hpp"
#include "perfmodel/admm_model.hpp"
#include "simgpu/device.hpp"
#include "simgpu/device_spec.hpp"
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

// Bitwise equality — the dimtree guarantee under sorted scatter is exact
// reproduction of mttkrp_ref, not just small error.
::testing::AssertionResult bit_identical(const Matrix& got,
                                         const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(got.data(), want.data(),
                  static_cast<std::size_t>(got.size()) * sizeof(real_t)) !=
      0) {
    return ::testing::AssertionFailure()
           << "outputs differ bitwise (max abs diff "
           << max_abs_diff(got, want) << ")";
  }
  return ::testing::AssertionSuccess();
}

ScatterOptions sorted_opts() {
  ScatterOptions opts;
  opts.strategy = ScatterStrategy::kSorted;
  return opts;
}

// Unequal per-mode sizes so a stale-workspace or wrong-mode bug cannot hide
// behind symmetric shapes.
std::vector<index_t> unequal_dims(int modes) {
  const index_t base[5] = {37, 11, 53, 7, 23};
  std::vector<index_t> dims;
  for (int m = 0; m < modes; ++m) dims.push_back(base[m]);
  return dims;
}

// (num_modes, rank) sweep: orders 2-5, ranks {1, 8, 17}.
class DimtreeSweep
    : public ::testing::TestWithParam<std::tuple<int, index_t>> {};

TEST_P(DimtreeSweep, BitIdenticalToReferenceOnEveryMode) {
  const auto [modes, rank] = GetParam();
  const SparseTensor t = random_tensor(unequal_dims(modes), 1700, 41);
  const auto factors = random_factors(t, rank, 51);
  DimTreeEngine engine(t, rank);
  simgpu::Device dev(simgpu::a100());
  for (int mode = 0; mode < modes; ++mode) {
    Matrix want(t.dim(mode), rank), got(t.dim(mode), rank);
    mttkrp_ref(t, factors, mode, want);
    const ScatterStrategy used =
        engine.mttkrp(dev, factors, mode, got, sorted_opts());
    EXPECT_EQ(used, ScatterStrategy::kSorted) << "mode " << mode;
    EXPECT_TRUE(bit_identical(got, want)) << "mode " << mode;
  }
  // Modes 1..N-1 derived from the chain; the prefix is fully folded now.
  EXPECT_EQ(engine.level(), modes - 1);
}

TEST_P(DimtreeSweep, AoSweepWithFactorUpdatesStaysBitIdentical) {
  const auto [modes, rank] = GetParam();
  const SparseTensor t = random_tensor(unequal_dims(modes), 1300, 43);
  auto factors = random_factors(t, rank, 53);
  DimTreeEngine engine(t, rank);
  simgpu::Device dev(simgpu::a100());
  Rng rng(77);
  // Two AO outer sweeps: derive mode n, then overwrite factor n with new
  // values (the update step) — exactly the trainer's call pattern,
  // including the second sweep's chain rebuild. Factor n is not folded yet
  // when it changes, so the engine needs no notice.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int mode = 0; mode < modes; ++mode) {
      Matrix want(t.dim(mode), rank), got(t.dim(mode), rank);
      mttkrp_ref(t, factors, mode, want);
      engine.mttkrp(dev, factors, mode, got, sorted_opts());
      EXPECT_TRUE(bit_identical(got, want))
          << "sweep " << sweep << " mode " << mode;
      factors[static_cast<std::size_t>(mode)].fill_uniform(rng, 0.1, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndRanks, DimtreeSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values<index_t>(1, 8, 17)));

TEST(DimtreeInvalidation, FingerprintCatchesSilentFactorMutation) {
  const SparseTensor t = random_tensor({19, 23, 17, 13}, 900, 61);
  auto factors = random_factors(t, 8, 62);
  DimTreeEngine engine(t, 8);
  simgpu::Device dev(simgpu::a100());
  Matrix out(t.dim(2), 8), want(t.dim(2), 8);
  engine.mttkrp(dev, factors, 2, out, sorted_opts());
  ASSERT_EQ(engine.level(), 2);  // factors 0 and 1 folded

  // Mutate a folded factor in place without invalidate() — the
  // fingerprint backstop must drop the chain on the next derive. Entry
  // (0, 0) is always covered by the sampled hash.
  factors[0](0, 0) += 1.0;
  mttkrp_ref(t, factors, 2, want);
  engine.mttkrp(dev, factors, 2, out, sorted_opts());
  EXPECT_TRUE(bit_identical(out, want));
  ASSERT_EQ(engine.level(), 2);

  // Now mutate a *non-zero* folded level. The in-place chain holds only
  // P_2, so a stale level 1 must force a full rebuild — truncating to
  // level 1 and re-folding factor 1 into P_2 would silently double-count
  // the old contents.
  factors[1](0, 0) += 1.0;
  mttkrp_ref(t, factors, 2, want);
  engine.mttkrp(dev, factors, 2, out, sorted_opts());
  EXPECT_TRUE(bit_identical(out, want));
}

TEST(DimtreeInvalidation, OrderTwoSweepRefoldsUpdatedFactorZero) {
  // On a 2-way tensor the chain ends a sweep at level 1, the level the next
  // sweep's mode 1 asks for, so only the sweep restart at mode 0 drops it.
  // Each sweep changes one entry of factor 0 that the sampled fingerprint
  // does not probe: with 37 x 8 = 296 entries the probe stride is 4, so
  // flat index 1 is skipped. A chain kept across the sweep would derive
  // mode 1 from the old factor 0.
  const SparseTensor t = random_tensor({37, 11}, 1700, 71);
  auto factors = random_factors(t, 8, 72);
  DimTreeEngine engine(t, 8);
  simgpu::Device dev(simgpu::a100());
  Matrix previous(t.dim(1), 8);
  for (int sweep = 0; sweep < 3; ++sweep) {
    Matrix out0(t.dim(0), 8);
    engine.mttkrp(dev, factors, 0, out0, sorted_opts());
    factors[0].data()[1] += 0.5;
    Matrix want(t.dim(1), 8), got(t.dim(1), 8);
    mttkrp_ref(t, factors, 1, want);
    engine.mttkrp(dev, factors, 1, got, sorted_opts());
    EXPECT_TRUE(bit_identical(got, want)) << "sweep " << sweep;
    EXPECT_FALSE(bit_identical(want, previous)) << "sweep " << sweep;
    previous = want;
  }
}

TEST(DimtreeInvalidation, MidPrefixUpdateThenExtendStaysBitIdentical) {
  // Regression: chain at P_2 = v ⊙ H0 ⊙ H1, then factor 1 is updated and
  // announced with invalidate(). A truncate-to-1 implementation would next
  // fold the new H1 into a buffer still holding P_2, yielding
  // v ⊙ H0 ⊙ H1_old ⊙ H1_new.
  const SparseTensor t = random_tensor({19, 23, 17, 13}, 900, 67);
  auto factors = random_factors(t, 8, 68);
  DimTreeEngine engine(t, 8);
  simgpu::Device dev(simgpu::a100());
  Matrix out(t.dim(2), 8), want(t.dim(2), 8);
  engine.mttkrp(dev, factors, 2, out, sorted_opts());
  ASSERT_EQ(engine.level(), 2);

  Rng rng(69);
  factors[1].fill_uniform(rng, 0.1, 1.0);
  engine.invalidate();
  EXPECT_EQ(engine.level(), 0);
  for (int mode = 2; mode < t.num_modes(); ++mode) {
    Matrix w(t.dim(mode), 8), g(t.dim(mode), 8);
    mttkrp_ref(t, factors, mode, w);
    engine.mttkrp(dev, factors, mode, g, sorted_opts());
    EXPECT_TRUE(bit_identical(g, w)) << "mode " << mode;
  }
}

TEST(DimtreeInvalidation, ExtendBelowCurrentLevelRebuilds) {
  const SparseTensor t = random_tensor({19, 23, 17}, 700, 65);
  const auto factors = random_factors(t, 4, 66);
  DimTreeEngine engine(t, 4);
  simgpu::Device dev(simgpu::a100());
  Matrix out(t.dim(2), 4);
  engine.mttkrp(dev, factors, 2, out, sorted_opts());
  ASSERT_EQ(engine.level(), 2);
  // Mode 1 needs level 1; the chain cannot unfold, so it rebuilds.
  Matrix want(t.dim(1), 4), got(t.dim(1), 4);
  mttkrp_ref(t, factors, 1, want);
  engine.mttkrp(dev, factors, 1, got, sorted_opts());
  EXPECT_EQ(engine.level(), 1);
  EXPECT_TRUE(bit_identical(got, want));
}

TEST(DimtreeResolve, BudgetCapForcesFlat) {
  const SparseTensor t = random_tensor({29, 31, 23}, 1000, 73);
  EXPECT_EQ(resolve_mttkrp_mode(t, 8, ScatterOptions{}, simgpu::a100(),
                                /*budget_bytes=*/1.0),
            MttkrpMode::kFlat);
}

TEST(DimtreeResolve, FullScaleDecisionSeparatesCacheResidentFromLarge) {
  // At full dataset scale the 4-way long-mode tensors favor the tree (the
  // suffix derives shrink the random-traffic working set), while NIPS/Uber's
  // factors are cache-resident on the A100 — random traffic is nearly free
  // and the chain streaming only adds cost. The resolver must see both.
  const ScatterOptions opts;
  const auto spec = simgpu::a100();
  const index_t rank = 32;
  const auto decide = [&](const char* name) {
    const DatasetAnalog data = make_analog(name);
    const BlcoTensor blco(data.tensor);
    return resolve_mttkrp_mode(data.tensor, rank, opts, spec,
                               kDefaultDimtreeBudgetBytes,
                               blco.storage_bytes(), data.nnz_scale());
  };
  EXPECT_EQ(decide("NIPS"), MttkrpMode::kFlat);
  EXPECT_EQ(decide("Uber"), MttkrpMode::kFlat);
  EXPECT_EQ(decide("Chicago"), MttkrpMode::kDimtree);
  EXPECT_EQ(decide("Flickr"), MttkrpMode::kDimtree);
  EXPECT_EQ(decide("Delicious"), MttkrpMode::kDimtree);
}

TEST(DimtreeStats, ReuseFactorAndDescribe) {
  const SparseTensor t = random_tensor({29, 31, 23, 19}, 1100, 75);
  DimTreeEngine engine(t, 8);
  // Order 4: flat = N(N+1) = 20 rank-multiplies per nonzero; tree = mode-0
  // flat (5) + extends (2 + 1 + 1) + derives (3 + 2 + 1) = 15.
  EXPECT_GT(engine.reuse_factor(), 1.3);
  EXPECT_NEAR(engine.flat_iteration_flops() / engine.tree_iteration_flops(),
              20.0 / 15.0, 1e-12);
  const std::string desc = describe_dimtree(engine);
  EXPECT_NE(desc.find("node P1"), std::string::npos);
  EXPECT_NE(desc.find("reuse factor"), std::string::npos);
  EXPECT_NE(desc.find("intermediate bytes"), std::string::npos);
}

TEST(DimtreeStats, TreeSequenceModelsFasterOnTreeFavorableShape) {
  // Chicago-like: 4-way, one long mode, large enough that factors spill the
  // cache at full scale — the configuration the acceptance gate measures.
  const DatasetAnalog data = make_analog("Chicago");
  const BlcoTensor blco(data.tensor);
  DimTreeEngine engine(data.tensor, 32);
  engine.set_flat_stream_bytes(blco.storage_bytes());
  const double flat_s = perfmodel::modeled_sequence_scaled(
      engine.flat_iteration_stats(), data.nnz_scale(), simgpu::a100());
  const double tree_s = perfmodel::modeled_sequence_scaled(
      engine.tree_iteration_stats(), data.nnz_scale(), simgpu::a100());
  EXPECT_GT(flat_s / tree_s, 1.3);
}

// Golden decision table for the engine resolver: the budget cap is exact,
// and the full-scale analog decisions pin the roofline comparison on both a
// default and a forced-sorted scatter configuration.
TEST(DecisionGolden, MttkrpModeTable) {
  const SparseTensor small = random_tensor({29, 31, 23}, 1000, 73);
  const auto spec = simgpu::a100();

  // Chain over budget -> flat, regardless of everything else.
  EXPECT_EQ(resolve_mttkrp_mode(small, 8, ScatterOptions{}, spec, 1.0),
            MttkrpMode::kFlat);

  const index_t rank = 32;
  const auto decide = [&](const char* name, const ScatterOptions& opts) {
    const DatasetAnalog data = make_analog(name);
    const BlcoTensor blco(data.tensor);
    return resolve_mttkrp_mode(data.tensor, rank, opts, spec,
                               kDefaultDimtreeBudgetBytes,
                               blco.storage_bytes(), data.nnz_scale());
  };
  const ScatterOptions defaults;
  ScatterOptions sorted;
  sorted.strategy = ScatterStrategy::kSorted;
  // Cache-resident factors (NIPS/Uber): random traffic is nearly free, the
  // chain streaming only adds cost -> flat. Long-mode 4-way tensors: the
  // suffix derives shrink the working set -> dimtree. The forced-sorted
  // configuration prices both engines' scatters identically, so the
  // decisions must not flip.
  EXPECT_EQ(decide("NIPS", defaults), MttkrpMode::kFlat);
  EXPECT_EQ(decide("NIPS", sorted), MttkrpMode::kFlat);
  EXPECT_EQ(decide("Uber", defaults), MttkrpMode::kFlat);
  EXPECT_EQ(decide("Chicago", defaults), MttkrpMode::kDimtree);
  EXPECT_EQ(decide("Chicago", sorted), MttkrpMode::kDimtree);
  EXPECT_EQ(decide("Delicious", defaults), MttkrpMode::kDimtree);
}

}  // namespace
}  // namespace cstf
