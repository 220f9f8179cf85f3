// Dimension-tree MTTKRP engine tests: bit-identity against the sequential
// reference across orders/ranks/modes (the property DESIGN.md §13 builds
// on), chain staleness handling, the budget-cap flat fallback, and the
// tree-vs-flat cost-model resolution.
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

// (num_modes, rank) sweep: orders 3-5, ranks {1, 8, 17}.
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
  // values (the update step) and tell the engine — exactly the trainer's
  // call pattern, including the second sweep's chain rebuild.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int mode = 0; mode < modes; ++mode) {
      Matrix want(t.dim(mode), rank), got(t.dim(mode), rank);
      mttkrp_ref(t, factors, mode, want);
      engine.mttkrp(dev, factors, mode, got, sorted_opts());
      EXPECT_TRUE(bit_identical(got, want))
          << "sweep " << sweep << " mode " << mode;
      factors[static_cast<std::size_t>(mode)].fill_uniform(rng, 0.1, 1.0);
      engine.note_factor_updated(mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndRanks, DimtreeSweep,
    ::testing::Combine(::testing::Values(3, 4, 5),
                       ::testing::Values<index_t>(1, 8, 17)));

TEST(DimtreeInvalidation, FingerprintCatchesSilentFactorMutation) {
  const SparseTensor t = random_tensor({19, 23, 17, 13}, 900, 61);
  auto factors = random_factors(t, 8, 62);
  DimTreeEngine engine(t, 8);
  simgpu::Device dev(simgpu::a100());
  Matrix out(t.dim(2), 8), want(t.dim(2), 8);
  engine.mttkrp(dev, factors, 2, out, sorted_opts());
  ASSERT_EQ(engine.level(), 2);  // factors 0 and 1 folded

  // Mutate a folded factor in place without note_factor_updated — the
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

TEST(DimtreeInvalidation, NoteFactorUpdatedOnFoldedLevelDropsWholeChain) {
  const SparseTensor t = random_tensor({19, 23, 17, 13}, 900, 63);
  auto factors = random_factors(t, 4, 64);
  DimTreeEngine engine(t, 4);
  simgpu::Device dev(simgpu::a100());
  engine.extend_to(dev, factors, 3);
  ASSERT_EQ(engine.level(), 3);
  // The buffer holds only P_3; a stale factor 2 cannot be peeled off, so
  // the whole chain goes.
  engine.note_factor_updated(2);
  EXPECT_EQ(engine.level(), 0);
  engine.note_factor_updated(2);  // idempotent
  EXPECT_EQ(engine.level(), 0);

  // An update to a not-yet-folded factor is free (the trainer's in-order
  // sweep: level() == mode at update time).
  engine.extend_to(dev, factors, 2);
  ASSERT_EQ(engine.level(), 2);
  engine.note_factor_updated(2);
  EXPECT_EQ(engine.level(), 2);
  engine.note_factor_updated(3);
  EXPECT_EQ(engine.level(), 2);
  engine.invalidate();
  EXPECT_EQ(engine.level(), 0);
}

TEST(DimtreeInvalidation, MidPrefixUpdateThenExtendStaysBitIdentical) {
  // Regression: chain at P_2 = v ⊙ H0 ⊙ H1, then factor 1 is updated and
  // announced. A truncate-to-1 implementation would next fold the new H1
  // into a buffer still holding P_2, yielding v ⊙ H0 ⊙ H1_old ⊙ H1_new.
  const SparseTensor t = random_tensor({19, 23, 17, 13}, 900, 67);
  auto factors = random_factors(t, 8, 68);
  DimTreeEngine engine(t, 8);
  simgpu::Device dev(simgpu::a100());
  Matrix out(t.dim(2), 8), want(t.dim(2), 8);
  engine.mttkrp(dev, factors, 2, out, sorted_opts());
  ASSERT_EQ(engine.level(), 2);

  Rng rng(69);
  factors[1].fill_uniform(rng, 0.1, 1.0);
  engine.note_factor_updated(1);
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
  engine.extend_to(dev, factors, 2);
  ASSERT_EQ(engine.level(), 2);
  engine.extend_to(dev, factors, 1);  // cannot unfold: rebuilds prefix
  EXPECT_EQ(engine.level(), 1);
  Matrix want(t.dim(1), 4), got(t.dim(1), 4);
  mttkrp_ref(t, factors, 1, want);
  engine.mttkrp(dev, factors, 1, got, sorted_opts());
  EXPECT_TRUE(bit_identical(got, want));
}

TEST(DimtreeBudget, CapFallsBackToFlatMidIteration) {
  const SparseTensor t = random_tensor({29, 31, 23, 19}, 1100, 71);
  const auto factors = random_factors(t, 8, 72);
  DimTreeEngine engine(t, 8);
  simgpu::Device dev(simgpu::a100());
  Matrix want(t.dim(1), 8), got(t.dim(1), 8);

  engine.mttkrp(dev, factors, 1, got, sorted_opts());
  ASSERT_TRUE(engine.chain_fits());
  ASSERT_EQ(engine.level(), 1);

  // The cap drops below the chain mid-iteration: the chain is released and
  // the remaining modes run flat, with identical results.
  engine.set_budget_bytes(engine.chain_bytes() - 1.0);
  EXPECT_FALSE(engine.chain_fits());
  EXPECT_EQ(engine.level(), 0);
  for (int mode = 1; mode < t.num_modes(); ++mode) {
    Matrix w(t.dim(mode), 8), g(t.dim(mode), 8);
    mttkrp_ref(t, factors, mode, w);
    engine.mttkrp(dev, factors, mode, g, sorted_opts());
    EXPECT_TRUE(bit_identical(g, w)) << "mode " << mode;
    EXPECT_EQ(engine.level(), 0) << "mode " << mode;
  }

  // Raising the budget restores reuse.
  engine.set_budget_bytes(2.0 * engine.chain_bytes());
  mttkrp_ref(t, factors, 1, want);
  engine.mttkrp(dev, factors, 1, got, sorted_opts());
  EXPECT_TRUE(bit_identical(got, want));
  EXPECT_EQ(engine.level(), 1);
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
  EXPECT_NE(desc.find("within"), std::string::npos);
}

TEST(DimtreeStats, TreeSequenceModelsFasterOnTreeFavorableShape) {
  // Chicago-like: 4-way, one long mode, large enough that factors spill the
  // cache at full scale — the configuration the acceptance gate measures.
  const DatasetAnalog data = make_analog("Chicago");
  const BlcoTensor blco(data.tensor);
  DimTreeEngine engine(data.tensor, 32);
  engine.set_flat_stream_bytes(blco.storage_bytes());
  const ScatterOptions opts;
  const double flat_s = perfmodel::modeled_sequence_scaled(
      engine.flat_iteration_stats(opts), data.nnz_scale(), simgpu::a100());
  const double tree_s = perfmodel::modeled_sequence_scaled(
      engine.tree_iteration_stats(opts), data.nnz_scale(), simgpu::a100());
  EXPECT_GT(flat_s / tree_s, 1.3);
}

}  // namespace
}  // namespace cstf
