// Randomized differential property sweeps across the whole stack: for many
// seeds and shapes, every format must reconstruct the same tensor, every
// MTTKRP kernel must agree, and a full factorization run must satisfy its
// invariants (feasibility, normalization, fit bounds, determinism).
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "cstf/framework.hpp"
#include "la/blas.hpp"
#include "la/elementwise.hpp"
#include "formats/alto.hpp"
#include "formats/blco.hpp"
#include "formats/csf.hpp"
#include "mttkrp/alto_mttkrp.hpp"
#include "mttkrp/blco_mttkrp.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "mttkrp/csf_mttkrp.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

// Derives a pseudo-random but deterministic shape from the seed.
SparseTensor tensor_for_seed(std::uint64_t seed) {
  Rng shape_rng(seed * 7919);
  const int modes = 2 + static_cast<int>(shape_rng.uniform_index(3));
  RandomTensorParams params;
  for (int m = 0; m < modes; ++m) {
    params.dims.push_back(
        5 + static_cast<index_t>(shape_rng.uniform_index(120)));
  }
  params.target_nnz = 200 + static_cast<index_t>(shape_rng.uniform_index(3000));
  params.mode_dist.assign(static_cast<std::size_t>(modes),
                          ModeDistribution{shape_rng.uniform(0.0, 1.4)});
  params.seed = seed;
  return generate_random(params);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, AllFormatsPreserveTheTensor) {
  const SparseTensor t = tensor_for_seed(GetParam());
  std::map<std::vector<index_t>, real_t> want;
  for (index_t i = 0; i < t.nnz(); ++i) {
    std::vector<index_t> key;
    for (int m = 0; m < t.num_modes(); ++m) {
      key.push_back(t.indices(m)[static_cast<std::size_t>(i)]);
    }
    want[key] += t.values()[static_cast<std::size_t>(i)];
  }

  const AltoTensor alto(t);
  ASSERT_EQ(static_cast<std::size_t>(alto.nnz()), want.size());
  real_t alto_sum = 0.0;
  for (real_t v : alto.values()) alto_sum += v;

  const BlcoTensor blco(t, 512);
  ASSERT_EQ(blco.nnz(), alto.nnz());
  index_t coords[kMaxModes];
  real_t blco_sum = 0.0;
  for (index_t b = 0; b < blco.num_blocks(); ++b) {
    const BlcoBlock& blk = blco.block(b);
    for (index_t i = 0; i < blk.count; ++i) {
      blco.encoding().decode_all(blco.element_lco(blk, i), coords);
      std::vector<index_t> key(coords, coords + t.num_modes());
      auto it = want.find(key);
      ASSERT_NE(it, want.end());
      EXPECT_DOUBLE_EQ(
          it->second,
          blco.values()[static_cast<std::size_t>(blk.value_offset + i)]);
      blco_sum += blco.values()[static_cast<std::size_t>(blk.value_offset + i)];
    }
  }
  EXPECT_NEAR(alto_sum, blco_sum, 1e-9 * std::abs(alto_sum));

  const CsfTensor csf(t, t.num_modes() - 1);
  EXPECT_EQ(csf.nnz(), alto.nnz());
}

TEST_P(SeedSweep, EveryMttkrpKernelAgreesOnEveryMode) {
  const SparseTensor t = tensor_for_seed(GetParam());
  Rng rng(GetParam() + 1);
  const index_t rank = 4 + static_cast<index_t>(rng.uniform_index(13));
  std::vector<Matrix> factors;
  for (int m = 0; m < t.num_modes(); ++m) {
    Matrix f(t.dim(m), rank);
    f.fill_normal(rng);  // signed values exercise cancellation too
    factors.push_back(std::move(f));
  }
  const AltoTensor alto(t);
  const BlcoTensor blco(t, 1024);
  simgpu::Device dev(simgpu::a100());
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    Matrix want(t.dim(mode), rank);
    mttkrp_ref(t, factors, mode, want);
    Matrix got(t.dim(mode), rank);
    mttkrp_coo(t, factors, mode, got);
    EXPECT_LT(max_abs_diff(got, want), 1e-9) << "coo mode " << mode;
    CsfTensor csf(t, mode);
    mttkrp_csf(csf, factors, got);
    EXPECT_LT(max_abs_diff(got, want), 1e-9) << "csf mode " << mode;
    mttkrp_alto(alto, factors, mode, got);
    EXPECT_LT(max_abs_diff(got, want), 1e-9) << "alto mode " << mode;
    mttkrp_blco(dev, blco, factors, mode, got);
    EXPECT_LT(max_abs_diff(got, want), 1e-9) << "blco mode " << mode;
    mttkrp_blco_streamed(dev, blco, factors, mode, got,
                         blco.storage_bytes() / 3.0);
    EXPECT_LT(max_abs_diff(got, want), 1e-9) << "streamed mode " << mode;
  }
}

TEST_P(SeedSweep, FactorizationInvariantsHold) {
  const SparseTensor t = tensor_for_seed(GetParam());
  FrameworkOptions opt;
  opt.rank = 4;
  opt.max_iterations = 3;
  opt.seed = GetParam();
  CstfFramework framework(t, opt);
  const AuntfResult result = framework.run();

  // Fit is bounded above by 1 and is finite.
  EXPECT_TRUE(std::isfinite(result.final_fit));
  EXPECT_LE(result.final_fit, 1.0 + 1e-9);

  const KTensor model = framework.ktensor();
  for (const Matrix& f : model.factors) {
    EXPECT_TRUE(Proximity::non_negative().is_feasible(f, 1e-9));
    std::vector<real_t> norms(static_cast<std::size_t>(f.cols()));
    la::column_norms(f, norms.data());
    for (index_t j = 0; j < f.cols(); ++j) {
      const real_t norm = norms[static_cast<std::size_t>(j)];
      EXPECT_TRUE(std::abs(norm - 1.0) < 1e-6 || norm < 1e-9);
    }
  }
  for (real_t l : model.lambda) {
    EXPECT_TRUE(std::isfinite(l));
    EXPECT_GE(l, 0.0);
  }
  // The driver's internal fit matches the exact recomputation.
  EXPECT_NEAR(model.fit_to(t), result.final_fit, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace cstf
