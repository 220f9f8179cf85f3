// Differential tests: every MTTKRP kernel must agree with the sequential
// reference on every mode, across shapes, ranks, and formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <tuple>
#include <utility>

#include "formats/alto.hpp"
#include "formats/blco.hpp"
#include "formats/csf.hpp"
#include "la/matrix.hpp"
#include "mttkrp/alto_mttkrp.hpp"
#include "mttkrp/blco_mttkrp.hpp"
#include "simgpu/cost_model.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "mttkrp/csf_mttkrp.hpp"
#include "mttkrp/dimtree.hpp"
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
  // Each batch stages its blocks as its own mttkrp_stage_batch span, which
  // carries every host-link byte; the kernels carry none. Asking for the
  // records changes no result bit, and the double-buffered makespan of
  // those records lands in [compute-only, copy-then-compute sum].
  SparseTensor t = random_tensor({80, 70, 60}, 6000, 61);
  const auto factors = random_factors(t, 16, 62);
  const BlcoTensor blco(t, 256);
  const double budget = blco.storage_bytes() / 4.0;

  simgpu::Device plain(simgpu::a100());
  Matrix want(t.dim(0), 16);
  const index_t batches =
      mttkrp_blco_streamed(plain, blco, factors, 0, want, budget);
  ASSERT_GE(batches, 4);

  simgpu::Device dev(simgpu::a100());
  Matrix got(t.dim(0), 16);
  StagedRecords staged;
  EXPECT_EQ(mttkrp_blco_streamed(dev, blco, factors, 0, got, budget, &staged),
            batches);
  EXPECT_EQ(max_abs_diff(got, want), 0.0);
  ASSERT_EQ(static_cast<index_t>(staged.batches.size()), batches);

  double staged_bytes = 0.0;
  for (const StagedRecords::Batch& batch : staged.batches) {
    staged_bytes += batch.transfer.host_link_bytes;
  }
  const auto& stage = dev.per_kernel().at("mttkrp_stage_batch");
  EXPECT_EQ(stage.launches, batches);
  EXPECT_DOUBLE_EQ(stage.host_link_bytes, staged_bytes);
  EXPECT_DOUBLE_EQ(dev.total().host_link_bytes, stage.host_link_bytes);
  EXPECT_DOUBLE_EQ(
      dev.per_kernel().at("mttkrp_blco_streamed").host_link_bytes, 0.0);

  const double serial = dev.modeled_time_s();
  const double overlap = staged_makespan_s(staged, dev.spec());
  const double compute_only = dev.modeled_kernel_time_s("mttkrp_blco_streamed");
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
  const auto& stats = dev.per_kernel().at("mttkrp_stage_batch");
  // Every compressed byte must have been staged exactly once, and only by
  // the transfer spans.
  double expected = 0.0;
  for (index_t b = 0; b < blco.num_blocks(); ++b) {
    expected += static_cast<double>(blco.block(b).packed_deltas.size()) *
                    sizeof(std::uint64_t) +
                static_cast<double>(blco.block(b).count) * sizeof(real_t);
  }
  EXPECT_NEAR(stats.host_link_bytes, expected, 1.0);
  EXPECT_DOUBLE_EQ(dev.total().host_link_bytes, stats.host_link_bytes);
  const auto t_model = simgpu::model_time(stats, dev.spec());
  EXPECT_GT(t_model.link_s, 0.0);
}

// --- the double-buffered staging recurrence ----------------------------------

// A record whose modeled time is exactly `seconds`: a chain of seconds x
// serial_op_rate dependent ops with no traffic and no launch, so it is not
// rescaled (serial depth is intensive).
simgpu::KernelStats serial_span(const simgpu::DeviceSpec& spec,
                                double seconds) {
  simgpu::KernelStats s;
  s.serial_depth = seconds * spec.serial_op_rate;
  return s;
}

// Records with an empty zero-fill and one launch per batch, each batch given
// as {transfer, compute} seconds.
StagedRecords serial_batches(
    const simgpu::DeviceSpec& spec,
    std::initializer_list<std::pair<double, double>> batches) {
  StagedRecords records;
  for (const auto& [transfer_s, compute_s] : batches) {
    records.batches.push_back(
        {serial_span(spec, transfer_s), {serial_span(spec, compute_s)}});
  }
  return records;
}

// The copy-then-compute sum: every record modeled on its own, added up.
double serial_sum_s(const StagedRecords& records,
                    const simgpu::DeviceSpec& spec) {
  double t = simgpu::model_time(records.zero_fill, spec).total_s;
  for (const StagedRecords::Batch& batch : records.batches) {
    t += simgpu::model_time(batch.transfer, spec).total_s;
    for (const simgpu::KernelStats& stats : batch.compute) {
      t += simgpu::model_time(stats, spec).total_s;
    }
  }
  return t;
}

TEST(StagedMakespan, TwoBatchPipelineIsHandComputed) {
  // Classic double-buffered copy/compute pipeline with known durations:
  //   copy:    t0 [0,2]  t1 [2,4]
  //   compute: c0 waits t0 -> [2,5]; c1 waits t1 -> [5,8]
  // The serial sum is 10 s; the pipelined makespan must be exactly 8 s.
  const simgpu::DeviceSpec spec = simgpu::a100();
  StagedRecords records = serial_batches(spec, {{2.0, 3.0}, {2.0, 3.0}});
  EXPECT_DOUBLE_EQ(staged_makespan_s(records, spec), 8.0);
  EXPECT_DOUBLE_EQ(serial_sum_s(records, spec), 10.0);
  // The zero-fill heads the compute lane: c0 -> [2.5,5.5], c1 -> [5.5,8.5].
  records.zero_fill = serial_span(spec, 2.5);
  EXPECT_DOUBLE_EQ(staged_makespan_s(records, spec), 8.5);
}

TEST(StagedMakespan, TransferWaitsForTheComputeTwoBatchesBack) {
  // Two staging buffers: transfer 2 overwrites the buffer compute 0 reads,
  // so it waits for compute 0 although the copy lane is idle from t = 2:
  //   copy:    t0 [0,1]  t1 [1,2]    t2 waits c0 -> [4,9]
  //   compute: c0 [1,4]  c1 [4,4.5]  c2 waits t2 -> [9,10]
  // Without that wait t2 would run [2,7] and c2 [7,8], a makespan of 8 s.
  // The serial sum is 11.5 s.
  const simgpu::DeviceSpec spec = simgpu::a100();
  const StagedRecords records =
      serial_batches(spec, {{1.0, 3.0}, {1.0, 0.5}, {5.0, 1.0}});
  EXPECT_DOUBLE_EQ(staged_makespan_s(records, spec), 10.0);
  EXPECT_DOUBLE_EQ(serial_sum_s(records, spec), 11.5);
}

TEST(StagedMakespan, ComputeHidesBehindHostLinkTransfer) {
  // A flop-bound kernel and a host-link transfer use different resources,
  // so the pipeline overlaps them: the makespan is at least the busier
  // lane, and well below the serial sum.
  const simgpu::DeviceSpec spec = simgpu::a100();
  simgpu::KernelStats compute;
  compute.flops = 1e12;
  compute.parallel_items = 1e9;
  simgpu::KernelStats copy;
  copy.host_link_bytes = 1e9;
  copy.parallel_items = 1.0;
  StagedRecords records;
  for (int i = 0; i < 4; ++i) records.batches.push_back({copy, {compute}});
  const double t_compute = simgpu::model_time(compute, spec).total_s;
  const double t_copy = simgpu::model_time(copy, spec).total_s;
  const double makespan = staged_makespan_s(records, spec);
  EXPECT_GE(makespan, 4.0 * std::max(t_compute, t_copy) * (1 - 1e-12));
  EXPECT_LT(makespan, 0.99 * serial_sum_s(records, spec));
}

TEST(StagedMakespan, ScalesExtensiveQuantities) {
  // staged_makespan_s(records, spec, k) upscales each record like
  // perfmodel::modeled_time_scaled: a bandwidth-bound schedule's time grows
  // by k; a serial chain's does not.
  const simgpu::DeviceSpec spec = simgpu::a100();
  simgpu::KernelStats memory;
  memory.bytes_streamed = 1e9;
  memory.parallel_items = 1e9;
  simgpu::KernelStats link;
  link.host_link_bytes = 1e9;
  StagedRecords records;
  records.batches.push_back({link, {memory}});
  const double base = staged_makespan_s(records, spec);
  EXPECT_NEAR(staged_makespan_s(records, spec, 10.0), 10.0 * base,
              1e-9 * base);
  EXPECT_DOUBLE_EQ(
      staged_makespan_s(serial_batches(spec, {{1.0, 2.0}}), spec, 10.0), 3.0);
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
                         [](const auto& name_info) {
                           return scatter_strategy_name(name_info.param);
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
    if (s > 0) {
      ASSERT_LT(plan.seg_row[su - 1], plan.seg_row[su]);
    }
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

// Regression (scatter-engine audit): each nonzero's product must be formed
// afresh, and the sorted path's segment accumulator, reused thread_local
// scratch, must start each segment at zero. A nonzero whose factor rows are
// all zero would expose any stale value left by the previous nonzero
// handled on the same thread.
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

TEST(Mttkrp, BlcoBlockSpanningTheWholeLcoRangeMatchesReference) {
  // Eight 8-bit modes fill all 64 linearized bits, and the two corners put
  // one block's deltas across the whole range (64-bit deltas).
  SparseTensor t(std::vector<index_t>(8, 256));
  t.append(std::vector<index_t>(8, 0), 1.5);
  Rng rng(116);
  for (int k = 0; k < 200; ++k) {
    std::vector<index_t> coords;
    for (int m = 0; m < 8; ++m) {
      coords.push_back(static_cast<index_t>(rng.uniform_index(256)));
    }
    t.append(coords, rng.uniform(0.5, 1.0));
  }
  t.append(std::vector<index_t>(8, 255), 2.5);
  t.validate();
  const BlcoTensor blco(t);
  ASSERT_EQ(blco.num_blocks(), 1);
  ASSERT_EQ(blco.block(0).delta_bits, 64);
  const auto factors = random_factors(t, 4, 117);
  simgpu::Device dev(simgpu::a100());
  for (ScatterStrategy strategy :
       {ScatterStrategy::kPrivatized, ScatterStrategy::kSorted}) {
    for (int mode = 0; mode < t.num_modes(); ++mode) {
      Matrix want(t.dim(mode), 4), got(t.dim(mode), 4);
      mttkrp_ref(t, factors, mode, want);
      mttkrp_blco(dev, blco, factors, mode, got, explicit_strategy(strategy));
      EXPECT_LT(max_abs_diff(got, want), 1e-12)
          << scatter_strategy_name(strategy) << " mode " << mode;
    }
  }
}

// ---------------------------------------------------------------------------
// Serial oracles: the privatized and sorted paths' exact bits
// ---------------------------------------------------------------------------
//
// The privatized kernels regroup each output row's sum by tile, so they are
// not bitwise equal to mttkrp_ref. Their grouping is fixed, though: the
// oracle below rebuilds it serially — each tile accumulates its nonzero
// range in order into a zeroed column-major buffer, each Khatri-Rao row
// formed as v, then *= H_m(c_m) for ascending m != mode, and the tiles are
// combined by the same pairwise tree — and the kernels must match it bit for
// bit at any worker count. The sorted BLCO kernel sums each row into its
// own zeroed vector and adds that onto the output; its oracle does the same.

struct OracleNonzero {
  index_t coords[kMaxModes] = {};
  real_t value = 0.0;
};

std::vector<OracleNonzero> coo_order(const SparseTensor& t) {
  std::vector<OracleNonzero> nz(static_cast<std::size_t>(t.nnz()));
  for (index_t i = 0; i < t.nnz(); ++i) {
    auto& e = nz[static_cast<std::size_t>(i)];
    for (int m = 0; m < t.num_modes(); ++m) {
      e.coords[m] = t.indices(m)[static_cast<std::size_t>(i)];
    }
    e.value = t.values()[static_cast<std::size_t>(i)];
  }
  return nz;
}

// The order ALTO and BLCO visit the nonzeros: ascending linearized
// coordinate. generate_random coalesces duplicates, so the keys are distinct.
std::vector<OracleNonzero> linearized_order(const SparseTensor& t) {
  const LinearizedEncoding enc(t.dims());
  std::vector<OracleNonzero> nz = coo_order(t);
  std::sort(nz.begin(), nz.end(),
            [&](const OracleNonzero& a, const OracleNonzero& b) {
              return enc.encode(a.coords) < enc.encode(b.coords);
            });
  return nz;
}

// Adds nonzeros [lo, hi) of `nz` into the tile, in order. The tile is laid
// out like the output matrix: row-major, row c at tile[c * R].
void oracle_accumulate(const std::vector<OracleNonzero>& nz, index_t lo,
                       index_t hi, const std::vector<Matrix>& factors,
                       int mode, std::vector<real_t>& tile) {
  const index_t rank = factors[0].cols();
  std::vector<real_t> row(static_cast<std::size_t>(rank));
  for (index_t i = lo; i < hi; ++i) {
    const OracleNonzero& e = nz[static_cast<std::size_t>(i)];
    for (index_t r = 0; r < rank; ++r) {
      row[static_cast<std::size_t>(r)] = e.value;
    }
    for (int m = 0; m < static_cast<int>(factors.size()); ++m) {
      if (m == mode) continue;
      for (index_t r = 0; r < rank; ++r) {
        row[static_cast<std::size_t>(r)] *=
            factors[static_cast<std::size_t>(m)](e.coords[m], r);
      }
    }
    for (index_t r = 0; r < rank; ++r) {
      tile[static_cast<std::size_t>(e.coords[mode] * rank + r)] +=
          row[static_cast<std::size_t>(r)];
    }
  }
}

// Level by level, tiles[i] += tiles[i + stride]; the sum lands in tiles[0].
void oracle_tree(std::vector<std::vector<real_t>>& tiles) {
  for (std::size_t stride = 1; stride < tiles.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < tiles.size(); i += 2 * stride) {
      for (std::size_t j = 0; j < tiles[i].size(); ++j) {
        tiles[i][j] += tiles[i + stride][j];
      }
    }
  }
}

// The shared engine's grouping: ceil(nnz / T) nonzero-range chunks.
Matrix engine_oracle(const std::vector<OracleNonzero>& nz,
                     const std::vector<Matrix>& factors, int mode,
                     index_t mode_len) {
  const auto nnz = static_cast<index_t>(nz.size());
  const index_t rank = factors[0].cols();
  const index_t tiles = privatized_tile_count(nnz);
  const index_t chunk = (nnz + tiles - 1) / tiles;
  std::vector<std::vector<real_t>> tile(
      static_cast<std::size_t>(tiles),
      std::vector<real_t>(static_cast<std::size_t>(mode_len * rank), 0.0));
  for (index_t t = 0; t < tiles; ++t) {
    const index_t lo = std::min(t * chunk, nnz);
    oracle_accumulate(nz, lo, std::min(lo + chunk, nnz), factors, mode,
                      tile[static_cast<std::size_t>(t)]);
  }
  oracle_tree(tile);
  Matrix out(mode_len, rank);
  std::copy(tile[0].begin(), tile[0].end(), out.data());
  return out;
}

// BLCO's grouping over blocks [block_lo, block_hi): min(T(range nnz),
// blocks) tiles of ceil(blocks / tiles) whole blocks each, tile 0 seeded
// from `out`, the result written back to `out`.
void blco_range_oracle(const BlcoTensor& blco,
                       const std::vector<OracleNonzero>& nz,
                       const std::vector<Matrix>& factors, int mode,
                       index_t block_lo, index_t block_hi, Matrix& out) {
  const index_t blocks = block_hi - block_lo;
  const index_t first = blco.block(block_lo).value_offset;
  const BlcoBlock& last = blco.block(block_hi - 1);
  const index_t range_nnz = last.value_offset + last.count - first;
  const index_t tiles = std::min(privatized_tile_count(range_nnz), blocks);
  const index_t per_tile = (blocks + tiles - 1) / tiles;
  std::vector<std::vector<real_t>> tile(
      static_cast<std::size_t>(tiles),
      std::vector<real_t>(static_cast<std::size_t>(out.size()), 0.0));
  std::copy(out.data(), out.data() + out.size(), tile[0].begin());
  for (index_t t = 0; t < tiles; ++t) {
    const index_t b_lo = block_lo + t * per_tile;
    const index_t b_hi = std::min(b_lo + per_tile, block_hi);
    if (b_lo >= b_hi) continue;
    const BlcoBlock& end = blco.block(b_hi - 1);
    oracle_accumulate(nz, blco.block(b_lo).value_offset,
                      end.value_offset + end.count, factors, mode,
                      tile[static_cast<std::size_t>(t)]);
  }
  oracle_tree(tile);
  std::copy(tile[0].begin(), tile[0].end(), out.data());
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.data(), a.data() + a.size(), b.data(),
                    [](real_t x, real_t y) {
                      return std::memcmp(&x, &y, sizeof x) == 0;
                    });
}

// The sorted BLCO kernel's grouping over blocks [block_lo, block_hi): each
// output row sums its nonzeros serially, in ascending BLCO id, into a zeroed
// R-vector, which is then added onto that row of `out`. Rows without a
// nonzero in the range are left alone.
void sorted_range_oracle(const BlcoTensor& blco,
                         const std::vector<OracleNonzero>& nz,
                         const std::vector<Matrix>& factors, int mode,
                         index_t block_lo, index_t block_hi, Matrix& out) {
  const index_t lo = blco.block(block_lo).value_offset;
  const BlcoBlock& end = blco.block(block_hi - 1);
  const index_t hi = end.value_offset + end.count;
  std::vector<real_t> sums(static_cast<std::size_t>(out.size()), 0.0);
  oracle_accumulate(nz, lo, hi, factors, mode, sums);
  std::vector<bool> touched(static_cast<std::size_t>(out.rows()), false);
  for (index_t i = lo; i < hi; ++i) {
    touched[static_cast<std::size_t>(
        nz[static_cast<std::size_t>(i)].coords[mode])] = true;
  }
  for (index_t row = 0; row < out.rows(); ++row) {
    if (!touched[static_cast<std::size_t>(row)]) continue;
    for (index_t r = 0; r < out.cols(); ++r) {
      out(row, r) += sums[static_cast<std::size_t>(row * out.cols() + r)];
    }
  }
}

// A 2-, 3-, 4- and 5-way tensor (1 to 4 gathered factors per nonzero) with
// short modes (every mode's tiles fit the default budget) and enough
// nonzeros for several tiles at any worker count.
std::vector<SparseTensor> oracle_tensors() {
  std::vector<SparseTensor> ts;
  ts.push_back(random_tensor({311, 331}, 20000, 116));
  ts.push_back(random_tensor({37, 41, 53}, 20000, 111));
  ts.push_back(random_tensor({13, 17, 19, 23}, 20000, 112));
  ts.push_back(random_tensor({7, 11, 13, 17, 19}, 20000, 117));
  return ts;
}

// A single column, an even rank and an odd one: a vectorized rank loop runs
// in pairs, and an odd rank also runs its remainder iteration.
constexpr index_t kOracleRanks[] = {1, 16, 17};

TEST(Scatter, PrivatizedEngineMatchesSerialTileOracleBitwise) {
  const ScatterOptions opts = explicit_strategy(ScatterStrategy::kPrivatized);
  for (const SparseTensor& t : oracle_tensors()) {
    const auto coo_nz = coo_order(t);
    const auto lin_nz = linearized_order(t);
    const AltoTensor alto(t);
    for (index_t rank : kOracleRanks) {
      const auto factors = random_factors(t, rank, 113);
      DimTreeEngine tree(t, rank);
      simgpu::Device dev(simgpu::a100());
      for (int mode = 0; mode < t.num_modes(); ++mode) {
        const Matrix want_coo =
            engine_oracle(coo_nz, factors, mode, t.dim(mode));
        const Matrix want_lin =
            engine_oracle(lin_nz, factors, mode, t.dim(mode));
        Matrix coo(t.dim(mode), rank), alto_out(t.dim(mode), rank),
            derived(t.dim(mode), rank);
        mttkrp_coo(t, factors, mode, coo, opts);
        mttkrp_alto(alto, factors, mode, alto_out, opts);
        // Mode 0 runs the engine's flat path, the others derive from the
        // chain; both form each row in the same product order.
        tree.mttkrp(dev, factors, mode, derived, opts);
        EXPECT_TRUE(bitwise_equal(coo, want_coo))
            << t.num_modes() << "-way R=" << rank << " coo mode " << mode;
        EXPECT_TRUE(bitwise_equal(alto_out, want_lin))
            << t.num_modes() << "-way R=" << rank << " alto mode " << mode;
        EXPECT_TRUE(bitwise_equal(derived, want_coo))
            << t.num_modes() << "-way R=" << rank << " dimtree mode " << mode;
      }
    }
  }
}

TEST(Scatter, PrivatizedBlcoMatchesSerialTileOracleBitwise) {
  const ScatterOptions opts = explicit_strategy(ScatterStrategy::kPrivatized);
  for (const SparseTensor& t : oracle_tensors()) {
    const auto nz = linearized_order(t);
    for (index_t rank : kOracleRanks) {
      const auto factors = random_factors(t, rank, 114);
      // 256: more blocks than tiles; 4096: fewer blocks than T at 4 workers.
      for (index_t capacity : {index_t{256}, index_t{4096}}) {
        const BlcoTensor blco(t, capacity);
        simgpu::Device dev(simgpu::a100());
        for (int mode = 0; mode < t.num_modes(); ++mode) {
          Matrix want(t.dim(mode), rank), got(t.dim(mode), rank);
          blco_range_oracle(blco, nz, factors, mode, 0, blco.num_blocks(),
                            want);
          mttkrp_blco(dev, blco, factors, mode, got, opts);
          EXPECT_TRUE(bitwise_equal(got, want))
              << t.num_modes() << "-way R=" << rank << " capacity "
              << capacity << " mode " << mode;
        }
      }
    }
  }
}

TEST(Scatter, StreamedPrivatizedMatchesSerialTileOracleBitwise) {
  for (const SparseTensor& t : oracle_tensors()) {
    const auto nz = linearized_order(t);
    const BlcoTensor blco(t, 256);
    const double budget = blco.storage_bytes() / 5.0;
    for (index_t rank : kOracleRanks) {
      const auto factors = random_factors(t, rank, 115);
      for (int mode = 0; mode < t.num_modes(); ++mode) {
        ASSERT_EQ(resolve_scatter_strategy(ScatterOptions{}, t.dim(mode),
                                           rank, t.nnz()),
                  ScatterStrategy::kPrivatized);
        // Batch by batch, as the streamed kernel cuts them; each batch's
        // tile 0 starts from what the earlier batches left in the output.
        Matrix want(t.dim(mode), rank);
        const index_t batches = std::min(
            static_cast<index_t>(std::ceil(blco.storage_bytes() / budget)),
            blco.num_blocks());
        const index_t per_batch = (blco.num_blocks() + batches - 1) / batches;
        index_t used = 0;
        for (index_t lo = 0; lo < blco.num_blocks(); lo += per_batch, ++used) {
          blco_range_oracle(blco, nz, factors, mode, lo,
                            std::min(lo + per_batch, blco.num_blocks()), want);
        }
        simgpu::Device dev(simgpu::a100());
        Matrix got(t.dim(mode), rank);
        EXPECT_EQ(mttkrp_blco_streamed(dev, blco, factors, mode, got, budget),
                  used);
        EXPECT_TRUE(bitwise_equal(got, want))
            << t.num_modes() << "-way R=" << rank << " mode " << mode;
      }
    }
  }
}

TEST(Scatter, SortedBlcoMatchesSerialSegmentOracleBitwise) {
  const ScatterOptions opts = explicit_strategy(ScatterStrategy::kSorted);
  for (const SparseTensor& t : oracle_tensors()) {
    const auto nz = linearized_order(t);
    for (index_t rank : kOracleRanks) {
      const auto factors = random_factors(t, rank, 118);
      for (index_t capacity : {index_t{256}, index_t{4096}}) {
        const BlcoTensor blco(t, capacity);
        simgpu::Device dev(simgpu::a100());
        for (int mode = 0; mode < t.num_modes(); ++mode) {
          Matrix want(t.dim(mode), rank), got(t.dim(mode), rank);
          sorted_range_oracle(blco, nz, factors, mode, 0, blco.num_blocks(),
                              want);
          EXPECT_EQ(mttkrp_blco(dev, blco, factors, mode, got, opts),
                    ScatterStrategy::kSorted);
          EXPECT_TRUE(bitwise_equal(got, want))
              << t.num_modes() << "-way R=" << rank << " capacity "
              << capacity << " mode " << mode;
        }
      }
    }
  }

  // The streamed kernel runs sorted only where privatized tiles exceed the
  // default budget: mode 0 of this tensor at R >= 16 (>= 4 tiles x 150000
  // x R words). Each batch sums over its own nonzeros and adds onto what
  // the earlier batches left in the output.
  const SparseTensor t = random_tensor({150000, 70, 60}, 6000, 119);
  const auto nz = linearized_order(t);
  const BlcoTensor blco(t, 256);
  const double budget = blco.storage_bytes() / 4.0;
  for (index_t rank : {index_t{16}, index_t{17}}) {
    const auto factors = random_factors(t, rank, 120);
    ASSERT_EQ(resolve_scatter_strategy(ScatterOptions{}, t.dim(0), rank,
                                       t.nnz()),
              ScatterStrategy::kSorted);
    Matrix want(t.dim(0), rank);
    const index_t batches = std::min(
        static_cast<index_t>(std::ceil(blco.storage_bytes() / budget)),
        blco.num_blocks());
    const index_t per_batch = (blco.num_blocks() + batches - 1) / batches;
    index_t used = 0;
    for (index_t lo = 0; lo < blco.num_blocks(); lo += per_batch, ++used) {
      sorted_range_oracle(blco, nz, factors, 0, lo,
                          std::min(lo + per_batch, blco.num_blocks()), want);
    }
    simgpu::Device dev(simgpu::a100());
    Matrix got(t.dim(0), rank);
    EXPECT_EQ(mttkrp_blco_streamed(dev, blco, factors, 0, got, budget), used);
    EXPECT_GE(used, 4);
    EXPECT_TRUE(bitwise_equal(got, want)) << "streamed R=" << rank;
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

// Golden decision table for the scatter resolver across a (mode length,
// nnz, budget) sweep. Budgets are expressed as multiples of the exact tile
// footprint so the table is independent of the host's worker count.
TEST(DecisionGolden, ScatterStrategyTable) {
  const index_t rank = 16;
  const auto tile_footprint = [&](index_t mode_len, index_t nnz) {
    return static_cast<double>(privatized_tile_count(nnz)) *
           static_cast<double>(mode_len) * static_cast<double>(rank) * 8.0;
  };
  struct Case {
    index_t mode_len;
    index_t nnz;
    double budget_mult;  // x tile_footprint
    ScatterStrategy want;
  };
  const Case table[] = {
      // Fits the scratch budget -> privatized.
      {256, 4096, 2.0, ScatterStrategy::kPrivatized},
      {4096, 4096, 1.0, ScatterStrategy::kPrivatized},
      // Over budget -> sorted, at 16, 8 or 1 updates per row alike.
      {256, 4096, 0.5, ScatterStrategy::kSorted},
      {512, 4096, 0.5, ScatterStrategy::kSorted},
      {4096, 4096, 0.5, ScatterStrategy::kSorted},
  };
  for (const Case& c : table) {
    ScatterOptions opts;
    opts.privatization_budget_bytes =
        c.budget_mult * tile_footprint(c.mode_len, c.nnz);
    EXPECT_EQ(resolve_scatter_strategy(opts, c.mode_len, rank, c.nnz), c.want)
        << "mode_len=" << c.mode_len << " nnz=" << c.nnz
        << " budget_mult=" << c.budget_mult;
  }

  // Explicit requests pass through, whatever the budget.
  ScatterOptions forced;
  forced.strategy = ScatterStrategy::kPrivatized;
  forced.privatization_budget_bytes = 1.0;
  EXPECT_EQ(resolve_scatter_strategy(forced, 4096, rank, 4096),
            ScatterStrategy::kPrivatized);
}

}  // namespace
}  // namespace cstf
