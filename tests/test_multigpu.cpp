// Tests for the multi-GPU extension: sharding, exact MTTKRP equivalence,
// all-reduce cost model, and scaling behaviour.
#include <gtest/gtest.h>

#include <algorithm>

#include "multigpu/multi_gpu.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "perfmodel/admm_model.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

SparseTensor random_tensor(std::uint64_t seed, index_t nnz = 4000) {
  RandomTensorParams params;
  params.dims = {80, 60, 40};
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

TEST(AllReduce, ZeroForSingleDevice) {
  MultiGpuOptions opt;
  opt.num_devices = 1;
  EXPECT_DOUBLE_EQ(allreduce_time(opt, 1e9), 0.0);
}

TEST(AllReduce, RingFormula) {
  MultiGpuOptions opt;
  opt.num_devices = 4;
  opt.interconnect_bandwidth = 100e9;
  opt.interconnect_latency = 1e-6;
  // 2 * 3/4 * 1e9 / 100e9 + 6 * 1e-6.
  EXPECT_NEAR(allreduce_time(opt, 1e9), 0.015 + 6e-6, 1e-12);
}

TEST(AllReduce, RingFormulaHandComputedAcrossRanks) {
  // 2*(ranks-1)/ranks of the payload crosses each link, plus 2*(ranks-1)
  // latency steps; a single rank has nothing to reduce.
  MultiGpuOptions opt;
  opt.interconnect_bandwidth = 200e9;
  opt.interconnect_latency = 2e-6;
  const double bytes = 4e8;
  for (int ranks : {1, 2, 4, 8}) {
    opt.num_devices = ranks;
    const double want =
        ranks == 1 ? 0.0
                   : 2.0 * (ranks - 1) / ranks * bytes / 200e9 +
                         2.0 * (ranks - 1) * 2e-6;
    EXPECT_DOUBLE_EQ(allreduce_time(opt, bytes), want) << "ranks=" << ranks;
  }
}

TEST(AllReduce, GrowsWithPayloadAndRanks) {
  MultiGpuOptions opt;
  opt.num_devices = 2;
  const double t2 = allreduce_time(opt, 1e9);
  opt.num_devices = 8;
  const double t8 = allreduce_time(opt, 1e9);
  EXPECT_GT(t8, t2);
  EXPECT_GT(allreduce_time(opt, 2e9), allreduce_time(opt, 1e9));
}

class MultiGpuDeviceCounts : public ::testing::TestWithParam<int> {};

TEST_P(MultiGpuDeviceCounts, ShardsPartitionTheNonzeros) {
  const SparseTensor t = random_tensor(1);
  MultiGpuOptions opt;
  opt.num_devices = GetParam();
  MultiGpuCstf engine(t, opt);
  EXPECT_LE(engine.num_devices(), GetParam());
  index_t total = 0;
  for (int d = 0; d < engine.num_devices(); ++d) {
    EXPECT_GT(engine.shard_nnz(d), 0);
    total += engine.shard_nnz(d);
  }
  EXPECT_EQ(total, t.nnz());
}

TEST_P(MultiGpuDeviceCounts, MttkrpMatchesSingleDeviceReference) {
  const SparseTensor t = random_tensor(2);
  const auto factors = random_factors(t, 8, 3);
  MultiGpuOptions opt;
  opt.num_devices = GetParam();
  MultiGpuCstf engine(t, opt);
  for (int mode = 0; mode < t.num_modes(); ++mode) {
    Matrix want(t.dim(mode), 8), got(t.dim(mode), 8);
    mttkrp_ref(t, factors, mode, want);
    engine.mttkrp(factors, mode, got);
    EXPECT_LT(max_abs_diff(got, want), 1e-9) << "mode " << mode;
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, MultiGpuDeviceCounts,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(MultiGpu, ModeledTimeImprovesWithMoreDevicesOnLargeWork) {
  const SparseTensor t = random_tensor(4, 20000);
  const auto factors = random_factors(t, 32, 5);
  auto modeled = [&](int devices) {
    MultiGpuOptions opt;
    opt.num_devices = devices;
    MultiGpuCstf engine(t, opt);
    Matrix out(t.dim(0), 32);
    engine.mttkrp(factors, 0, out);
    // Scale to a large workload so compute dominates the all-reduce.
    return engine.modeled_mttkrp_time(0, 32, /*nnz_scale=*/5000.0,
                                      /*dim_scale=*/100.0);
  };
  const double t1 = modeled(1);
  const double t4 = modeled(4);
  EXPECT_LT(t4, t1);
  // Not superlinear: 4 devices cannot beat 4x.
  EXPECT_GT(t4, t1 / 4.5);
}

TEST(MultiGpu, AllReduceLimitsScalingOnSmallWork) {
  const SparseTensor t = random_tensor(6, 2000);
  const auto factors = random_factors(t, 8, 7);
  MultiGpuOptions opt;
  opt.num_devices = 8;
  opt.interconnect_bandwidth = 1e9;  // deliberately slow link
  MultiGpuCstf engine(t, opt);
  Matrix out(t.dim(0), 8);
  engine.mttkrp(factors, 0, out);
  const double with_slow_link =
      engine.modeled_mttkrp_time(0, 8, 1.0, /*dim_scale=*/1e4);
  // The all-reduce of the (scaled) 80e4 x 8 output dominates at 1 GB/s.
  const double reduce_only = allreduce_time(opt, 80.0 * 1e4 * 8.0 * 8.0);
  EXPECT_GT(with_slow_link, 0.9 * reduce_only);
}

TEST(MultiGpu, ChunkedAllReduceOverlapsCommunication) {
  // Two shards of 10 and 12 ms. One chunk: the slower shard's compute, then
  // the whole 4 ms all-reduce.
  const std::vector<double> shards = {0.010, 0.012};
  EXPECT_DOUBLE_EQ(chunked_allreduce_makespan(shards, 1, 0.004), 0.016);
  // Four chunks with the same total communication: chunk i's 1 ms
  // all-reduce starts when the slower shard finishes its chunk at 3i ms and
  // ends before the next one can start, so only the last is exposed.
  EXPECT_DOUBLE_EQ(chunked_allreduce_makespan(shards, 4, 0.001), 0.013);
  // Communication that outlasts a compute chunk queues up behind itself:
  // 5 ms pieces start at 3, 8, 13 and 18 ms.
  EXPECT_DOUBLE_EQ(chunked_allreduce_makespan(shards, 4, 0.005), 0.023);
  EXPECT_THROW(chunked_allreduce_makespan(shards, 0, 0.001), Error);
  EXPECT_THROW(chunked_allreduce_makespan({}, 1, 0.001), Error);
}

TEST(MultiGpu, OverlappedWithOneChunkEqualsSerialModel) {
  const SparseTensor t = random_tensor(10, 8000);
  const auto factors = random_factors(t, 16, 11);
  MultiGpuOptions opt;
  opt.num_devices = 4;
  MultiGpuCstf engine(t, opt);
  Matrix out(t.dim(0), 16);
  engine.mttkrp(factors, 0, out);
  const double serial = engine.modeled_mttkrp_time(0, 16, 10.0, 10.0);
  int used = 0;
  const double one_chunk =
      engine.modeled_mttkrp_time_overlapped(0, 16, 10.0, 10.0, 1, &used);
  EXPECT_EQ(used, 1);
  EXPECT_DOUBLE_EQ(one_chunk, serial);  // C=1 degenerates to the serial model
}

TEST(MultiGpu, OverlappedBoundedBySerialAndSlowestShard) {
  // A slow interconnect with a long output mode exposes the all-reduce tail;
  // the chunked overlap must land strictly between the roofline lower bound
  // (the slowest shard's compute, which can never be hidden) and the serial
  // slowest-shard-plus-all-reduce model.
  const SparseTensor t = random_tensor(8, 20000);
  const auto factors = random_factors(t, 32, 9);
  MultiGpuOptions opt;
  opt.num_devices = 8;
  opt.interconnect_bandwidth = 5e9;
  MultiGpuCstf engine(t, opt);
  Matrix out(t.dim(0), 32);
  engine.mttkrp(factors, 0, out);
  // Scales chosen so shard compute and all-reduce are the same order of
  // magnitude — the regime where chunked pipelining pays.
  const double nnz_scale = 2e4, dim_scale = 1e3;
  const double serial = engine.modeled_mttkrp_time(0, 32, nnz_scale, dim_scale);
  int chunks = 0;
  const double ovl = engine.modeled_mttkrp_time_overlapped(
      0, 32, nnz_scale, dim_scale, 0, &chunks);
  EXPECT_GE(chunks, 1);
  EXPECT_LE(ovl, serial * (1.0 + 1e-12));
  double slowest = 0.0;
  for (int d = 0; d < engine.num_devices(); ++d) {
    slowest = std::max(
        slowest, perfmodel::modeled_time_scaled(engine.device(d), nnz_scale));
  }
  EXPECT_GE(ovl, slowest * (1.0 - 1e-12));
  // The exposed tail here is large, so chunking must strictly help.
  EXPECT_LT(ovl, serial);
  EXPECT_GT(chunks, 1);
}

TEST(MultiGpu, RejectsMoreDevicesThanNonzeros) {
  SparseTensor t({4, 4});
  t.append({0, 0}, 1.0);
  MultiGpuOptions opt;
  opt.num_devices = 2;
  EXPECT_THROW(MultiGpuCstf(t, opt), Error);
}

}  // namespace
}  // namespace cstf
