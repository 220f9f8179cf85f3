// Unit tests for src/simgpu: cost model, kernel launch semantics, metered
// device BLAS.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/random.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/dblas.hpp"
#include "simgpu/device.hpp"
#include "simgpu/launch.hpp"

namespace cstf {
namespace {

using simgpu::Device;
using simgpu::DeviceSpec;
using simgpu::KernelCtx;
using simgpu::KernelStats;
using simgpu::LaunchConfig;

TEST(DeviceSpec, PresetsMatchPaperTable1) {
  const DeviceSpec a = simgpu::a100();
  const DeviceSpec h = simgpu::h100();
  const DeviceSpec x = simgpu::xeon_8367hc();
  EXPECT_DOUBLE_EQ(a.mem_bandwidth, 2039e9);
  EXPECT_DOUBLE_EQ(h.mem_bandwidth, 2039e9);  // equal by design (Table 1)
  EXPECT_GT(h.cache_bytes, a.cache_bytes);    // the H100's differentiator
  EXPECT_LT(x.mem_bandwidth, a.mem_bandwidth);
  EXPECT_GT(a.saturation_parallelism, x.saturation_parallelism);
}

TEST(CostModel, MissFractionBounds) {
  // Capacity misses only; the cold pass is charged separately in model_time.
  EXPECT_DOUBLE_EQ(simgpu::cache_miss_fraction(0.0, 40e6), 0.0);
  EXPECT_DOUBLE_EQ(simgpu::cache_miss_fraction(10e6, 40e6), 0.0);
  EXPECT_NEAR(simgpu::cache_miss_fraction(80e6, 40e6), 0.5, 1e-12);
  EXPECT_NEAR(simgpu::cache_miss_fraction(400e6, 40e6), 0.9, 1e-12);
  EXPECT_GT(simgpu::cache_miss_fraction(4e12, 40e6), 0.99);
}

TEST(CostModel, MissFractionMonotoneInWorkingSet) {
  double prev = 0.0;
  for (double ws = 1e6; ws < 1e9; ws *= 2) {
    const double miss = simgpu::cache_miss_fraction(ws, 40e6);
    EXPECT_GE(miss, prev);
    prev = miss;
  }
}

TEST(CostModel, UtilizationRampsAndSaturates) {
  EXPECT_NEAR(simgpu::parallel_utilization(500, 1000), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(simgpu::parallel_utilization(2000, 1000), 1.0);
  EXPECT_DOUBLE_EQ(simgpu::parallel_utilization(1000, 0.0), 1.0);
}

TEST(CostModel, BandwidthBoundKernelTimeScalesWithBytes) {
  const DeviceSpec spec = simgpu::a100();
  KernelStats small, large;
  small.bytes_streamed = 1e6;
  small.parallel_items = 1e9;
  large = small;
  large.bytes_streamed = 1e8;
  const double t_small = simgpu::model_time(small, spec).total_s;
  const double t_large = simgpu::model_time(large, spec).total_s;
  EXPECT_NEAR(t_large / t_small, 100.0, 1.0);
}

TEST(CostModel, LaunchOverheadDominatesTinyKernels) {
  const DeviceSpec spec = simgpu::a100();
  KernelStats tiny;
  tiny.flops = 100;
  tiny.bytes_streamed = 800;
  tiny.launches = 1;
  tiny.parallel_items = 10;
  const auto t = simgpu::model_time(tiny, spec);
  EXPECT_GT(t.launch_s, 10 * (t.compute_s + t.memory_s));
}

TEST(CostModel, SerialChainIsChargedAtSerialRate) {
  const DeviceSpec spec = simgpu::a100();
  KernelStats trsv;
  trsv.serial_depth = 1.41e9;  // exactly one second of dependent ops
  trsv.parallel_items = 1e9;
  const auto t = simgpu::model_time(trsv, spec);
  EXPECT_NEAR(t.serial_s, 1.0, 1e-9);
  EXPECT_GE(t.total_s, 1.0);
}

TEST(CostModel, H100BeatsA100OnCacheResidentReuseTraffic) {
  // Working set between the two cache sizes: fits on H100, spills on A100.
  KernelStats stats;
  stats.bytes_reused = 1e9;
  stats.working_set_bytes = 45e6;  // A100 L2 = 40 MB < 45 MB < 50 MB = H100 L2
  stats.parallel_items = 1e9;
  const double t_a100 = simgpu::model_time(stats, simgpu::a100()).total_s;
  const double t_h100 = simgpu::model_time(stats, simgpu::h100()).total_s;
  EXPECT_LT(t_h100, t_a100);
}

TEST(CostModel, GpuBeatsCpuOnStreamingTraffic) {
  KernelStats stats;
  stats.bytes_streamed = 1e9;
  stats.parallel_items = 1e9;
  const double t_gpu = simgpu::model_time(stats, simgpu::a100()).total_s;
  const double t_cpu = simgpu::model_time(stats, simgpu::xeon_8367hc()).total_s;
  // Bandwidth ratio ~10x; require clearly >5x.
  EXPECT_GT(t_cpu / t_gpu, 5.0);
}

TEST(CostModel, AtomicOpsCarryNoCostTerm) {
  // atomic_ops is a plain telemetry count: its bandwidth is already part of
  // bytes_random, and adding ops never changes the modeled time.
  KernelStats stats;
  stats.bytes_random = 1e8;
  stats.parallel_items = 1e6;
  KernelStats with_atomics = stats;
  with_atomics.atomic_ops = 1e9;
  for (const DeviceSpec& spec :
       {simgpu::a100(), simgpu::h100(), simgpu::xeon_8367hc()}) {
    EXPECT_DOUBLE_EQ(simgpu::model_time(with_atomics, spec).total_s,
                     simgpu::model_time(stats, spec).total_s)
        << spec.name;
  }
}

TEST(KernelStats, AccumulationSumsAtomicOps) {
  KernelStats a;
  a.atomic_ops = 10.0;
  KernelStats b;
  b.atomic_ops = 5.0;
  a += b;
  EXPECT_DOUBLE_EQ(a.atomic_ops, 15.0);
  a += KernelStats{};
  EXPECT_DOUBLE_EQ(a.atomic_ops, 15.0);
}

TEST(Launch, ExecutesEveryThreadExactlyOnce) {
  Device dev(simgpu::a100());
  constexpr index_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  LaunchConfig cfg{.grid_dim = simgpu::blocks_for(n, 128), .block_dim = 128};
  simgpu::launch(dev, "hit_all", cfg, KernelStats{}, [&](const KernelCtx& ctx) {
    const index_t gid = ctx.global_thread_id();
    if (gid < n) hits[gid].fetch_add(1);
  });
  for (index_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Launch, GridStrideLoopCoversOversizedRange) {
  Device dev(simgpu::a100());
  constexpr index_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  LaunchConfig cfg{.grid_dim = 4, .block_dim = 32};  // far fewer threads than n
  simgpu::launch(dev, "stride", cfg, KernelStats{}, [&](const KernelCtx& ctx) {
    for (index_t i = ctx.global_thread_id(); i < n; i += ctx.total_threads()) {
      hits[i].fetch_add(1);
    }
  });
  for (index_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Launch, SharedMemoryIsPerBlockAndZeroed) {
  Device dev(simgpu::a100());
  constexpr index_t blocks = 8, threads = 16;
  std::vector<real_t> block_sums(blocks, 0.0);
  LaunchConfig cfg{.grid_dim = blocks, .block_dim = threads, .shmem_reals = 1};
  simgpu::launch(dev, "blk_reduce", cfg, KernelStats{},
                 [&](const KernelCtx& ctx) {
                   // Threads in a block run sequentially: plain accumulation
                   // into shared memory is the documented reduction idiom.
                   ctx.shared[0] += 1.0;
                   if (ctx.thread_idx == ctx.block_dim - 1) {
                     block_sums[ctx.block_idx] = ctx.shared[0];
                   }
                 });
  for (index_t b = 0; b < blocks; ++b) {
    EXPECT_DOUBLE_EQ(block_sums[b], static_cast<real_t>(threads));
  }
}

TEST(Launch, RecordsStatsOnDevice) {
  Device dev(simgpu::h100());
  KernelStats stats;
  stats.flops = 123.0;
  stats.bytes_streamed = 456.0;
  simgpu::launch(dev, "meter_me", LaunchConfig{.grid_dim = 2, .block_dim = 4},
                 stats, [](const KernelCtx&) {});
  EXPECT_DOUBLE_EQ(dev.total().flops, 123.0);
  EXPECT_DOUBLE_EQ(dev.total().bytes_streamed, 456.0);
  EXPECT_EQ(dev.total().launches, 1);
  EXPECT_DOUBLE_EQ(dev.total().parallel_items, 8.0);
  EXPECT_EQ(dev.per_kernel().count("meter_me"), 1u);
  dev.reset();
  EXPECT_DOUBLE_EQ(dev.total().flops, 0.0);
  EXPECT_TRUE(dev.per_kernel().empty());
}

TEST(Launch, AccumulatesAcrossLaunches) {
  Device dev(simgpu::a100());
  KernelStats stats;
  stats.flops = 10.0;
  for (int i = 0; i < 5; ++i) {
    simgpu::launch(dev, "k", LaunchConfig{}, stats, [](const KernelCtx&) {});
  }
  EXPECT_DOUBLE_EQ(dev.total().flops, 50.0);
  EXPECT_EQ(dev.total().launches, 5);
}

TEST(DeviceBlas, DgemmMatchesHostGemmAndMeters) {
  Device dev(simgpu::a100());
  Rng rng(1);
  Matrix a(20, 8), b(8, 8), c(20, 8), want(20, 8);
  a.fill_normal(rng);
  b.fill_normal(rng);
  simgpu::dgemm(dev, la::Op::kNone, la::Op::kNone, 1.0, a, b, 0.0, c);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, a, b, 0.0, want);
  EXPECT_LT(max_abs_diff(c, want), 1e-14);
  EXPECT_DOUBLE_EQ(dev.total().flops, 2.0 * 20 * 8 * 8);
  EXPECT_GT(dev.total().total_bytes(), 0.0);
}

TEST(DeviceBlas, DsyrkGramMatchesHost) {
  Device dev(simgpu::a100());
  Rng rng(2);
  Matrix a(30, 6), s(6, 6), want(6, 6);
  a.fill_normal(rng);
  simgpu::dsyrk_gram(dev, a, s);
  la::gram(a, want);
  EXPECT_LT(max_abs_diff(s, want), 1e-14);
}

TEST(DeviceBlas, DpotrsSolvesAndChargesSerialDepth) {
  Device dev(simgpu::a100());
  Rng rng(3);
  Matrix b0(8, 8);
  b0.fill_normal(rng);
  Matrix s(8, 8);
  la::gram(b0, s);
  la::add_diagonal(s, 8.0);
  Matrix l;
  simgpu::dpotrf(dev, s, l);
  Matrix x(8, 3);
  x.fill_normal(rng);
  Matrix rhs(8, 3);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, s, x, 0.0, rhs);
  simgpu::dpotrs(dev, l, rhs);
  EXPECT_LT(max_abs_diff(rhs, x), 1e-9);
  EXPECT_GT(dev.per_kernel().at("dpotrs").serial_depth, 0.0);
}

TEST(DeviceBlas, DpotriProducesInverse) {
  Device dev(simgpu::h100());
  Rng rng(4);
  Matrix b0(10, 5);
  b0.fill_normal(rng);
  Matrix s(5, 5);
  la::gram(b0, s);
  la::add_diagonal(s, 5.0);
  Matrix l, inv;
  simgpu::dpotrf(dev, s, l);
  simgpu::dpotri(dev, l, inv);
  Matrix prod(5, 5);
  la::gemm(la::Op::kNone, la::Op::kNone, 1.0, inv, s, 0.0, prod);
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(5)), 1e-10);
}

TEST(DeviceBlas, ModeledTimeIsPositiveAndAdditive) {
  Device dev(simgpu::a100());
  Rng rng(5);
  Matrix a(100, 32), b(32, 32), c(100, 32);
  a.fill_normal(rng);
  b.fill_normal(rng);
  simgpu::dgemm(dev, la::Op::kNone, la::Op::kNone, 1.0, a, b, 0.0, c);
  const double t1 = dev.modeled_time_s();
  EXPECT_GT(t1, 0.0);
  simgpu::dgemm(dev, la::Op::kNone, la::Op::kNone, 1.0, a, b, 0.0, c);
  EXPECT_GT(dev.modeled_time_s(), t1);
}

TEST(Device, ModeledKernelTimeIsolatesOneKernel) {
  Device dev(simgpu::a100());
  KernelStats big;
  big.bytes_streamed = 1e9;
  big.parallel_items = 1e9;
  dev.record("big", big);
  KernelStats small;
  small.bytes_streamed = 1e6;
  small.parallel_items = 1e9;
  dev.record("small", small);
  EXPECT_GT(dev.modeled_kernel_time_s("big"),
            100.0 * dev.modeled_kernel_time_s("small"));
  EXPECT_DOUBLE_EQ(dev.modeled_kernel_time_s("missing"), 0.0);
  EXPECT_NEAR(dev.modeled_time_s(), dev.modeled_kernel_time_s("big") +
                                        dev.modeled_kernel_time_s("small"),
              1e-12);
}

TEST(CostModel, HostLinkStagingOverlapsWithCompute) {
  const DeviceSpec spec = simgpu::a100();
  KernelStats stats;
  stats.bytes_streamed = 1e9;  // ~0.68 ms at stream bw
  stats.parallel_items = 1e9;
  stats.host_link_bytes = 1e6;  // 40 us on the link: hidden
  const auto hidden = simgpu::model_time(stats, spec);
  EXPECT_DOUBLE_EQ(hidden.total_s,
                   simgpu::model_time([&] {
                     KernelStats s2 = stats;
                     s2.host_link_bytes = 0.0;
                     return s2;
                   }(), spec).total_s);
  stats.host_link_bytes = 1e9;  // 40 ms on the link: binds
  const auto bound = simgpu::model_time(stats, spec);
  EXPECT_NEAR(bound.total_s, 1e9 / spec.host_link_bandwidth, 1e-6);
}

TEST(DeviceBlas, Dnrm2MatchesHostNorm) {
  Device dev(simgpu::a100());
  Matrix a = Matrix::from_rows({{3, 4}});
  EXPECT_DOUBLE_EQ(simgpu::dnrm2_sq(dev, a), 25.0);
  EXPECT_EQ(dev.per_kernel().count("dnrm2"), 1u);
}

// --- streams and the modeled timeline ---------------------------------------

// A metered span whose modeled time is exactly `seconds`: a chain of
// seconds x serial_op_rate dependent ops with no traffic and no launch, so it
// occupies neither the memory system nor the host link and is not rescaled
// (serial depth is intensive).
KernelStats serial_span(const Device& dev, double seconds) {
  KernelStats s;
  s.serial_depth = seconds * dev.spec().serial_op_rate;
  return s;
}

TEST(Stream, DefaultStreamOnlyModelsAsLegacySerialSum) {
  // modeled_time_s() is the serial per-kernel-aggregate sum; on a chain of
  // distinct default-stream kernels the makespan equals it.
  Device dev(simgpu::a100());
  KernelStats a;
  a.bytes_streamed = 1e8;
  a.parallel_items = 1e9;
  dev.record("a", a);
  KernelStats b;
  b.flops = 1e10;
  b.parallel_items = 1e9;
  dev.record("b", b);
  simgpu::launch(dev, "c", LaunchConfig{.grid_dim = 2, .block_dim = 32}, a,
                 [](const KernelCtx&) {});
  double sum = 0.0;
  for (const char* name : {"a", "b", "c"}) {
    sum += dev.modeled_kernel_time_s(name);
  }
  EXPECT_DOUBLE_EQ(dev.modeled_time_s(), sum);
  EXPECT_DOUBLE_EQ(dev.modeled_makespan_s(), dev.modeled_time_s());
}

TEST(Stream, TwoStreamPipelineMakespanIsHandComputed) {
  // Classic double-buffered copy/compute pipeline with known durations:
  //   copy:    copy0 [0,2]  copy1 [2,4]
  //   default: compute0 waits copy0 -> [2,5]; compute1 waits copy1 -> [5,8]
  // Serial sum is 10 s; the pipelined makespan must be exactly 8 s, and
  // modeled_time_s() stays the serial sum whatever the streams.
  Device dev(simgpu::a100());
  const simgpu::Stream copy = dev.create_stream("copy");
  dev.record("copy0", serial_span(dev, 2.0), 0.0, copy);
  const simgpu::Event e0 = dev.record_event(copy);
  dev.record("copy1", serial_span(dev, 2.0), 0.0, copy);
  const simgpu::Event e1 = dev.record_event(copy);
  dev.wait_event(simgpu::Stream{}, e0);
  dev.record("compute0", serial_span(dev, 3.0));
  dev.wait_event(simgpu::Stream{}, e1);
  dev.record("compute1", serial_span(dev, 3.0));
  EXPECT_DOUBLE_EQ(dev.modeled_makespan_s(), 8.0);
  EXPECT_DOUBLE_EQ(dev.modeled_time_s(), 10.0);
}

TEST(Stream, EventOrdersConsumerAfterProducer) {
  Device dev(simgpu::a100());
  dev.record("produce", serial_span(dev, 1.0));
  const simgpu::Event done = dev.record_event();
  const simgpu::Stream s = dev.create_stream("consumer");
  dev.wait_event(s, done);
  dev.record("consume", serial_span(dev, 1.0), 0.0, s);
  EXPECT_DOUBLE_EQ(dev.modeled_makespan_s(), 2.0);  // serialized by the event
}

TEST(Stream, UnrecordedEventWaitIsNoOp) {
  Device dev(simgpu::a100());
  const simgpu::Stream s = dev.create_stream("other");
  simgpu::Event never;
  EXPECT_FALSE(never.recorded());
  dev.wait_event(s, never);
  dev.record("a", serial_span(dev, 1.0));
  dev.record("b", serial_span(dev, 1.0), 0.0, s);
  EXPECT_DOUBLE_EQ(dev.modeled_makespan_s(), 1.0);  // fully overlapped
}

TEST(Stream, BandwidthBoundSpansCannotOverlapBeyondRoofline) {
  // Two memory-bound kernels on two streams share one memory system: the
  // makespan is clamped to their summed memory busy time — identical to
  // running them back to back.
  Device dev(simgpu::a100());
  KernelStats stats;
  stats.bytes_streamed = 1e9;
  stats.parallel_items = 1e9;
  const simgpu::Stream s = dev.create_stream("second");
  dev.record("mem_a", stats);
  dev.record("mem_b", stats, 0.0, s);
  const double one = simgpu::model_time(stats, dev.spec()).memory_s;
  EXPECT_NEAR(dev.modeled_makespan_s(), 2.0 * one, 1e-12);
  EXPECT_NEAR(dev.modeled_makespan_s(), dev.modeled_time_s(),
              1e-9 * dev.modeled_time_s());
}

TEST(Stream, ComputeHidesBehindHostLinkTransfer) {
  // A flop-bound kernel and a host-link transfer use different resources, so
  // they genuinely overlap: makespan ~ max, strictly below the serial sum.
  Device dev(simgpu::a100());
  KernelStats compute;
  compute.flops = 1e12;
  compute.parallel_items = 1e9;
  KernelStats copy;
  copy.host_link_bytes = 1e9;
  copy.parallel_items = 1.0;
  const simgpu::Stream h2d = dev.create_stream("h2d");
  dev.record("compute", compute);
  dev.record("copy", copy, 0.0, h2d);
  const double t_compute = simgpu::model_time(compute, dev.spec()).total_s;
  const double t_copy = simgpu::model_time(copy, dev.spec()).total_s;
  EXPECT_GE(dev.modeled_makespan_s(),
            std::max(t_compute, t_copy) * (1 - 1e-12));
  EXPECT_LT(dev.modeled_makespan_s(), 0.99 * dev.modeled_time_s());
}

TEST(Stream, ResetKeepsStreamHandlesUsable) {
  Device dev(simgpu::a100());
  const simgpu::Stream s = dev.create_stream("kept");
  dev.record("x", serial_span(dev, 1.0), 0.0, s);
  EXPECT_EQ(dev.timeline().span_count(), 1u);
  dev.reset();
  EXPECT_EQ(dev.timeline().span_count(), 0u);
  EXPECT_EQ(dev.timeline().num_streams(), 2);
  EXPECT_EQ(dev.timeline().stream_name(s.id()), "kept");
  dev.record("y", serial_span(dev, 1.0), 0.0, s);  // still targets its lane
  EXPECT_EQ(dev.timeline().span(0).stream, s.id());
  EXPECT_DOUBLE_EQ(dev.modeled_makespan_s(), 1.0);
}

TEST(Stream, MakespanScalesExtensiveQuantities) {
  // modeled_makespan_s(k) is the stream analog of modeled_time_scaled: a
  // bandwidth-bound span's time grows by k; a serial chain's does not.
  Device dev(simgpu::a100());
  KernelStats stats;
  stats.bytes_streamed = 1e9;
  stats.parallel_items = 1e9;
  dev.record("mem", stats, 0.0, dev.create_stream("lane"));
  const double base = dev.modeled_makespan_s();
  EXPECT_NEAR(dev.modeled_makespan_s(10.0), 10.0 * base, 1e-9 * base);
  Device chain(simgpu::a100());
  chain.record("chain", serial_span(chain, 2.0), 0.0,
               chain.create_stream("lane"));
  EXPECT_DOUBLE_EQ(chain.modeled_makespan_s(10.0), 2.0);
}

}  // namespace
}  // namespace cstf
