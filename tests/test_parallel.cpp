// Unit tests for src/parallel: thread pool, parallel loops, reductions,
// scratch pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scratch_pool.hpp"
#include "parallel/thread_pool.hpp"

namespace cstf {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int calls = 0;
  pool.run([&](std::size_t w) {
    EXPECT_EQ(w, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, EveryWorkerRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](std::size_t w) { hits[w].fetch_add(1); });
  for (int w = 0; w < 4; ++w) EXPECT_EQ(hits[w].load(), 1) << "worker " << w;
}

TEST(ThreadPool, ReusableAcrossManyRuns) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int iter = 0; iter < 50; ++iter) {
    pool.run([&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run([&](std::size_t w) {
        if (w == 2) throw Error("boom from worker 2");
      }),
      Error);
  // Pool must stay usable after an exception.
  std::atomic<int> ok{0};
  pool.run([&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPool, CallerExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run([&](std::size_t w) {
                 if (w == 0) throw Error("boom from caller");
               }),
               Error);
}

// Regression: when a worker and the caller both throw, the caller's error
// used to win unconditionally and the worker's was silently dropped (and
// could leak into the next run). The first-recorded error must propagate.
TEST(ThreadPool, WorkerErrorWinsWhenCallerAlsoThrows) {
  ThreadPool pool(4);
  std::string message;
  try {
    pool.run([&](std::size_t w) {
      if (w == 1) throw Error("worker error");
      if (w == 0) {
        // Give the worker ample time to record its error first, then fail
        // on the caller too.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        throw Error("caller error");
      }
    });
    FAIL() << "run() must rethrow";
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("worker error"), std::string::npos) << message;

  // The error slot must be cleared: a subsequent clean run neither throws
  // nor replays the stale exception.
  std::atomic<int> ok{0};
  EXPECT_NO_THROW(pool.run([&](std::size_t) { ok.fetch_add(1); }));
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPool, InParallelRegionFlagIsSetInsideRun) {
  ThreadPool pool(2);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  pool.run([&](std::size_t) { EXPECT_TRUE(ThreadPool::in_parallel_region()); });
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr index_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](index_t i) { hits[i].fetch_add(1); }, /*grain=*/16);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyAndNegativeRangesAreNoOps) {
  int calls = 0;
  parallel_for(5, 5, [&](index_t) { ++calls; });
  parallel_for(9, 3, [&](index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, OffsetRange) {
  std::vector<int> hits(20, 0);
  parallel_for(10, 20, [&](index_t i) { hits[i] = 1; }, /*grain=*/1);
  for (index_t i = 0; i < 10; ++i) EXPECT_EQ(hits[i], 0);
  for (index_t i = 10; i < 20; ++i) EXPECT_EQ(hits[i], 1);
}

TEST(ParallelForBlocked, BlocksPartitionTheRange) {
  constexpr index_t n = 4096;
  std::vector<std::atomic<int>> hits(n);
  parallel_for_blocked(0, n, [&](index_t lo, index_t hi) {
    ASSERT_LT(lo, hi);
    for (index_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  }, /*grain=*/8);
  for (index_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, NestedCallsRunSequentiallyAndCoverRange) {
  std::vector<std::atomic<int>> hits(64 * 64);
  parallel_for(0, 64, [&](index_t i) {
    parallel_for(0, 64, [&](index_t j) { hits[i * 64 + j].fetch_add(1); },
                 /*grain=*/1);
  }, /*grain=*/1);
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelReduce, MatchesSerialSum) {
  constexpr index_t n = 1 << 18;
  const auto mapper = [](index_t i) { return static_cast<double>(i % 97); };
  double serial = 0.0;
  for (index_t i = 0; i < n; ++i) serial += mapper(i);
  const double parallel = parallel_sum(0, n, mapper, /*grain=*/64);
  EXPECT_DOUBLE_EQ(parallel, serial);
}

TEST(ParallelReduce, CustomCombineMax) {
  constexpr index_t n = 10000;
  std::vector<double> data(n);
  Rng rng(1);
  for (auto& d : data) d = rng.uniform();
  data[7777] = 2.0;
  const double result = parallel_reduce<double>(
      0, n, -1.0, [&](index_t i) { return data[i]; },
      [](double a, double b) { return a > b ? a : b; }, /*grain=*/32);
  EXPECT_DOUBLE_EQ(result, 2.0);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const double result = parallel_reduce<double>(
      3, 3, 42.0, [](index_t) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(result, 42.0);
}

TEST(GlobalPool, ExistsAndHasAtLeastOneThread) {
  EXPECT_GE(global_thread_count(), 1u);
  EXPECT_EQ(&global_pool(), &global_pool());
}

TEST(ParallelFor, ChunkCountOversubscribesAndRespectsGrain) {
  using detail::parallel_chunk_count;
  // 4x the worker count when the range is large enough...
  EXPECT_EQ(parallel_chunk_count(100000, 4, 1024), 16);
  EXPECT_EQ(parallel_chunk_count(100, 4, 1), 16);
  // ...but never chunks smaller than the grain...
  EXPECT_EQ(parallel_chunk_count(2048, 4, 1024), 2);
  EXPECT_EQ(parallel_chunk_count(10, 4, 1024), 1);
  // ...and always at least one chunk.
  EXPECT_EQ(parallel_chunk_count(0, 4, 1024), 1);
}

// Regression for the static one-chunk-per-worker split: the range must be
// cut into ~4x more chunks than workers (claimed dynamically), so skewed
// work clustered in one contiguous stretch is spread over several chunks
// instead of serializing on the single worker that owned the stretch.
TEST(ParallelForBlocked, DynamicChunksOversubscribeWorkers) {
  ThreadPool pool(4);
  std::atomic<int> blocks{0};
  std::atomic<index_t> covered{0};
  constexpr index_t n = 1 << 16;
  parallel_for_blocked(
      pool, 0, n,
      [&](index_t lo, index_t hi) {
        ASSERT_LT(lo, hi);
        blocks.fetch_add(1);
        covered.fetch_add(hi - lo);
        EXPECT_LE(hi - lo, n / 16);  // nothing bigger than the 4x split
      },
      /*grain=*/16);
  EXPECT_EQ(covered.load(), n);
  EXPECT_EQ(blocks.load(), 16);
}

TEST(ParallelFor, SkewedWorkloadStillCoversRangeExactlyOnce) {
  // Heavy items clustered at the front of the range (the hot-row pattern of
  // skewed sparse tensors) must not break coverage under dynamic claiming.
  ThreadPool pool(4);
  constexpr index_t n = 20000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(
      pool, 0, n,
      [&](index_t i) {
        if (i < n / 16) {
          volatile double sink = 0.0;
          for (int k = 0; k < 200; ++k) sink = sink + static_cast<double>(k);
        }
        hits[i].fetch_add(1);
      },
      /*grain=*/64);
  for (index_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ScratchPool, LeaseHandsOutDistinctBuffersAndRecycles) {
  ScratchPool pool;
  {
    ScratchPool::Lease lease = pool.acquire(3, 128);
    ASSERT_EQ(lease.count(), 3u);
    // Distinct, writable buffers.
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = i + 1; j < 3; ++j) {
        EXPECT_NE(lease.tile(i), lease.tile(j));
      }
      lease.tile(i)[0] = static_cast<real_t>(i);
      lease.tile(i)[127] = 1.0;
    }
    EXPECT_EQ(pool.idle_buffers(), 0u);
  }
  // Returned on lease destruction, recycled by the next acquire.
  EXPECT_EQ(pool.idle_buffers(), 3u);
  ScratchPool::Lease again = pool.acquire(2, 64);
  EXPECT_EQ(again.count(), 2u);
  EXPECT_EQ(pool.idle_buffers(), 1u);
}

TEST(ScratchPool, RecyclesLargestBuffersFirst) {
  ScratchPool pool;
  {
    ScratchPool::Lease small = pool.acquire(1, 10);
    ScratchPool::Lease large = pool.acquire(1, 1000);
  }
  EXPECT_EQ(pool.idle_buffers(), 2u);
  // A request that fits the big buffer must get it (no reallocation), so a
  // subsequent larger request only grows the high-water-mark buffer.
  {
    ScratchPool::Lease lease = pool.acquire(1, 500);
    lease.tile(0)[999] = 1.0;  // big buffer capacity; ASan would catch misuse
  }
  pool.trim();
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(ScratchPool, ZeroCountLeaseIsSafe) {
  ScratchPool pool;
  ScratchPool::Lease lease = pool.acquire(0, 64);
  EXPECT_EQ(lease.count(), 0u);
}

TEST(DeterministicTreeReduce, MatchesSerialSumAndIsExactlyReproducible) {
  constexpr index_t len = 3000;
  constexpr std::size_t tiles = 7;
  Rng rng(17);
  std::vector<std::vector<real_t>> data(tiles, std::vector<real_t>(len));
  for (auto& tile : data) {
    for (auto& v : tile) v = rng.uniform(-1.0, 1.0);
  }
  auto reduce_once = [&]() {
    std::vector<std::vector<real_t>> work = data;
    std::vector<real_t*> ptrs;
    for (auto& tile : work) ptrs.push_back(tile.data());
    deterministic_tree_reduce(ptrs.data(), tiles, len);
    return work[0];
  };
  const std::vector<real_t> first = reduce_once();
  // Bit-identical across repeats (fixed pairwise tree, no atomics).
  EXPECT_EQ(reduce_once(), first);
  // And numerically the sum of all tiles.
  for (index_t i = 0; i < len; i += 101) {
    real_t want = 0.0;
    for (const auto& tile : data) want += tile[static_cast<std::size_t>(i)];
    EXPECT_NEAR(first[static_cast<std::size_t>(i)], want, 1e-12);
  }
}

class ParallelForThreadCounts : public ::testing::TestWithParam<int> {};

TEST_P(ParallelForThreadCounts, PoolOfAnySizeCoversRange) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  std::vector<std::atomic<int>> hits(1000);
  // Exercise the pool directly with a manual static partition.
  const index_t n = 1000;
  const auto workers = static_cast<index_t>(pool.num_threads());
  const index_t chunk = (n + workers - 1) / workers;
  pool.run([&](std::size_t w) {
    const index_t lo = static_cast<index_t>(w) * chunk;
    const index_t hi = std::min<index_t>(lo + chunk, n);
    for (index_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelForThreadCounts,
                         ::testing::Values(1, 2, 3, 8));

}  // namespace
}  // namespace cstf
