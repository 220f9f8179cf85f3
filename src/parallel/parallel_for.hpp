// Blocked parallel loops over index ranges, built on ThreadPool.
//
// Scheduling: the range is cut into ~4x more chunks than workers and chunks
// are claimed dynamically through an atomic ticket counter (OpenMP
// schedule(dynamic) with a coarse chunk size). The previous static
// one-chunk-per-worker split load-imbalanced badly on skewed sparse tensors,
// where the nonzeros of a few hot rows cluster in one contiguous stretch of
// the iteration space: the worker owning that stretch finished last while
// the rest idled. Oversubscription bounds that tail to ~1/4 of one worker's
// share; the ticket counter is touched once per chunk (not per element), so
// contention on it is negligible.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>

#include "common/types.hpp"
#include "parallel/thread_pool.hpp"

namespace cstf {

/// Serial threshold: ranges smaller than this run inline — forking the pool
/// costs more than the loop body for tiny ranges.
inline constexpr index_t kParallelGrainDefault = 1024;

/// Chunk oversubscription factor: chunks created per worker. 4x keeps the
/// longest post-imbalance tail at ~25% of one worker's share while keeping
/// per-chunk overhead (one ticket fetch_add) amortized over many elements.
/// It also sizes the privatized scatter's tile set (privatized_tile_count),
/// so it is part of that strategy's accumulation grouping.
inline constexpr index_t kParallelChunksPerWorker = 4;

namespace detail {

/// Number of dynamic chunks for a range of `n` elements: ~4x the worker
/// count, but never chunks smaller than `grain` elements (tiny chunks would
/// pay more in ticket traffic than they win in balance).
inline index_t parallel_chunk_count(index_t n, index_t workers, index_t grain) {
  const index_t by_grain = grain > 0 ? (n + grain - 1) / grain : n;
  return std::max<index_t>(
      1, std::min(workers * kParallelChunksPerWorker, by_grain));
}

/// Runs `block(lo, hi)` for every chunk of [begin, end), chunks claimed
/// dynamically via an atomic ticket counter shared by all workers.
template <typename Block>
void run_dynamic_chunks(ThreadPool& pool, index_t begin, index_t end,
                        index_t grain, const Block& block) {
  const index_t n = end - begin;
  const auto workers = static_cast<index_t>(pool.num_threads());
  const index_t chunks = parallel_chunk_count(n, workers, grain);
  const index_t chunk = (n + chunks - 1) / chunks;
  std::atomic<index_t> ticket{0};
  pool.run([&](std::size_t) {
    for (index_t c = ticket.fetch_add(1, std::memory_order_relaxed); c < chunks;
         c = ticket.fetch_add(1, std::memory_order_relaxed)) {
      const index_t lo = begin + c * chunk;
      const index_t hi = std::min<index_t>(lo + chunk, end);
      if (lo < hi) block(lo, hi);
    }
  });
}

}  // namespace detail

/// Executes `body(i)` for every i in [begin, end) on `pool`, dynamically
/// chunked. `body` must be safe to run concurrently for distinct i.
template <typename Body>
void parallel_for(ThreadPool& pool, index_t begin, index_t end,
                  const Body& body, index_t grain = kParallelGrainDefault) {
  const index_t n = end - begin;
  if (n <= 0) return;
  if (n <= grain || pool.num_threads() == 1 ||
      ThreadPool::in_parallel_region()) {
    for (index_t i = begin; i < end; ++i) body(i);
    return;
  }
  detail::run_dynamic_chunks(pool, begin, end, grain,
                             [&](index_t lo, index_t hi) {
                               for (index_t i = lo; i < hi; ++i) body(i);
                             });
}

/// Global-pool convenience overload.
template <typename Body>
void parallel_for(index_t begin, index_t end, const Body& body,
                  index_t grain = kParallelGrainDefault) {
  parallel_for(global_pool(), begin, end, body, grain);
}

/// Blocked variant: `body(lo, hi)` receives each chunk's contiguous
/// subrange (a worker typically runs several chunks). Prefer this when the
/// body can vectorize over the subrange or needs per-block scratch.
template <typename Body>
void parallel_for_blocked(ThreadPool& pool, index_t begin, index_t end,
                          const Body& body,
                          index_t grain = kParallelGrainDefault) {
  const index_t n = end - begin;
  if (n <= 0) return;
  if (n <= grain || pool.num_threads() == 1 ||
      ThreadPool::in_parallel_region()) {
    body(begin, end);
    return;
  }
  detail::run_dynamic_chunks(pool, begin, end, grain, body);
}

/// Global-pool convenience overload.
template <typename Body>
void parallel_for_blocked(index_t begin, index_t end, const Body& body,
                          index_t grain = kParallelGrainDefault) {
  parallel_for_blocked(global_pool(), begin, end, body, grain);
}

}  // namespace cstf
