// Scatter engine for sparse MTTKRP output accumulation.
//
// Every sparse MTTKRP kernel in this library ends the same way: a rank-length
// Khatri-Rao row, computed per nonzero, is accumulated into one row of the
// output matrix, and concurrently processed nonzeros may target the same row.
// This header centralizes the two ways to resolve that conflict:
//
//  * kPrivatized  — each of T fixed nonzero ranges accumulates into its own
//                   private output tile; tiles are then combined by a
//                   fixed-shape pairwise tree reduction. Needs T * dims[mode]
//                   * R reals of scratch — only affordable on short modes.
//  * kSorted      — nonzeros are bucketed by output row once per (tensor,
//                   mode) via the radix sort the format builders already use;
//                   each row's contributions are then contiguous and a single
//                   worker accumulates them with plain adds. No per-call
//                   scratch; pays one plan build (reusable across iterations)
//                   and an indirect nonzero access during accumulation.
//
// Neither uses atomics, so every MTTKRP is bit-reproducible run to run at a
// fixed worker count. Sorted accumulates each row in ascending nonzero id —
// the order of `mttkrp_ref` — and is the strategy to ask for when bit
// identity to the reference is required; privatized regroups the per-row
// sums by tile, and the tile count follows the worker count.
//
// kAuto is one rule: privatized when its tiles fit the scratch budget
// (`privatized_fits`), otherwise sorted. See DESIGN.md §8 for the
// measurements behind it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "la/matrix.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scratch_pool.hpp"
#include "simgpu/counters.hpp"

namespace cstf {

enum class ScatterStrategy {
  kAuto,        // privatized when it fits the budget, else sorted
  kPrivatized,  // per-range private tiles + deterministic tree reduce
  kSorted,      // radix-bucketed segments, one owner per output row
};

/// Display name ("auto", "privatized", "sorted").
const char* scatter_strategy_name(ScatterStrategy strategy);

/// Parses a strategy name; returns false (leaving `out` untouched) on an
/// unknown name.
bool parse_scatter_strategy(const std::string& name, ScatterStrategy* out);

/// Per-run scatter configuration, threaded from FrameworkOptions / the CLI
/// down to the kernels.
struct ScatterOptions {
  ScatterStrategy strategy = ScatterStrategy::kAuto;

  /// Upper bound on the private-tile scratch (bytes) the privatized strategy
  /// may allocate per call; above it, kAuto resolves to sorted. Tiles are
  /// pooled (ScratchPool), so this bounds steady-state memory, not per-call
  /// allocation traffic.
  double privatization_budget_bytes = 64.0 * 1024.0 * 1024.0;

  /// Per-mode strategy overrides from the autotuner: entry m (when present
  /// and not kAuto) pins mode m's strategy ahead of `strategy`. Modes beyond
  /// the vector (or kAuto entries) fall through to the normal resolution.
  /// Only resolve_scatter_strategy_for_mode consults this — call sites that
  /// do not know their mode (streaming slices) ignore it.
  std::vector<ScatterStrategy> per_mode;
};

/// Reusable sorted-scatter plan for one (tensor, mode): the nonzero ids
/// permuted so equal output rows are contiguous, plus the segment table.
/// Built once, reused every iteration (the tensor never changes during a
/// factorization).
struct ScatterPlan {
  /// Nonzero ids sorted by output row; ties keep ascending id order (the
  /// radix sort is stable), which fixes the accumulation order and makes the
  /// sorted path bit-deterministic.
  std::vector<index_t> order;

  /// seg_ptr[s] .. seg_ptr[s+1] delimit segment s inside `order`.
  std::vector<index_t> seg_ptr;

  /// Output row owned by segment s. Rows with no nonzeros have no segment.
  std::vector<index_t> seg_row;

  index_t num_segments() const {
    return static_cast<index_t>(seg_row.size());
  }

  std::size_t storage_bytes() const {
    return (order.size() + seg_ptr.size() + seg_row.size()) * sizeof(index_t);
  }
};

/// Lazily built per-mode plan store for backends that serve every mode of a
/// fixed tensor. Not thread-safe (backends are driven by one caller, like
/// the rest of the library).
class ScatterPlanCache {
 public:
  /// `engine` tags this cache's series in the process-wide
  /// mttkrp.scatter_cache.* counters ("backend" for the MTTKRP backends and
  /// the streaming path, "dimtree" for the dimension-tree engine's cache).
  /// The per-cache hits()/misses() below are untouched by the tag.
  explicit ScatterPlanCache(const char* engine = "backend") : engine_(engine) {}

  template <typename BuildFn>
  const ScatterPlan& get(int mode, const BuildFn& build) {
    CSTF_CHECK(mode >= 0 && mode < kMaxModes);
    auto& slot = slots_[static_cast<std::size_t>(mode)];
    if (!slot) {
      ++misses_;
      bump_metrics(false);
      slot = std::make_unique<ScatterPlan>(build());
    } else {
      ++hits_;
      bump_metrics(true);
    }
    return *slot;
  }

  /// Plan reuse counters (cumulative across clear()): a miss builds a plan,
  /// a hit reuses one. Surfaced by cstf_info and the tuning telemetry so
  /// plan-build overhead is observable.
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

  /// Drops every cached plan. Callers whose nonzero set changes between
  /// solves (the streaming path: each time slice is a different tensor)
  /// MUST clear before reusing the cache — a plan built for one slice
  /// permutes the wrong nonzeros of the next.
  void clear() {
    for (auto& slot : slots_) slot.reset();
  }

 private:
  /// Mirrors the hit/miss into mttkrp.scatter_cache.*{engine=...} (defined
  /// in scatter.cpp).
  void bump_metrics(bool hit) const;

  const char* engine_;
  std::unique_ptr<ScatterPlan> slots_[kMaxModes];
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

/// Number of private tiles the privatized strategy uses for `nnz` nonzeros:
/// the dynamic-chunk count of the parallel layer (~4x workers, bounded by
/// grain). Each tile is bound to a fixed contiguous nonzero range — the tile
/// index is the range index, never the worker index — so tile contents do
/// not depend on which worker claims which range.
index_t privatized_tile_count(index_t nnz);

/// Do the privatized strategy's tiles for `nnz` nonzeros — T * mode_len *
/// rank words, T = privatized_tile_count(nnz) — fit
/// `opts.privatization_budget_bytes`? The kAuto rule, shared by the
/// resolver and the autotuner's candidate set.
bool privatized_fits(const ScatterOptions& opts, index_t mode_len,
                     index_t rank, index_t nnz);

/// Resolves kAuto to a concrete strategy for one mode: privatized when
/// privatized_fits, otherwise sorted. Explicit requests pass through
/// unchanged. Ignores `opts.per_mode` (callers that do not know their mode
/// index).
ScatterStrategy resolve_scatter_strategy(const ScatterOptions& opts,
                                         index_t mode_len, index_t rank,
                                         index_t nnz);

/// Mode-aware resolution: a concrete `opts.per_mode[mode]` entry (the
/// autotuner's pick) wins. Without an override this is exactly
/// resolve_scatter_strategy.
ScatterStrategy resolve_scatter_strategy_for_mode(const ScatterOptions& opts,
                                                  int mode, index_t mode_len,
                                                  index_t rank, index_t nnz);

/// Adds the strategy-specific cost terms to a kernel-stats record that
/// already accounts for the shared work (stream + factor gathers + scatter
/// write traffic):
///  * kPrivatized: tile zeroing plus the tree-reduce traffic and flops;
///  * kSorted: the streamed read of the plan's permutation.
void apply_scatter_stats(simgpu::KernelStats& stats, ScatterStrategy strategy,
                         index_t mode_len, index_t rank, double nnz);

namespace detail {
/// Builds the segment table from row keys; `order` must be the identity
/// permutation of the same length. Sorts (stable LSD radix) then scans for
/// boundaries.
ScatterPlan finish_scatter_plan(std::vector<lco_t> keys,
                                std::vector<index_t> order);
}  // namespace detail

/// Builds the sorted-scatter plan for one mode. `row_of(i)` must return the
/// output row of nonzero i, for i in [0, nnz).
template <typename RowOf>
ScatterPlan build_scatter_plan(index_t nnz, const RowOf& row_of) {
  std::vector<lco_t> keys(static_cast<std::size_t>(nnz));
  std::vector<index_t> order(static_cast<std::size_t>(nnz));
  parallel_for(0, nnz, [&](index_t i) {
    keys[static_cast<std::size_t>(i)] = static_cast<lco_t>(row_of(i));
    order[static_cast<std::size_t>(i)] = i;
  });
  return detail::finish_scatter_plan(std::move(keys), std::move(order));
}

/// The engine: accumulates one rank-length contribution per nonzero into
/// `out` (dims[mode] x R, column-major) using the given concrete strategy.
/// `contribute(i, row)` must fill `row` (length out.cols()) with nonzero i's
/// Khatri-Rao row and return its output row index; it must be safe to call
/// concurrently for distinct i. `plan` is required for kSorted and ignored
/// otherwise. Zeroes `out` itself.
template <typename Contribute>
void scatter_accumulate(ScatterStrategy strategy, Matrix& out, index_t nnz,
                        const Contribute& contribute,
                        const ScatterPlan* plan = nullptr) {
  CSTF_CHECK_MSG(strategy != ScatterStrategy::kAuto,
                 "scatter_accumulate requires a concrete strategy; resolve "
                 "kAuto with resolve_scatter_strategy first");
  const index_t mode_len = out.rows();
  const index_t rank = out.cols();
  out.set_all(0.0);
  if (nnz <= 0) return;

  switch (strategy) {
    case ScatterStrategy::kPrivatized: {
      const index_t tiles = privatized_tile_count(nnz);
      const auto len = static_cast<std::size_t>(mode_len * rank);
      // `out` itself serves as tile 0 (already zeroed); the pool lends the
      // other tiles-1 buffers, unzeroed — each range zeroes its own prefix.
      ScratchPool::Lease lease = ScratchPool::global().acquire(
          static_cast<std::size_t>(tiles - 1), len);
      std::vector<real_t*> tile(static_cast<std::size_t>(tiles));
      tile[0] = out.data();
      for (index_t t = 1; t < tiles; ++t) {
        tile[static_cast<std::size_t>(t)] =
            lease.tile(static_cast<std::size_t>(t - 1));
      }
      const index_t chunk = (nnz + tiles - 1) / tiles;
      // One loop item per tile: tile t accumulates exactly the nonzeros of
      // its fixed range, serially in id order, whichever worker runs it.
      parallel_for(
          0, tiles,
          [&](index_t t) {
            real_t* dst = tile[static_cast<std::size_t>(t)];
            if (t > 0) std::fill_n(dst, len, real_t{0});
            thread_local std::vector<real_t> row;
            if (row.size() < static_cast<std::size_t>(rank)) {
              row.resize(static_cast<std::size_t>(rank));
            }
            const index_t lo = t * chunk;
            const index_t hi = std::min<index_t>(lo + chunk, nnz);
            for (index_t i = lo; i < hi; ++i) {
              const index_t out_row = contribute(i, row.data());
              for (index_t r = 0; r < rank; ++r) {
                dst[static_cast<std::size_t>(r * mode_len + out_row)] +=
                    row[static_cast<std::size_t>(r)];
              }
            }
          },
          /*grain=*/1);
      deterministic_tree_reduce(tile.data(), static_cast<std::size_t>(tiles),
                                static_cast<index_t>(len));
      return;
    }

    case ScatterStrategy::kSorted: {
      CSTF_CHECK(plan != nullptr);
      CSTF_CHECK(static_cast<index_t>(plan->order.size()) == nnz);
      const index_t segments = plan->num_segments();
      // Whole segments per loop item: each output row has exactly one owner,
      // so the writes are plain stores and the per-row accumulation order is
      // the plan's (fixed) order.
      parallel_for(
          0, segments,
          [&](index_t s) {
            thread_local std::vector<real_t> scratch;
            if (scratch.size() < 2 * static_cast<std::size_t>(rank)) {
              scratch.resize(2 * static_cast<std::size_t>(rank));
            }
            real_t* row = scratch.data();
            real_t* acc = scratch.data() + rank;
            std::fill_n(acc, static_cast<std::size_t>(rank), real_t{0});
            const index_t lo = plan->seg_ptr[static_cast<std::size_t>(s)];
            const index_t hi = plan->seg_ptr[static_cast<std::size_t>(s) + 1];
            for (index_t k = lo; k < hi; ++k) {
              const index_t i = plan->order[static_cast<std::size_t>(k)];
              contribute(i, row);
              for (index_t r = 0; r < rank; ++r) {
                acc[static_cast<std::size_t>(r)] +=
                    row[static_cast<std::size_t>(r)];
              }
            }
            const index_t out_row = plan->seg_row[static_cast<std::size_t>(s)];
            for (index_t r = 0; r < rank; ++r) {
              out(out_row, r) = acc[static_cast<std::size_t>(r)];
            }
          },
          /*grain=*/16);
      return;
    }

    case ScatterStrategy::kAuto:
      break;  // rejected by the entry check
  }
}

}  // namespace cstf
