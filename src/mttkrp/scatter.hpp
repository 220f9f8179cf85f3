// Scatter engine for sparse MTTKRP output accumulation.
//
// Every sparse MTTKRP kernel in this library ends the same way: a rank-length
// Khatri-Rao product, formed per nonzero, is added into one row of the
// output matrix, and concurrently processed nonzeros may target the same row.
// Each product is formed in registers and added in the same pass
// (add_krp_product, below). This header centralizes the two ways to resolve
// the conflict:
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
#include <type_traits>
#include <utility>
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
  /// Poisson NTF, "dimtree" for the dimension-tree engine's cache).
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

  /// Plan reuse counters: a miss builds a plan, a hit reuses one. Surfaced
  /// by cstf_info so plan-build overhead is observable.
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

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
/// `opts.privatization_budget_bytes`? The kAuto rule.
bool privatized_fits(const ScatterOptions& opts, index_t mode_len,
                     index_t rank, index_t nnz);

/// Resolves kAuto to a concrete strategy for one mode: privatized when
/// privatized_fits, otherwise sorted. Explicit requests pass through
/// unchanged.
ScatterStrategy resolve_scatter_strategy(const ScatterOptions& opts,
                                         index_t mode_len, index_t rank,
                                         index_t nnz);

/// Adds the strategy-specific cost terms to a kernel-stats record that
/// already accounts for the shared work (stream + factor gathers + scatter
/// write traffic):
///  * kPrivatized: tile zeroing plus the tree-reduce traffic and flops;
///  * kSorted: the streamed read of the plan's permutation.
void apply_scatter_stats(simgpu::KernelStats& stats, ScatterStrategy strategy,
                         index_t mode_len, index_t rank, double nnz);

/// Copies `src` (column-major) into `dst` row-major — row i's cols()
/// entries contiguous at dst + i * cols() — parallel over row blocks. The
/// privatized tiles and the dimension-tree gathers use this layout: one
/// nonzero's R-wide row is then one contiguous run, not R strided entries.
inline void copy_to_row_major(const Matrix& src, real_t* dst) {
  const index_t rows = src.rows();
  const index_t cols = src.cols();
  const real_t* col_major = src.data();
  parallel_for_blocked(0, rows, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      for (index_t j = 0; j < cols; ++j) {
        dst[static_cast<std::size_t>(i * cols + j)] =
            col_major[static_cast<std::size_t>(j * rows + i)];
      }
    }
  });
}

/// The inverse of copy_to_row_major: overwrites `dst` from a row-major
/// buffer of dst.rows() x dst.cols() entries.
inline void copy_from_row_major(const real_t* src, Matrix& dst) {
  const index_t rows = dst.rows();
  const index_t cols = dst.cols();
  real_t* col_major = dst.data();
  parallel_for_blocked(0, rows, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      for (index_t j = 0; j < cols; ++j) {
        col_major[static_cast<std::size_t>(j * rows + i)] =
            src[static_cast<std::size_t>(i * cols + j)];
      }
    }
  });
}

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

/// Calls `body(std::integral_constant<int, G>{})` with G == count, for
/// count in [0, kMaxModes). Kernels dispatch once per call on the number of
/// factor rows each nonzero gathers, so their per-nonzero loop
/// (add_krp_product) is compiled with that number fixed: the row pointers
/// stay in registers and the loop over them unrolls.
template <typename Body>
void with_gather_count(int count, const Body& body) {
  CSTF_CHECK(count >= 0 && count < kMaxModes);
  [&]<int... G>(std::integer_sequence<int, G...>) {
    ((count == G ? body(std::integral_constant<int, G>{}) : void()), ...);
  }(std::make_integer_sequence<int, kMaxModes>{});
}

/// Adds one nonzero's Khatri-Rao product into the R-vector `acc` in a single
/// pass: for each r, x = seed(r), then x *= row[g][r * ld[g]] for g = 0 ..
/// G-1, then acc[r] += x. The product lives in a register; acc[r] is the
/// only memory written, once. Callers pass the rows in ascending mode order,
/// so every multiply is mttkrp_ref's, in its order, and each nonzero's
/// product is added once. `ld[g]` is the distance between row g's entries:
/// the row count of a column-major factor read in place, 1 for a row-major
/// copy.
template <int G, typename Seed>
inline void add_krp_product(real_t* __restrict acc, index_t rank,
                            const Seed& seed,
                            const real_t* const* row, const index_t* ld) {
  for (index_t r = 0; r < rank; ++r) {
    real_t x = seed(r);
    // GCC -O2 keeps even a constant-count loop rolled; unrolled, the row
    // pointers and strides stay in registers.
#pragma GCC unroll kMaxModes
    for (int g = 0; g < G; ++g) x *= row[g][r * ld[g]];
    acc[r] += x;
  }
}

/// The factors an MTTKRP for mode `skip` gathers from, read in place: every
/// other mode, in ascending order. Gathered factor g is factors[mode[g]];
/// its row c starts at data[g] + c, with entries ld[g] (its row count)
/// apart.
struct ColumnGather {
  ColumnGather(const std::vector<Matrix>& factors, int skip) {
    CSTF_CHECK(factors.size() <= static_cast<std::size_t>(kMaxModes));
    for (int m = 0; m < static_cast<int>(factors.size()); ++m) {
      if (m == skip) continue;
      const Matrix& f = factors[static_cast<std::size_t>(m)];
      mode[count] = m;
      data[count] = f.data();
      ld[count] = f.rows();
      ++count;
    }
  }

  /// add_krp_product over the gathered factors' rows coord(g), g = 0 ..
  /// G-1 (G must equal count).
  template <int G, typename Seed, typename Coord>
  void add(real_t* acc, index_t rank, const Seed& seed,
           const Coord& coord) const {
    const real_t* row[kMaxModes];
#pragma GCC unroll kMaxModes
    for (int g = 0; g < G; ++g) row[g] = data[g] + coord(g);
    add_krp_product<G>(acc, rank, seed, row, ld);
  }

  int count = 0;
  int mode[kMaxModes] = {};
  const real_t* data[kMaxModes] = {};
  index_t ld[kMaxModes] = {};
};

/// The engine: accumulates one rank-length Khatri-Rao product per nonzero
/// into `out` (dims[mode] x R, column-major) using the given concrete
/// strategy. `contribute(i, acc)` must add nonzero i's product into the
/// R-vector `acc(row)`, where `row` is nonzero i's output row — in one pass,
/// with add_krp_product — and must be safe to call concurrently for
/// distinct i. Privatized hands it the row's run in the nonzero's private
/// tile; sorted hands it the segment's accumulator, whatever the row. `plan`
/// is required for kSorted and ignored otherwise. Zeroes `out` itself.
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
      // The pool lends all T row-major tiles, unzeroed — each range zeroes
      // its own prefix. Row-major, a nonzero's contribution is one
      // contiguous run of R entries; tile 0 is transposed into `out` last.
      ScratchPool::Lease lease = ScratchPool::global().acquire(
          static_cast<std::size_t>(tiles), len);
      std::vector<real_t*> tile(static_cast<std::size_t>(tiles));
      for (index_t t = 0; t < tiles; ++t) {
        tile[static_cast<std::size_t>(t)] =
            lease.tile(static_cast<std::size_t>(t));
      }
      const index_t chunk = (nnz + tiles - 1) / tiles;
      // One loop item per tile: tile t accumulates exactly the nonzeros of
      // its fixed range, serially in id order, whichever worker runs it.
      parallel_for(
          0, tiles,
          [&](index_t t) {
            real_t* dst = tile[static_cast<std::size_t>(t)];
            std::fill_n(dst, len, real_t{0});
            const auto tile_row = [dst, rank](index_t row) {
              return dst + static_cast<std::size_t>(row * rank);
            };
            const index_t lo = t * chunk;
            const index_t hi = std::min<index_t>(lo + chunk, nnz);
            for (index_t i = lo; i < hi; ++i) contribute(i, tile_row);
          },
          /*grain=*/1);
      deterministic_tree_reduce(tile.data(), static_cast<std::size_t>(tiles),
                                static_cast<index_t>(len));
      copy_from_row_major(tile[0], out);
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
            thread_local std::vector<real_t> segment_acc;
            if (segment_acc.size() < static_cast<std::size_t>(rank)) {
              segment_acc.resize(static_cast<std::size_t>(rank));
            }
            real_t* acc = segment_acc.data();
            std::fill_n(acc, static_cast<std::size_t>(rank), real_t{0});
            const auto into_acc = [acc](index_t) { return acc; };
            const index_t lo = plan->seg_ptr[static_cast<std::size_t>(s)];
            const index_t hi = plan->seg_ptr[static_cast<std::size_t>(s) + 1];
            for (index_t k = lo; k < hi; ++k) {
              contribute(plan->order[static_cast<std::size_t>(k)], into_acc);
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
