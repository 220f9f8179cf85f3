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
//                   private output tile (tile 0 is the output itself);
//                   tiles are then combined by a fixed-shape pairwise tree
//                   reduction into tile 0. Needs (T-1) * dims[mode] * R
//                   reals of scratch — only affordable on short modes.
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
//
// The strategy is a host decision only. The modeled device records the
// format's own MTTKRP kernel, whose stats come from the tensor's shape and
// the rank (DESIGN.md §2): no record carries a tile, a tree reduce or a
// plan, so modeled time does not depend on the strategy or on the host's
// worker count.
#pragma once

#include <cstddef>
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
};

/// Upper bound on the private-tile scratch (bytes) the privatized strategy
/// may hold for one call; above it, kAuto resolves to sorted. Tiles are
/// pooled (ScratchPool), so this bounds steady-state memory, not per-call
/// allocation traffic.
inline constexpr double kPrivatizationBudgetBytes = 64.0 * 1024.0 * 1024.0;

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
  /// mttkrp.scatter_cache.* counters ("backend" for the MTTKRP backends,
  /// "dimtree" for the dimension-tree engine's cache), the one count of plan
  /// builds and reuses.
  explicit ScatterPlanCache(const char* engine = "backend") : engine_(engine) {}

  template <typename BuildFn>
  const ScatterPlan& get(int mode, const BuildFn& build) {
    CSTF_CHECK(mode >= 0 && mode < kMaxModes);
    auto& slot = slots_[static_cast<std::size_t>(mode)];
    bump_metrics(slot != nullptr);
    if (!slot) slot = std::make_unique<ScatterPlan>(build());
    return *slot;
  }

 private:
  /// Counts a hit (a reused plan) or a miss (a built one) in
  /// mttkrp.scatter_cache.*{engine=...} (defined in scatter.cpp).
  void bump_metrics(bool hit) const;

  const char* engine_;
  std::unique_ptr<ScatterPlan> slots_[kMaxModes];
};

/// Number of private tiles the privatized strategy uses for `nnz` nonzeros:
/// the dynamic-chunk count of the parallel layer (~4x workers, bounded by
/// grain). Each tile is bound to a fixed contiguous nonzero range — the tile
/// index is the range index, never the worker index — so tile contents do
/// not depend on which worker claims which range.
index_t privatized_tile_count(index_t nnz);

/// Do the privatized strategy's tiles for `nnz` nonzeros — T * mode_len *
/// rank words, T = privatized_tile_count(nnz) — fit
/// kPrivatizationBudgetBytes? The kAuto rule.
bool privatized_fits(index_t mode_len, index_t rank, index_t nnz);

/// Resolves kAuto to a concrete strategy for one mode: privatized when
/// privatized_fits, otherwise sorted. Explicit requests pass through
/// unchanged.
ScatterStrategy resolve_scatter_strategy(const ScatterOptions& opts,
                                         index_t mode_len, index_t rank,
                                         index_t nnz);

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
/// pass: for each r, x = seed(r), then x *= row[g][r] for g = 0 .. G-1,
/// then acc[r] += x. The product lives in a register; acc[r] is the only
/// memory written, once. Callers pass the rows in ascending mode order, so
/// every multiply is mttkrp_ref's, in its order, and each nonzero's product
/// is added once. Each row is R contiguous reals: a factor row read where it
/// is stored.
template <int G, typename Seed>
inline void add_krp_product(real_t* __restrict acc, index_t rank,
                            const Seed& seed, const real_t* const* row) {
  for (index_t r = 0; r < rank; ++r) {
    real_t x = seed(r);
    // GCC -O2 keeps even a constant-count loop rolled; unrolled, the row
    // pointers stay in registers.
#pragma GCC unroll kMaxModes
    for (int g = 0; g < G; ++g) x *= row[g][r];
    acc[r] += x;
  }
}

/// The factors an MTTKRP gathers from, read in place: factors[m] for every
/// mode m >= `first` other than `skip`, in ascending order (a flat MTTKRP
/// for mode `skip` gathers every other mode; the dimension tree's derive
/// gathers only the suffix after its mode). Gathered factor g is
/// factors[mode[g]]; its row c is the R contiguous reals at data[g] + c * R.
struct RowGather {
  RowGather(const std::vector<Matrix>& factors, int skip, int first = 0) {
    CSTF_CHECK(factors.size() <= static_cast<std::size_t>(kMaxModes));
    for (int m = first; m < static_cast<int>(factors.size()); ++m) {
      if (m == skip) continue;
      mode[count] = m;
      data[count] = factors[static_cast<std::size_t>(m)].data();
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
    for (int g = 0; g < G; ++g) row[g] = data[g] + coord(g) * rank;
    add_krp_product<G>(acc, rank, seed, row);
  }

  int count = 0;
  int mode[kMaxModes] = {};
  const real_t* data[kMaxModes] = {};
};

/// The engine: accumulates one rank-length Khatri-Rao product per nonzero
/// into `out` (dims[mode] x R) using the given concrete strategy.
/// `contribute(i, acc)` must add nonzero i's product into the R-vector
/// `acc(row)`, where `row` is nonzero i's output row — in one pass, with
/// add_krp_product — and must be safe to call concurrently for distinct i.
/// Privatized hands it the row in the nonzero's private tile (tile 0 is
/// `out` itself); sorted hands it the row of `out`, which the segment's
/// single owner accumulates in plan order. `plan` is required for kSorted
/// and ignored otherwise. Zeroes `out` itself.
template <typename Contribute>
void scatter_accumulate(ScatterStrategy strategy, Matrix& out, index_t nnz,
                        const Contribute& contribute,
                        const ScatterPlan* plan = nullptr) {
  CSTF_CHECK_MSG(strategy != ScatterStrategy::kAuto,
                 "scatter_accumulate requires a concrete strategy; resolve "
                 "kAuto with resolve_scatter_strategy first");
  const index_t rank = out.cols();
  out.set_all(0.0);
  if (nnz <= 0) return;
  const auto rows_of = [rank](real_t* base) {
    return [base, rank](index_t row) { return base + row * rank; };
  };

  switch (strategy) {
    case ScatterStrategy::kPrivatized: {
      const index_t tiles = privatized_tile_count(nnz);
      const auto len = static_cast<std::size_t>(out.size());
      // Tile 0 is `out`; the pool lends the other T-1 tiles, unzeroed —
      // each range zeroes its own.
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
            const auto tile_row = rows_of(dst);
            const index_t lo = t * chunk;
            const index_t hi = std::min<index_t>(lo + chunk, nnz);
            for (index_t i = lo; i < hi; ++i) contribute(i, tile_row);
          },
          /*grain=*/1);
      deterministic_tree_reduce(tile.data(), static_cast<std::size_t>(tiles),
                                static_cast<index_t>(len));
      return;
    }

    case ScatterStrategy::kSorted: {
      CSTF_CHECK(plan != nullptr);
      CSTF_CHECK(static_cast<index_t>(plan->order.size()) == nnz);
      // Whole segments per loop item: each output row has exactly one owner,
      // so the writes are plain adds onto the zeroed row and the per-row
      // accumulation order is the plan's (fixed) order.
      const auto out_row = rows_of(out.data());
      parallel_for(
          0, plan->num_segments(),
          [&](index_t s) {
            const index_t lo = plan->seg_ptr[static_cast<std::size_t>(s)];
            const index_t hi = plan->seg_ptr[static_cast<std::size_t>(s) + 1];
            for (index_t k = lo; k < hi; ++k) {
              contribute(plan->order[static_cast<std::size_t>(k)], out_row);
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
