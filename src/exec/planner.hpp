// Planner — compiles the trainer's AO iteration and the two schedules with
// a second lane:
//  * the batch AO-ADMM iteration (auntf): one in-order chain on the default
//    stream, compiled for its buffer table, which is the device-footprint
//    model (DESIGN.md §12);
//  * the benches' fixed-span Gram-vs-MTTKRP pipeline, which models overlap
//    from already-scaled per-mode phase times (Gram_n overlaps MTTKRP_n;
//    both depend only on Normalize_{n-1}; the update joins them);
//  * the multi-GPU chunked compute-vs-ring-all-reduce overlap (the
//    all-reduce of chunk i starts once every shard finished chunk i).
// Other single-lane loops (a streaming slice, a serving fold-in) issue their
// steps directly instead.
//
// Callers supply the op *bodies* (closures issuing the actual metered
// kernels on the default stream) or fixed durations; the planner supplies
// the *structure*: lanes, dependency edges, typed ops, and buffer lifetimes.
// The Executor then realizes the structure as stream/event wiring. Plans are
// cached via PlanCache, keyed by (tensor identity, rank, options digest): a
// key change drops the slot and recompiles.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "exec/op_graph.hpp"

namespace cstf::exec {

/// Spec for one batch AO iteration (the AUNTF driver's loop body). The
/// per-mode bodies receive the mode index; fit bodies are used only when
/// `compute_fit` is set.
struct AoIterationSpec {
  int num_modes = 0;
  index_t rank = 0;
  bool compute_fit = false;
  double tensor_bytes = 0.0;    ///< device-resident tensor (peak-memory model)
  std::vector<index_t> mode_rows;

  /// Dimension-tree MTTKRP (DESIGN.md §13): when set, the plan adds the
  /// nnz x R chain intermediate as a buffer (so it participates in lifetimes
  /// and peak_bytes), shrinks mttkrp_n's factor reads to the suffix the
  /// derive actually gathers, and emits an explicit kDimTreeExtend op after
  /// normalize_n that folds the freshly-updated factor into the chain.
  bool use_dimtree = false;
  double dimtree_chain_bytes = 0.0;
  /// Body of the extend op; receives the target chain level (n+1 after
  /// mode n). Required when use_dimtree is set.
  std::function<void(simgpu::Device&, int)> dimtree_extend;

  std::function<void(simgpu::Device&, int)> hadamard;       // S^(n) assembly
  std::function<void(simgpu::Device&, int)> mttkrp;         // M^(n)
  std::function<void(simgpu::Device&, int)> update;         // H^(n)
  std::function<void(simgpu::Device&, int)> normalize;
  std::function<void(simgpu::Device&, int)> gram_recompute; // G_n from H^(n)
  std::function<void(simgpu::Device&)> fit_capture;  // pre-normalize snapshot
  std::function<void(simgpu::Device&)> fit;          // post-loop fit value
};

/// Fixed-duration per-mode phase times for the bench variant of the AO
/// pipeline (already scaled to the full dataset).
struct FixedModePhases {
  double gram_s = 0.0;
  double mttkrp_s = 0.0;
  double update_s = 0.0;
  double normalize_s = 0.0;
};

/// Spec for the multi-GPU chunked compute/all-reduce overlap: shard d's
/// compute is split into `chunks` equal fixed spans on lane d, and chunk i's
/// all-reduce (duration `chunk_comm_s`) runs on a communication lane once
/// every shard finished its chunk i.
struct ChunkedAllReduceSpec {
  std::vector<double> shard_compute_s;  ///< full per-shard compute times
  int chunks = 1;
  double chunk_comm_s = 0.0;
};

class Planner {
 public:
  static Plan compile_ao_iteration(const AoIterationSpec& spec);
  static Plan compile_fixed_pipeline(const std::vector<FixedModePhases>& modes);
  static Plan compile_chunked_allreduce(const ChunkedAllReduceSpec& spec);
};

/// Cache key: tensor identity (address/nnz-derived token), factorization
/// rank, and a digest of every option that changes the compiled structure.
struct PlanKey {
  std::uint64_t tensor_id = 0;
  std::uint64_t rank = 0;
  std::uint64_t options_digest = 0;

  friend bool operator==(const PlanKey& a, const PlanKey& b) {
    return a.tensor_id == b.tensor_id && a.rank == b.rank &&
           a.options_digest == b.options_digest;
  }
};

/// Single-slot compiled-plan cache (the plan-level analogue of
/// ScatterPlanCache): a matching key reuses the cached plan, a mismatch
/// recompiles, clear() drops the slot. Hit/miss counters are exposed so
/// tests can assert invalidation behavior.
class PlanCache {
 public:
  template <typename Build>
  std::shared_ptr<const Plan> get(const PlanKey& key, const Build& build) {
    if (plan_ != nullptr && key == key_) {
      ++hits_;
      bump_metrics(true);
      return plan_;
    }
    ++misses_;
    bump_metrics(false);
    key_ = key;
    plan_ = std::make_shared<const Plan>(build());
    return plan_;
  }

  /// Drops the cached plan (a caller whose tensor changes between runs must
  /// clear or re-key before reuse).
  void clear() { plan_.reset(); }

  bool cached() const { return plan_ != nullptr; }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

 private:
  /// Mirrors the hit/miss into the process-wide exec.plan_cache.* counters
  /// (defined in planner.cpp; the per-cache counters above are untouched).
  static void bump_metrics(bool hit);

  PlanKey key_{};
  std::shared_ptr<const Plan> plan_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace cstf::exec
