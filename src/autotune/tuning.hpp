// Measurement-driven autotuning for the MTTKRP engine stack.
//
// The cost model (resolve_scatter_strategy / resolve_mttkrp_mode) picks the
// scatter strategy, the MTTKRP engine, and the chunking per run from the
// roofline alone; it is only as good as its calibration and re-derives the
// same answer every process. This module closes the loop the way production
// kernel stacks do: short, seeded, best-of-N *micro-trials* of each candidate
// configuration on a deterministic nonzero sample, executed through the
// metered simgpu path so every trial records both host-wallclock and modeled
// evidence; the cost model remains the prior and the tie-breaker (a measured
// win smaller than the tolerance defers to the model's pick). Decisions are
// cached persistently (tuning_cache.hpp) so later runs skip the trials.
//
// Three policies, threaded through FrameworkOptions:
//   kModel   — no tuning at all: the cost model decides, bit-identical to
//              the pre-autotune behavior. The default.
//   kCached  — use a cached decision when the key matches; run trials (and
//              store the result) only on a miss.
//   kMeasure — always run trials; refresh the cache.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autotune/tuning_cache.hpp"
#include "mttkrp/dimtree.hpp"
#include "mttkrp/scatter.hpp"
#include "simgpu/device_spec.hpp"
#include "tensor/coo.hpp"

namespace cstf::autotune {

enum class TuningPolicy {
  kModel,    ///< cost model only (default; bit-identical legacy path)
  kCached,   ///< cached decision, trials on miss
  kMeasure,  ///< always re-measure
};

/// Display name ("model", "cached", "measure").
const char* tuning_policy_name(TuningPolicy policy);

/// Parses a policy name; returns false (leaving `out` untouched) on an
/// unknown name.
bool parse_tuning_policy(const std::string& name, TuningPolicy* out);

/// Tuning configuration, carried inside FrameworkOptions.
struct TuningOptions {
  TuningPolicy policy = TuningPolicy::kModel;

  /// CSTFTUNE cache file; empty keeps decisions in-process only.
  std::string cache_path;
  std::size_t cache_capacity = kDefaultTuningCacheCapacity;

  /// Trial protocol. The seed drives the nonzero sample and the factor
  /// fills; best_of is the timed repeats per candidate (minimum wins);
  /// max_sample_nnz caps the sample the trials run on.
  std::uint64_t seed = 0x7475'6e65;  // "tune"
  std::uint32_t best_of = 3;
  std::uint64_t max_sample_nnz = 100'000;

  /// Rank candidates by measured host wall time (modeled time breaks ties).
  /// False ranks by modeled time alone — fully deterministic, which is what
  /// the tests pin; the evidence fields still record wall times.
  bool use_host_clock = true;

  /// A measured win below this relative margin defers to the cost model's
  /// pick (the model is the prior; noise should not flip decisions).
  double tie_break_tolerance = 0.05;
};

/// Everything the trials need to know about the workload being tuned.
struct TuneInputs {
  const SparseTensor* tensor = nullptr;
  index_t rank = 0;
  simgpu::DeviceSpec spec;

  /// Requested (pre-tuning) options: an explicit scatter strategy or MTTKRP
  /// mode narrows the candidate set to exactly that request.
  ScatterOptions scatter;
  MttkrpMode requested_mode = MttkrpMode::kAuto;
  double dimtree_budget_bytes = kDefaultDimtreeBudgetBytes;

  /// Resident-format streamed footprint for flat-vs-tree modeling (BLCO
  /// storage bytes); 0 = raw COO footprint.
  double flat_stream_bytes = 0.0;

  /// Layout tag folded into the tensor fingerprint (the BLCO block
  /// capacity for training records).
  std::uint64_t layout_tag = 0;
};

/// The four-digest cache key for these inputs under this protocol.
TuningKey make_tuning_key(const TuneInputs& in, const TuningOptions& opts);

/// Deterministic stratified sample of up to `max_nnz` nonzeros: the nonzero
/// range is cut into max_nnz equal buckets and one nonzero is drawn per
/// bucket with seeded jitter, preserving the tensor's index distribution.
/// Returns a copy of the whole tensor when it is already small enough.
SparseTensor sample_nonzeros(const SparseTensor& x, std::uint64_t max_nnz,
                             std::uint64_t seed);

/// Runs the calibrated micro-trials and returns the winning configuration
/// with full evidence. Deterministic for a fixed seed when
/// `opts.use_host_clock` is false.
TuningRecord run_tuning_trials(const TuneInputs& in,
                               const TuningOptions& opts);

/// True when `record` can be applied to these inputs as-is: per-mode
/// strategies cover every mode with concrete values, and the privatized
/// picks still fit the scratch budget.
bool record_applies(const TuningRecord& record, const TuneInputs& in);

/// What resolve_tuning decided and how it got there.
struct TuningOutcome {
  bool applied = false;     ///< false under kModel (record is meaningless)
  bool cache_hit = false;   ///< decision came from the cache, no trials
  bool trials_run = false;  ///< micro-trials executed this call
  TuningKey key;
  TuningRecord record;
};

/// Policy dispatch: kModel returns un-applied immediately; kCached consults
/// the cache (loading `opts.cache_path` if set) and falls back to trials on
/// a miss or an inapplicable record; kMeasure always runs trials. Whenever
/// trials run and a cache path is set, the refreshed cache is saved back.
TuningOutcome resolve_tuning(const TuneInputs& in, const TuningOptions& opts);

/// Measured serve-side calibration for the batcher tuner: the observed
/// arrival rate and the fused-solve cost model  t(B) = base + per_row * B
/// fitted from two timed solves.
struct BatcherCalibration {
  double arrival_rate_rps = 0.0;
  double solve_base_s = 0.0;
  double solve_per_row_s = 0.0;
};

struct BatcherTuning {
  double linger_s = 0.0;
  std::uint32_t max_batch = 0;
};

/// Picks the smallest max_batch whose fused-solve throughput B/t(B) is
/// within 5% of the cap's, then the linger needed to actually collect that
/// batch at the measured arrival rate (clamped to `max_linger_cap_s`).
/// Degenerate calibrations (no rate, no costs) fall back to the batcher's
/// defaults.
BatcherTuning tune_fold_in_batcher(const BatcherCalibration& cal,
                                   std::uint32_t max_batch_cap = 64,
                                   double max_linger_cap_s = 0.05);

}  // namespace cstf::autotune
