// Streaming constrained sparse CP factorization — the spCP-stream-style
// extension (Soh et al., IPDPS'21 [33]) of the batch framework: tensors
// whose final mode is time, processed one time-slice at a time in bounded
// memory.
//
// Per arriving slice X_t (an (N-1)-mode sparse tensor):
//  1. the new temporal row s_t is solved from the current factors
//     (a rank-sized constrained least-squares via ADMM);
//  2. the non-temporal normal equations are folded into exponentially
//     aged accumulators,
//       P^m <- mu * P^m + MTTKRP_m(X_t; {H}, s_t)
//       Q^m <- mu * Q^m + (s_t s_t^T) .* prod_{k != m} G_k
//     and each factor is refreshed with the same constrained ADMM update
//     the batch framework uses (warm-started duals);
//  3. s_t is appended to the temporal factor.
// A forgetting factor mu < 1 makes the model track non-stationary data.
#pragma once

#include <memory>
#include <vector>

#include "cstf/ktensor.hpp"
#include "simgpu/device.hpp"
#include "tensor/coo.hpp"
#include "updates/admm.hpp"

namespace cstf {

struct StreamingOptions {
  index_t rank = 8;

  /// Exponential aging of the accumulated statistics; 1.0 = remember
  /// everything (converges to the batch solution on stationary data),
  /// smaller values track drift.
  real_t forgetting = 1.0;

  int admm_inner_iterations = 10;
  Proximity prox = Proximity::non_negative();
  std::uint64_t seed = 42;
  simgpu::DeviceSpec device = simgpu::a100();
};

/// Weighted slice MTTKRP: out(i_m, :) = sum of x * s .* prod_{k != m}
/// H^k(i_k, :) over the slice's nonzeros in row i_m, where s is the slice's
/// temporal row (length R) — the batch MTTKRP with the time factor contracted
/// to one row. `out` must be dims[mode] x R and is overwritten. Accumulates
/// through the scatter engine's sorted strategy (mttkrp/scatter.hpp), whose
/// per-row order is ascending nonzero id, so the result is the serial loop's
/// bit for bit at any worker count.
void slice_mttkrp(const SparseTensor& slice, const std::vector<Matrix>& factors,
                  const real_t* s_row, int mode, Matrix& out);

class StreamingCstf {
 public:
  /// `nontemporal_dims` are the slice dimensions (the tensor's modes minus
  /// the trailing time mode).
  StreamingCstf(std::vector<index_t> nontemporal_dims,
                StreamingOptions options);

  /// Processes one time slice; returns the new temporal row (length rank()).
  /// The slice must have the non-temporal mode count and dimensions.
  std::vector<real_t> ingest(const SparseTensor& slice);

  index_t rank() const { return options_.rank; }
  int num_slices() const { return static_cast<int>(temporal_rows_.size()); }

  /// Non-temporal factor matrices (indexed by slice mode).
  const std::vector<Matrix>& factors() const { return factors_; }

  /// Temporal factor accumulated so far (num_slices() x rank).
  Matrix temporal() const;

  /// The full model over everything ingested so far: factors() plus the
  /// temporal factor as the final mode (lambda = 1).
  KTensor ktensor() const;

  /// Reconstruction error of one slice against the model *before* it was
  /// ingested is returned by ingest via last_slice_residual(); useful for
  /// online anomaly scoring.
  real_t last_slice_residual() const { return last_residual_; }

  simgpu::Device& device() { return device_; }

 private:
  std::vector<real_t> ingest_impl(const SparseTensor& slice);

  StreamingOptions options_;
  std::vector<index_t> dims_;
  simgpu::Device device_;
  AdmmUpdate factor_update_;
  AdmmUpdate temporal_update_;

  std::vector<Matrix> factors_;   // H^m, I_m x R
  std::vector<Matrix> grams_;     // G_m = H^m^T H^m
  std::vector<Matrix> p_accum_;   // P^m, I_m x R
  std::vector<Matrix> q_accum_;   // Q^m, R x R
  std::vector<ModeState> states_;
  std::vector<std::vector<real_t>> temporal_rows_;
  real_t last_residual_ = 0.0;

  // Set when an ingest() threw mid-update (e.g. an injected device fault):
  // the accumulators may hold a half-applied slice, so further ingests
  // refuse rather than silently diverge.
  bool poisoned_ = false;
};

}  // namespace cstf
