// AUNTF — Alternating-Update Nonnegative (constrained) Tensor Factorization
// driver: Algorithm 1 of the paper, the class the paper calls AUNTF_GPU.
//
// One outer iteration updates every mode through four phases, timed and
// metered separately so the Figure 1/3 phase breakdowns fall out directly:
//   GRAM       S^(n) = Hadamard of cached Gram matrices of the other modes,
//              plus the post-update Gram recompute of the target mode;
//   MTTKRP     M^(n) = MTTKRP(X, factors, n) via the configured backend;
//   UPDATE     H^(n) = update(S^(n), M^(n)) via the configured UpdateMethod
//              (cuADMM, generic ADMM, blocked ADMM, MU, HALS, ALS);
//   NORMALIZE  column 2-norms absorbed into lambda.
//
// The driver is execution-target agnostic: all work is issued through a
// simgpu::Device, so the same code metered against the A100 spec is the
// paper's GPU framework and against the Xeon spec is a CPU baseline.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/timer.hpp"
#include "cstf/backend.hpp"
#include "cstf/footprint.hpp"
#include "cstf/ktensor.hpp"
#include "updates/update_method.hpp"

namespace cstf {

class Auntf;

struct AuntfOptions {
  index_t rank = 16;
  int max_iterations = 10;

  /// Stop when |fit - previous fit| < tolerance (requires compute_fit).
  real_t fit_tolerance = 0.0;

  /// Seed for the random non-negative factor initialization.
  std::uint64_t seed = 42;

  /// Compute the model fit each outer iteration (adds one inner-product and
  /// a few R^2 kernels; benchmarking runs that only time phases disable it).
  bool compute_fit = true;

  /// Invoked inside run() after each completed outer iteration with the
  /// driver and the total completed-iteration count. The checkpoint layer
  /// hooks here to snapshot training state at iteration boundaries.
  std::function<void(const Auntf&, int completed)> on_iteration;

  /// Modeled device bytes of the resident tensor: the `tensor` row of the
  /// footprint (see Auntf::footprint()). 0 = a COO-equivalent estimate
  /// from the backend's nnz.
  double tensor_device_bytes = 0.0;
};

struct AuntfResult {
  int iterations = 0;
  bool converged = false;
  real_t final_fit = 0.0;
  std::vector<real_t> fit_history;
};

/// A snapshot of everything the run loop carries across outer iterations —
/// the payload of a training checkpoint. Correct ADMM resume needs the
/// per-mode dual variables (warm-started across outer iterations), not just
/// the factors; restoring this state makes a resumed run bit-identical to an
/// uninterrupted one.
struct TrainerState {
  int completed_iterations = 0;
  bool converged = false;
  real_t prev_fit = 0.0;                 // meaningful when has_prev_fit
  bool has_prev_fit = false;             // false until the first fit
  std::vector<real_t> fit_history;
  std::vector<real_t> lambda;
  std::vector<Matrix> factors;           // one per mode
  std::vector<Matrix> duals;             // ADMM U per mode; may be empty
  std::vector<real_t> rho;               // per-mode trace(S_m)/R at capture
  std::array<std::uint64_t, 4> rng{};    // driver RNG state words
};

class Auntf {
 public:
  /// The backend and update method must outlive the driver. The Device is
  /// where all work is metered; wall-clock phase times accumulate in the
  /// driver's PhaseTimer.
  Auntf(simgpu::Device& dev, const MttkrpBackend& backend,
        const UpdateMethod& update, AuntfOptions options);

  /// Per-mode update methods (mixed constraints — e.g. non-negativity on
  /// entity modes and a simplex or smoothness constraint on a
  /// distribution/time mode). `updates` must have one entry per tensor mode;
  /// all must outlive the driver.
  Auntf(simgpu::Device& dev, const MttkrpBackend& backend,
        std::vector<const UpdateMethod*> updates, AuntfOptions options);

  /// (Re-)initializes factors to uniform random non-negative values,
  /// resets Grams, lambda, dual state, timers, and device counters.
  void initialize();

  /// Runs one outer iteration (all modes). Returns the fit if computed,
  /// NaN otherwise.
  real_t iterate();

  /// Runs until convergence or max_iterations total completed iterations
  /// (resume-aware: after import_state() at iteration k, run() performs the
  /// remaining max_iterations - k). The result covers the whole training
  /// history, including iterations before a resume.
  AuntfResult run();

  /// Snapshot of the cross-iteration training state (see TrainerState).
  TrainerState export_state() const;

  /// Restores a snapshot: factors, lambda, ADMM duals, RNG, counters; Grams
  /// are recomputed from the factors (bit-identical to the in-loop
  /// recompute). Marks the driver initialized.
  void import_state(const TrainerState& state);

  /// Outer iterations completed by run() since initialize()/import_state().
  int completed_iterations() const { return completed_iterations_; }

  const std::vector<Matrix>& factors() const { return factors_; }
  const std::vector<real_t>& lambda() const { return lambda_; }

  /// The current model as a Kruskal tensor (copies the factors).
  KTensor ktensor() const;

  /// Wall-clock time per phase since initialize().
  const PhaseTimer& phases() const { return phases_; }

  /// Modeled device time per phase since initialize() — the quantity the
  /// paper's figures are built from.
  const std::map<std::string, double>& modeled_phase_seconds() const {
    return modeled_phase_;
  }

  const AuntfOptions& options() const { return options_; }
  simgpu::Device& device() { return dev_; }

  /// The modeled device footprint of a training run: the buffer table that
  /// `cstf_info --plan` prints and whose peak
  /// CstfFramework::device_footprint_bytes() reports. The dimension tree's
  /// chain counts when it fits its budget at the call.
  DeviceFootprint footprint() const;

  /// The footprint under its former name, and a read-out of the former plan
  /// cache that reports the one build every driver had: both kept for
  /// perfbench/driver.cpp (`plan()`, `plan().peak_bytes()`,
  /// `plan_cache().misses()`) until the next benchmark change.
  DeviceFootprint plan() const { return footprint(); }
  struct FootprintBuilds {
    std::int64_t misses() const { return 1; }
  };
  FootprintBuilds plan_cache() const { return {}; }

 private:
  real_t fit_from_workspace();

  simgpu::Device& dev_;
  const MttkrpBackend& backend_;
  std::vector<const UpdateMethod*> updates_;  // one per mode
  AuntfOptions options_;

  std::vector<Matrix> factors_;
  std::vector<Matrix> grams_;       // cached H^(m)^T H^(m), normalized
  std::vector<real_t> lambda_;
  std::vector<ModeState> states_;   // per-mode dual/scratch
  Rng rng_{0};                      // re-seeded by initialize()

  // Cross-iteration run() state; snapshot/restored by export/import_state.
  int completed_iterations_ = 0;
  bool converged_ = false;
  real_t prev_fit_ = 0.0;
  bool has_prev_fit_ = false;
  std::vector<real_t> fit_history_;

  PhaseTimer phases_;
  std::map<std::string, double> modeled_phase_;

  // The iteration's workspace persists across iterations; every field is
  // fully overwritten before it is read.
  struct IterationWorkspace {
    Matrix s;            // Hadamard-of-Grams S^(n)
    Matrix m_out;        // MTTKRP output
    Matrix last_m;       // final mode's MTTKRP result (fit)
    Matrix gram_unnorm;  // unnormalized Gram of the final mode (fit)
  };
  IterationWorkspace ws_;

  bool initialized_ = false;
};

}  // namespace cstf
