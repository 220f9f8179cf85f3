// ADMM factor update (Algorithms 2 and 3 of the paper).
//
// One class covers the paper's four Figure-4 configurations through two
// independent switches:
//   operation_fusion  — fused custom kernels (Section 4.3.1) vs a chain of
//                       cuBLAS-style DGEAM/reduction calls;
//   preinversion      — explicit (L L^T)^{-1} once + DGEMM per inner
//                       iteration (Section 4.3.2) vs triangular solves.
// Both off   = baseline "generic ADMM on GPU" (Algorithm 2);
// both on    = cuADMM (Algorithm 3).
#pragma once

#include "updates/admm_kernels.hpp"
#include "updates/update_method.hpp"

namespace cstf {

struct AdmmOptions {
  Proximity prox = Proximity::non_negative();

  /// Inner ADMM iterations. The paper fixes 10 ("ADMM converges in
  /// approximately 10 iterations for all practical purposes").
  int inner_iterations = 10;

  /// Early-exit tolerance on the primal/dual residual ratios (Algorithm 2
  /// line 9). 0 disables the test so every run costs exactly
  /// `inner_iterations` — what the paper's fixed-iteration benchmarking does.
  real_t tolerance = 0.0;

  bool operation_fusion = true;
  bool preinversion = true;
};

/// Result of the last update() call (residuals of the final inner iteration).
struct AdmmDiagnostics {
  int iterations = 0;
  real_t primal_residual = 0.0;  // ||H - H~||^2 / ||H||^2
  real_t dual_residual = 0.0;    // ||H - H_prev||^2 / ||U||^2
  real_t rho = 0.0;
};

/// The factorized system matrix of the ADMM inner loop: rho = trace(S)/R
/// (clamped to 1 when degenerate), L the Cholesky factor of S + rho*I, and —
/// when pre-inverted — the explicit (L L^T)^{-1}. update() rebuilds this
/// every call; the serving fold-in path builds it once per model snapshot
/// (prepare_admm_gram) and amortizes the factorization across thousands of
/// requests, where the paper's pre-inversion optimization pays off most.
struct AdmmGram {
  real_t rho = 0.0;
  Matrix l;
  Matrix inverse;  // empty unless pre-inverted

  bool preinverted() const { return !inverse.empty(); }
};

/// Factors S + rho*I on the host without metering (no Device): the cache-
/// building path, charged once at model-publish time rather than per solve.
AdmmGram prepare_admm_gram(const Matrix& s, bool preinvert);

class AdmmUpdate final : public UpdateMethod {
 public:
  explicit AdmmUpdate(AdmmOptions options) : options_(options) {}

  std::string name() const override;
  const AdmmOptions& options() const { return options_; }

  void update(simgpu::Device& dev, const Matrix& s, const Matrix& m, Matrix& h,
              ModeState& state) const override;

  /// Runs the inner iterations against an already-factorized Gram, skipping
  /// the per-call dpotrf/dpotri (and their modeled cost). `gram` must have
  /// been built with pre-inversion iff options().preinversion. This is the
  /// serving fold-in hot path; update() is equivalent to prepare_admm_gram +
  /// update_with_gram with the factorization metered.
  void update_with_gram(simgpu::Device& dev, const AdmmGram& gram,
                        const Matrix& m, Matrix& h, ModeState& state) const;

  /// Diagnostics of the most recent update() call.
  const AdmmDiagnostics& last() const { return last_; }

 private:
  AdmmOptions options_;
  mutable AdmmDiagnostics last_;
};

}  // namespace cstf
