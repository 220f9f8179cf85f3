// Poisson non-negative tensor factorization (KL-divergence objective) — the
// generalized-loss direction of the paper's related work (Hong, Kolda &
// Duersch's GCP [8]): count tensors are Poisson observations of a
// non-negative low-rank rate, and minimizing KL divergence
//     f = sum_cells x_hat  -  sum_{nonzeros} x * log(x_hat)
// is their maximum-likelihood factorization (vs the Gaussian least-squares
// objective the ADMM framework minimizes).
//
// The solver is the multiplicative KL update (Lee & Seung extended to
// tensors, the workhorse inside CP-APR):
//     H_m(i,r) <- H_m(i,r) * Phi_m(i,r) / d_m(r)
// with Phi_m the MTTKRP of the elementwise ratio tensor (x / x_hat at the
// nonzeros) and d_m(r) = prod_{k != m} colsum_k(r) the model's mass
// gradient. Each sweep monotonically decreases f.
#pragma once

#include <vector>

#include "cstf/ktensor.hpp"
#include "mttkrp/scatter.hpp"
#include "simgpu/device.hpp"
#include "tensor/coo.hpp"

namespace cstf {

struct PoissonNtfOptions {
  index_t rank = 8;
  int max_iterations = 50;
  /// Stop when the relative objective improvement drops below this.
  real_t tolerance = 0.0;
  std::uint64_t seed = 42;
  /// Loss floor on the model value x_hat and denominator guards: the
  /// objective's log term evaluates log(max(x_hat, epsilon)), and the MU
  /// sweep's ratio and column-mass divisions clamp their denominators the
  /// same way. A nonzero observed over a zero model therefore contributes
  /// the FINITE penalty -x * log(epsilon) (= +27.6*x at the 1e-12 default)
  /// instead of +inf, so one dead cell cannot blow up the objective or the
  /// update. Must be > 0; the constructor rejects 0 and negatives, which
  /// would reintroduce log(0)/division-by-zero.
  real_t epsilon = 1e-12;
  simgpu::DeviceSpec device = simgpu::a100();
};

struct PoissonNtfResult {
  int iterations = 0;
  bool converged = false;
  real_t final_objective = 0.0;
  std::vector<real_t> objective_history;
};

class PoissonNtf {
 public:
  PoissonNtf(const SparseTensor& tensor, PoissonNtfOptions options);

  /// Runs alternating KL-MU sweeps until convergence or max_iterations.
  PoissonNtfResult run();

  /// KL objective of the current factors (up to the x*log(x) - x constant).
  real_t objective() const;

  /// Replaces the factors (warm start, or pinning exact values in tests).
  /// Shapes must match the tensor's dims and the configured rank; entries
  /// must be non-negative (the MU update preserves non-negativity only from
  /// a non-negative start).
  void set_factors(std::vector<Matrix> factors);

  const std::vector<Matrix>& factors() const { return factors_; }
  KTensor ktensor() const;
  simgpu::Device& device() { return device_; }

 private:
  void sweep_mode(int mode);

  const SparseTensor& tensor_;
  PoissonNtfOptions options_;
  simgpu::Device device_;
  std::vector<Matrix> factors_;
  std::vector<real_t> model_at_nnz_;  // x_hat cache, refreshed per sweep
  ScatterPlanCache plans_;            // sorted ratio-MTTKRP plans, per mode
};

}  // namespace cstf
