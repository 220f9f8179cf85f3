// Kruskal tensor: the factored CPD model [lambda; H^(1), ..., H^(N)].
#pragma once

#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "tensor/coo.hpp"

namespace cstf {

/// The output of a CPD factorization: normalized factor matrices plus the
/// per-component weights lambda.
struct KTensor {
  std::vector<Matrix> factors;  // factors[m] is I_m x R
  std::vector<real_t> lambda;   // length R

  int num_modes() const { return static_cast<int>(factors.size()); }
  index_t rank() const {
    return factors.empty() ? 0 : factors[0].cols();
  }

  /// Model value at one coordinate: sum_r lambda_r * prod_m H^(m)(i_m, r).
  real_t value_at(const index_t* coords) const;

  /// Structural + numerical sanity check: at least one mode, every factor
  /// has rank() columns and a positive row count, lambda has rank() entries,
  /// and every stored value (factors and lambda) is finite. Throws
  /// cstf::Error naming the offending mode otherwise. Called on the
  /// framework exit path and on every model load, so a corrupt factor fails
  /// loudly instead of propagating NaNs into fit/serving computations.
  void validate() const;

  /// <X, X_hat> over the nonzeros of `x` (X is zero elsewhere), parallel-
  /// reduced deterministically for a fixed thread count; fit_to() builds on
  /// it.
  real_t inner_product_with(const SparseTensor& x) const;

  /// ||X_hat||_F^2 computed in O(N R^2 + sum I_m R) via the Gram identity:
  /// sum_{r,s} lambda_r lambda_s prod_m <h_r^m, h_s^m>.
  real_t norm_sq() const;

  /// Fit against a sparse tensor: 1 - ||X - X_hat||_F / ||X||_F.
  /// Exact (enumerates model values at the nonzeros and uses norm_sq() for
  /// the dense part); intended for validation, not the inner loop.
  real_t fit_to(const SparseTensor& x) const;
};

/// Binary checkpoint of a Kruskal tensor (magic "CSTFKT1", shapes, lambda,
/// raw factor data). Round-trips exactly; throws on bad magic/truncation.
void save_ktensor(const KTensor& model, const std::string& path);
KTensor load_ktensor(const std::string& path);

}  // namespace cstf
