#include "cstf/ktensor.hpp"

#include <cmath>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/elementwise.hpp"
#include "parallel/reduce.hpp"

namespace cstf {

real_t KTensor::value_at(const index_t* coords) const {
  const index_t r_max = rank();
  real_t acc = 0.0;
  for (index_t r = 0; r < r_max; ++r) {
    real_t prod = lambda[static_cast<std::size_t>(r)];
    for (int m = 0; m < num_modes(); ++m) {
      prod *= factors[static_cast<std::size_t>(m)](coords[m], r);
    }
    acc += prod;
  }
  return acc;
}

real_t KTensor::norm_sq() const {
  const index_t r_max = rank();
  CSTF_CHECK(r_max > 0);
  Matrix had(r_max, r_max);
  had.set_all(1.0);
  Matrix g(r_max, r_max);
  for (const Matrix& f : factors) {
    la::gram(f, g);
    la::hadamard_inplace(had, g);
  }
  real_t acc = 0.0;
  for (index_t s = 0; s < r_max; ++s) {
    for (index_t r = 0; r < r_max; ++r) {
      acc += lambda[static_cast<std::size_t>(r)] *
             lambda[static_cast<std::size_t>(s)] * had(r, s);
    }
  }
  return acc;
}

void KTensor::validate() const {
  CSTF_CHECK_MSG(!factors.empty(), "KTensor has no factor matrices");
  const index_t r_max = rank();
  CSTF_CHECK_MSG(r_max > 0, "KTensor rank is zero");
  CSTF_CHECK_MSG(lambda.size() == static_cast<std::size_t>(r_max),
                 "lambda has " << lambda.size() << " entries for rank "
                               << r_max);
  for (real_t l : lambda) {
    CSTF_CHECK_MSG(std::isfinite(l), "non-finite lambda entry " << l);
  }
  for (int m = 0; m < num_modes(); ++m) {
    const Matrix& f = factors[static_cast<std::size_t>(m)];
    CSTF_CHECK_MSG(f.rows() > 0, "mode " << m << " factor has no rows");
    CSTF_CHECK_MSG(f.cols() == r_max, "mode " << m << " factor has "
                                              << f.cols()
                                              << " columns for rank " << r_max);
    const real_t* p = f.data();
    for (index_t i = 0; i < f.size(); ++i) {
      CSTF_CHECK_MSG(std::isfinite(p[static_cast<std::size_t>(i)]),
                     "non-finite entry in mode " << m << " factor");
    }
  }
}

real_t KTensor::inner_product_with(const SparseTensor& x) const {
  CSTF_CHECK(x.num_modes() == num_modes());
  return parallel_sum(0, x.nnz(), [&](index_t i) {
    index_t coords[kMaxModes];
    for (int m = 0; m < x.num_modes(); ++m) {
      coords[m] = x.indices(m)[static_cast<std::size_t>(i)];
    }
    return x.values()[static_cast<std::size_t>(i)] * value_at(coords);
  });
}

real_t KTensor::fit_to(const SparseTensor& x) const {
  CSTF_CHECK(x.num_modes() == num_modes());
  const real_t x_norm_sq = x.frobenius_norm_sq();
  const real_t inner = inner_product_with(x);
  const real_t model_sq = norm_sq();
  const real_t residual_sq =
      std::max<real_t>(0.0, x_norm_sq - 2.0 * inner + model_sq);
  if (x_norm_sq <= 0.0) return 1.0;
  return 1.0 - std::sqrt(residual_sq) / std::sqrt(x_norm_sq);
}

}  // namespace cstf
