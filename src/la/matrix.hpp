// Dense row-major matrix — the storage type for factor matrices.
//
// Row-major because the hot loop of every sparse MTTKRP gathers one R-wide
// factor row per nonzero per mode (DESIGN.md §8): stored row-major, that
// row is R contiguous reals — one or two cache lines — where a column-major
// factor would scatter it over R lines I_m apart. Every matrix uses this one
// layout: the I x R factors and MTTKRP outputs, ADMM's M/H/U and duals, and
// the R x R Grams, Cholesky factors and inverses. The kernels that walk a
// matrix (la/blas, la/cholesky, la/elementwise) follow storage order while
// keeping each element's summation order, so results do not depend on the
// layout. Files keep their column-major payloads: the .cstf and CSTFCKPT
// writers and readers convert at the boundary.
#pragma once

#include <initializer_list>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

namespace cstf {

/// Owning dense matrix of `real_t`, row-major, zero-initialized.
class Matrix {
 public:
  Matrix() = default;

  Matrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), real_t{0}) {}

  /// Builds from a row-major initializer list (convenient in tests):
  /// Matrix::from_rows({{1,2},{3,4}}).
  static Matrix from_rows(std::initializer_list<std::initializer_list<real_t>> rows);

  /// Identity matrix of order n.
  static Matrix identity(index_t n);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }

  /// Pointer to the start of row i: its cols() entries are contiguous.
  real_t* row(index_t i) {
    CSTF_CHECK(i >= 0 && i < rows_);
    return data_.data() + static_cast<std::size_t>(i * cols_);
  }
  const real_t* row(index_t i) const {
    CSTF_CHECK(i >= 0 && i < rows_);
    return data_.data() + static_cast<std::size_t>(i * cols_);
  }

  real_t& operator()(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  real_t operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  /// Sets every entry to `value`.
  void set_all(real_t value);

  /// Fills with uniform values in [lo, hi) from `rng`, drawn for (0,0),
  /// (1,0), ... — column by column — so a seed gives the same matrix
  /// whatever the storage order.
  void fill_uniform(Rng& rng, real_t lo = 0.0, real_t hi = 1.0);

  /// Fills with N(mean, stddev) values from `rng`, in fill_uniform's order.
  void fill_normal(Rng& rng, real_t mean = 0.0, real_t stddev = 1.0);

  /// Resizes, discarding contents (re-zeroed).
  void resize(index_t rows, index_t cols);

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  /// rows * cols, after checking that both are non-negative and that the
  /// product fits index_t — before anything is allocated.
  static std::size_t checked_size(index_t rows, index_t cols);

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<real_t> data_;
};

/// Max absolute elementwise difference; the comparison primitive used by
/// tests to check kernel equivalence.
real_t max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace cstf
