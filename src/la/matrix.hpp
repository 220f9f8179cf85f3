// Dense column-major matrix — the storage type for factor matrices.
//
// Column-major is chosen to match BLAS/cuBLAS convention: the paper's update
// kernels are expressed in terms of DGEMM/DGEAM on column-major operands, and
// keeping the same layout makes the traffic accounting in simgpu line up with
// the paper's counts.
#pragma once

#include <initializer_list>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

namespace cstf {

/// Owning dense matrix of `real_t`, column-major, zero-initialized.
class Matrix {
 public:
  Matrix() = default;

  Matrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows * cols), real_t{0}) {
    CSTF_CHECK(rows >= 0 && cols >= 0);
  }

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

  /// Pointer to the start of column j.
  real_t* col(index_t j) {
    CSTF_CHECK(j >= 0 && j < cols_);
    return data_.data() + static_cast<std::size_t>(j * rows_);
  }
  const real_t* col(index_t j) const {
    CSTF_CHECK(j >= 0 && j < cols_);
    return data_.data() + static_cast<std::size_t>(j * rows_);
  }

  real_t& operator()(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(j * rows_ + i)];
  }
  real_t operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(j * rows_ + i)];
  }

  /// Sets every entry to `value`.
  void set_all(real_t value);

  /// Fills with uniform values in [lo, hi) from `rng`.
  void fill_uniform(Rng& rng, real_t lo = 0.0, real_t hi = 1.0);

  /// Fills with N(mean, stddev) values from `rng`.
  void fill_normal(Rng& rng, real_t mean = 0.0, real_t stddev = 1.0);

  /// Resizes, discarding contents (re-zeroed).
  void resize(index_t rows, index_t cols);

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<real_t> data_;
};

/// Max absolute elementwise difference; the comparison primitive used by
/// tests to check kernel equivalence.
real_t max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace cstf
