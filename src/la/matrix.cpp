#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cstf {

std::size_t Matrix::checked_size(index_t rows, index_t cols) {
  CSTF_CHECK_MSG(rows >= 0 && cols >= 0,
                 "matrix shape " << rows << "x" << cols << " is negative");
  CSTF_CHECK_MSG(cols == 0 || rows <= std::numeric_limits<index_t>::max() / cols,
                 "matrix shape " << rows << "x" << cols << " overflows");
  return static_cast<std::size_t>(rows * cols);
}

Matrix Matrix::from_rows(
    std::initializer_list<std::initializer_list<real_t>> rows) {
  const auto r = static_cast<index_t>(rows.size());
  CSTF_CHECK(r > 0);
  const auto c = static_cast<index_t>(rows.begin()->size());
  Matrix m(r, c);
  index_t i = 0;
  for (const auto& row : rows) {
    CSTF_CHECK(static_cast<index_t>(row.size()) == c);
    index_t j = 0;
    for (real_t v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

Matrix Matrix::identity(index_t n) {
  Matrix m(n, n);
  for (index_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::set_all(real_t value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::fill_uniform(Rng& rng, real_t lo, real_t hi) {
  for (index_t j = 0; j < cols_; ++j) {
    for (index_t i = 0; i < rows_; ++i) (*this)(i, j) = rng.uniform(lo, hi);
  }
}

void Matrix::fill_normal(Rng& rng, real_t mean, real_t stddev) {
  for (index_t j = 0; j < cols_; ++j) {
    for (index_t i = 0; i < rows_; ++i) (*this)(i, j) = rng.normal(mean, stddev);
  }
}

void Matrix::resize(index_t new_rows, index_t new_cols) {
  data_.assign(checked_size(new_rows, new_cols), real_t{0});
  rows_ = new_rows;
  cols_ = new_cols;
}

real_t max_abs_diff(const Matrix& a, const Matrix& b) {
  CSTF_CHECK(a.same_shape(b));
  real_t worst = 0.0;
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  const index_t n = a.size();
  for (index_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::abs(pa[i] - pb[i]));
  }
  return worst;
}

}  // namespace cstf
