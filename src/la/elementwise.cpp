#include "la/elementwise.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace cstf::la {

void hadamard(const Matrix& a, const Matrix& b, Matrix& c) {
  CSTF_CHECK(a.same_shape(b) && a.same_shape(c));
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  real_t* pc = c.data();
  parallel_for_blocked(0, a.size(), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) pc[i] = pa[i] * pb[i];
  });
}

void hadamard_inplace(Matrix& c, const Matrix& a) {
  CSTF_CHECK(a.same_shape(c));
  const real_t* pa = a.data();
  real_t* pc = c.data();
  parallel_for_blocked(0, a.size(), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) pc[i] *= pa[i];
  });
}

void safe_divide(const Matrix& a, const Matrix& b, real_t eps, Matrix& c) {
  CSTF_CHECK(a.same_shape(b) && a.same_shape(c));
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  real_t* pc = c.data();
  parallel_for_blocked(0, a.size(), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) pc[i] = pa[i] / std::max(pb[i], eps);
  });
}

void clamp_min(Matrix& a, real_t floor) {
  real_t* p = a.data();
  parallel_for_blocked(0, a.size(), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) p[i] = std::max(p[i], floor);
  });
}

namespace {

// Runs body(lo, hi) over contiguous ranges of a's columns, one range per
// worker: each range streams every row of `a` once and keeps its columns'
// accumulators, so every column is reduced over the rows in ascending order.
template <typename Body>
void for_column_ranges(const Matrix& a, const Body& body) {
  const auto workers = static_cast<index_t>(global_thread_count());
  const index_t grain = std::max<index_t>(1, (a.cols() + workers - 1) / workers);
  parallel_for_blocked(0, a.cols(), body, grain);
}

}  // namespace

void column_norms(const Matrix& a, real_t* norms) {
  for_column_ranges(a, [&](index_t lo, index_t hi) {
    std::vector<real_t> acc(static_cast<std::size_t>(hi - lo), 0.0);
    for (index_t i = 0; i < a.rows(); ++i) {
      const real_t* ai = a.row(i) + lo;
      for (index_t j = 0; j < hi - lo; ++j) {
        acc[static_cast<std::size_t>(j)] += ai[j] * ai[j];
      }
    }
    for (index_t j = lo; j < hi; ++j) {
      norms[j] = std::sqrt(acc[static_cast<std::size_t>(j - lo)]);
    }
  });
}

void column_max_norms(const Matrix& a, real_t* norms) {
  for_column_ranges(a, [&](index_t lo, index_t hi) {
    std::vector<real_t> m(static_cast<std::size_t>(hi - lo), 0.0);
    for (index_t i = 0; i < a.rows(); ++i) {
      const real_t* ai = a.row(i) + lo;
      for (index_t j = 0; j < hi - lo; ++j) {
        m[static_cast<std::size_t>(j)] =
            std::max(m[static_cast<std::size_t>(j)], std::abs(ai[j]));
      }
    }
    std::copy(m.begin(), m.end(), norms + lo);
  });
}

void scale_columns_inv(Matrix& a, real_t* norms, real_t eps) {
  // A degenerate column's scale is 1: x * 1.0 == x, bit for bit.
  std::vector<real_t> inv(static_cast<std::size_t>(a.cols()));
  for (index_t j = 0; j < a.cols(); ++j) {
    if (norms[j] <= eps) norms[j] = 1.0;
    inv[static_cast<std::size_t>(j)] = 1.0 / norms[j];
  }
  const index_t cols = a.cols();
  parallel_for_blocked(0, a.rows(), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      real_t* ai = a.row(i);
      for (index_t j = 0; j < cols; ++j) ai[j] *= inv[static_cast<std::size_t>(j)];
    }
  });
}

}  // namespace cstf::la
