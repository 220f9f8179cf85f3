#include "la/cholesky.hpp"

#include <cmath>

#include "parallel/parallel_for.hpp"

namespace cstf::la {

void cholesky_factor(const Matrix& s, Matrix& l) {
  const index_t n = s.rows();
  CSTF_CHECK(s.cols() == n);
  if (!l.same_shape(s)) l.resize(n, n);
  // Column-oriented (left-looking) Cholesky; n is the factorization rank
  // (<= 64 in the paper's experiments), so this is sequential by design.
  for (index_t j = 0; j < n; ++j) {
    real_t diag = s(j, j);
    for (index_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    CSTF_CHECK_MSG(diag > 0.0,
                   "matrix not positive definite at pivot " << j
                                                            << " (d=" << diag << ")");
    const real_t ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (index_t i = j + 1; i < n; ++i) {
      real_t acc = s(i, j);
      for (index_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / ljj;
    }
    for (index_t i = 0; i < j; ++i) l(i, j) = 0.0;
  }
}

void trsm_lower(const Matrix& l, Matrix& b) {
  const index_t n = l.rows();
  CSTF_CHECK(l.cols() == n && b.rows() == n);
  // Each right-hand-side column is independent; the substitution within a
  // column is inherently sequential — exactly the serialization the paper
  // calls out as hostile to GPUs (Section 4.3.2). A block of columns is
  // solved one row at a time: X(i,j) = (B(i,j) - sum_{k<i} L(i,k) X(k,j))
  // / L(i,i), k ascending.
  parallel_for_blocked(0, b.cols(), [&](index_t lo, index_t hi) {
    for (index_t i = 0; i < n; ++i) {
      real_t* xi = b.row(i);
      for (index_t k = 0; k < i; ++k) {
        const real_t lik = l(i, k);
        const real_t* xk = b.row(k);
        for (index_t j = lo; j < hi; ++j) xi[j] -= lik * xk[j];
      }
      const real_t lii = l(i, i);
      for (index_t j = lo; j < hi; ++j) xi[j] /= lii;
    }
  });
}

void trsm_lower_transpose(const Matrix& l, Matrix& b) {
  const index_t n = l.rows();
  CSTF_CHECK(l.cols() == n && b.rows() == n);
  // X(i,j) = (B(i,j) - sum_{k>i} L(k,i) X(k,j)) / L(i,i), i descending and
  // k ascending.
  parallel_for_blocked(0, b.cols(), [&](index_t lo, index_t hi) {
    for (index_t i = n - 1; i >= 0; --i) {
      real_t* xi = b.row(i);
      for (index_t k = i + 1; k < n; ++k) {
        const real_t lki = l(k, i);
        const real_t* xk = b.row(k);
        for (index_t j = lo; j < hi; ++j) xi[j] -= lki * xk[j];
      }
      const real_t lii = l(i, i);
      for (index_t j = lo; j < hi; ++j) xi[j] /= lii;
    }
  });
}

void cholesky_solve(const Matrix& l, Matrix& b) {
  trsm_lower(l, b);
  trsm_lower_transpose(l, b);
}

void cholesky_solve_right(const Matrix& l, Matrix& b) {
  const index_t r = l.rows();
  CSTF_CHECK(l.cols() == r && b.cols() == r);
  // X (L L^T) = B row-wise: with x, b rows, first solve z L^T = b_row
  // (forward substitution against L), then x L = z (backward substitution).
  parallel_for_blocked(0, b.rows(), [&](index_t lo, index_t hi) {
    std::vector<real_t> row(static_cast<std::size_t>(r));
    for (index_t i = lo; i < hi; ++i) {
      // Forward: z_j = (b_j - sum_{k<j} z_k * L(j,k)) / L(j,j).
      for (index_t j = 0; j < r; ++j) {
        real_t acc = b(i, j);
        for (index_t k = 0; k < j; ++k) acc -= row[static_cast<std::size_t>(k)] * l(j, k);
        row[static_cast<std::size_t>(j)] = acc / l(j, j);
      }
      // Backward: x_j = (z_j - sum_{k>j} x_k * L(k,j)) / L(j,j).
      for (index_t j = r - 1; j >= 0; --j) {
        real_t acc = row[static_cast<std::size_t>(j)];
        for (index_t k = j + 1; k < r; ++k) acc -= b(i, k) * l(k, j);
        b(i, j) = acc / l(j, j);
      }
    }
  }, /*grain=*/64);
}

void cholesky_invert(const Matrix& l, Matrix& inverse) {
  const index_t n = l.rows();
  inverse = Matrix::identity(n);
  cholesky_solve(l, inverse);
  // Symmetrize: substitution rounding can leave the inverse slightly
  // asymmetric, which would bias downstream Gram updates.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      const real_t v = 0.5 * (inverse(i, j) + inverse(j, i));
      inverse(i, j) = v;
      inverse(j, i) = v;
    }
  }
}

void add_diagonal(Matrix& s, real_t rho) {
  CSTF_CHECK(s.rows() == s.cols());
  for (index_t i = 0; i < s.rows(); ++i) s(i, i) += rho;
}

}  // namespace cstf::la
