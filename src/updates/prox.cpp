#include "updates/prox.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/error.hpp"
#include "la/elementwise.hpp"
#include "parallel/parallel_for.hpp"

namespace cstf {

Proximity Proximity::from_kind(ProxKind kind, real_t a, real_t b) {
  switch (kind) {
    case ProxKind::kIdentity:
    case ProxKind::kNonNegative:
    case ProxKind::kL1:
    case ProxKind::kL1NonNegative:
    case ProxKind::kBox:
    case ProxKind::kL2Ball:
    case ProxKind::kSimplex:
    case ProxKind::kSmooth:
      return Proximity(kind, a, b);
  }
  CSTF_CHECK_MSG(false, "unknown ProxKind " << static_cast<int>(kind));
  return identity();  // unreachable
}

std::string Proximity::name() const {
  switch (kind_) {
    case ProxKind::kIdentity: return "identity";
    case ProxKind::kNonNegative: return "nonneg";
    case ProxKind::kL1: return "l1";
    case ProxKind::kL1NonNegative: return "l1+nonneg";
    case ProxKind::kBox: return "box";
    case ProxKind::kL2Ball: return "l2ball";
    case ProxKind::kSimplex: return "simplex";
    case ProxKind::kSmooth: return "smooth";
  }
  return "?";
}

real_t Proximity::apply_scalar(real_t x, real_t rho_scale) const {
  return with_scalar_map(rho_scale, [x](const auto& map) { return map(x); });
}

namespace {

// Euclidean projection of a column onto the probability simplex
// (Held/Wolfe/Crowder; the sort-based O(n log n) algorithm).
void project_simplex(real_t* col, index_t n, std::vector<real_t>& scratch) {
  scratch.assign(col, col + n);
  std::sort(scratch.begin(), scratch.end(), std::greater<real_t>());
  real_t cumulative = 0.0;
  real_t theta = 0.0;
  index_t support = 0;
  for (index_t k = 0; k < n; ++k) {
    cumulative += scratch[static_cast<std::size_t>(k)];
    const real_t candidate =
        (cumulative - 1.0) / static_cast<real_t>(k + 1);
    if (scratch[static_cast<std::size_t>(k)] - candidate > 0.0) {
      theta = candidate;
      support = k + 1;
    }
  }
  CSTF_CHECK(support > 0);
  for (index_t i = 0; i < n; ++i) {
    col[i] = std::max<real_t>(col[i] - theta, 0.0);
  }
}

// Proximity of (lambda/2)*||D x||^2: solves (I + lambda * D^T D) x = v with
// D the first-difference operator; the system is tridiagonal
// [-(lambda), 1 + 2*lambda, -(lambda)] with 1 + lambda at the boundaries.
// Thomas algorithm, O(n) per column.
void smooth_column(real_t* col, index_t n, real_t lambda,
                   std::vector<real_t>& scratch) {
  if (n == 1 || lambda <= 0.0) return;
  scratch.assign(static_cast<std::size_t>(2 * n), 0.0);
  real_t* c_prime = scratch.data();      // modified super-diagonal
  real_t* d_prime = scratch.data() + n;  // modified RHS
  const real_t off = -lambda;
  auto diag = [&](index_t i) {
    return (i == 0 || i == n - 1) ? 1.0 + lambda : 1.0 + 2.0 * lambda;
  };
  c_prime[0] = off / diag(0);
  d_prime[0] = col[0] / diag(0);
  for (index_t i = 1; i < n; ++i) {
    const real_t denom = diag(i) - off * c_prime[i - 1];
    c_prime[i] = off / denom;
    d_prime[i] = (col[i] - off * d_prime[i - 1]) / denom;
  }
  col[n - 1] = d_prime[n - 1];
  for (index_t i = n - 2; i >= 0; --i) {
    col[i] = d_prime[i] - c_prime[i] * col[i + 1];
  }
}

// Runs fn(col, scratch) on a contiguous copy of each column of `h`, columns
// in parallel, and writes the column back.
template <typename Fn>
void for_each_column(Matrix& h, const Fn& fn) {
  parallel_for(0, h.cols(), [&](index_t j) {
    std::vector<real_t> col(static_cast<std::size_t>(h.rows()));
    std::vector<real_t> scratch;
    for (index_t i = 0; i < h.rows(); ++i) col[static_cast<std::size_t>(i)] = h(i, j);
    fn(col.data(), scratch);
    for (index_t i = 0; i < h.rows(); ++i) h(i, j) = col[static_cast<std::size_t>(i)];
  }, /*grain=*/1);
}

}  // namespace

void Proximity::apply(Matrix& h, real_t rho_scale) const {
  if (kind_ == ProxKind::kL2Ball) {
    // Per-column projection onto the ball of radius a_: columns longer than
    // a_ scale by a_ / norm, the rest by 1 (exact).
    std::vector<real_t> scale(static_cast<std::size_t>(h.cols()));
    la::column_norms(h, scale.data());
    for (real_t& v : scale) v = (v > a_ && v > 0.0) ? a_ / v : 1.0;
    const index_t cols = h.cols();
    parallel_for_blocked(0, h.rows(), [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        real_t* row = h.row(i);
        for (index_t j = 0; j < cols; ++j) row[j] *= scale[static_cast<std::size_t>(j)];
      }
    });
    return;
  }
  if (kind_ == ProxKind::kSimplex) {
    const index_t n = h.rows();
    for_each_column(h, [n](real_t* col, std::vector<real_t>& scratch) {
      project_simplex(col, n, scratch);
    });
    return;
  }
  if (kind_ == ProxKind::kSmooth) {
    // The prox of (lambda/rho)*(1/2)||D x||^2: the regularization weight is
    // divided by the ADMM step size, like the L1 threshold.
    const real_t effective_lambda = a_ * rho_scale;
    const index_t n = h.rows();
    for_each_column(h, [&](real_t* col, std::vector<real_t>& scratch) {
      smooth_column(col, n, effective_lambda, scratch);
    });
    return;
  }
  real_t* p = h.data();
  parallel_for_blocked(0, h.size(), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) p[i] = apply_scalar(p[i], rho_scale);
  });
}

bool Proximity::is_feasible(const Matrix& h, real_t eps) const {
  switch (kind_) {
    case ProxKind::kIdentity:
    case ProxKind::kL1:
      return true;
    case ProxKind::kNonNegative:
    case ProxKind::kL1NonNegative: {
      const real_t* p = h.data();
      for (index_t i = 0; i < h.size(); ++i) {
        if (p[i] < -eps) return false;
      }
      return true;
    }
    case ProxKind::kBox: {
      const real_t* p = h.data();
      for (index_t i = 0; i < h.size(); ++i) {
        if (p[i] < a_ - eps || p[i] > b_ + eps) return false;
      }
      return true;
    }
    case ProxKind::kL2Ball: {
      std::vector<real_t> norms(static_cast<std::size_t>(h.cols()));
      la::column_norms(h, norms.data());
      return std::none_of(norms.begin(), norms.end(),
                          [&](real_t norm) { return norm > a_ + eps; });
    }
    case ProxKind::kSimplex: {
      std::vector<real_t> sums(static_cast<std::size_t>(h.cols()), 0.0);
      for (index_t i = 0; i < h.rows(); ++i) {
        const real_t* row = h.row(i);
        for (index_t j = 0; j < h.cols(); ++j) {
          if (row[j] < -eps) return false;
          sums[static_cast<std::size_t>(j)] += row[j];
        }
      }
      const real_t tolerance = 1e-6 + eps * static_cast<real_t>(h.rows());
      return std::none_of(sums.begin(), sums.end(), [&](real_t sum) {
        return std::abs(sum - 1.0) > tolerance;
      });
    }
    case ProxKind::kSmooth:
      return true;  // regularizer, not a constraint set
  }
  return true;
}

}  // namespace cstf
