#include "la/blas.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/thread_pool.hpp"

namespace cstf::la {

index_t op_rows(const Matrix& a, Op op) {
  return op == Op::kNone ? a.rows() : a.cols();
}
index_t op_cols(const Matrix& a, Op op) {
  return op == Op::kNone ? a.cols() : a.rows();
}

namespace {

// Core kernels, one per (op_a, op_b) combination. Each element of C has
// one accumulator summed over the inner index in ascending order (the NN
// and NT forms skip terms whose scaled B factor is an exact zero), so its
// bits do not depend on how the loops walk row-major storage.

// C = beta*C + sum_l A(:,l) * (alpha*B(l,:)), B's factor given as `scaled`
// (k x n, row l holding alpha*op(B)(l,:)): row-parallel over C, each row
// of C a contiguous axpy target for each row of `scaled`. A skipped term
// is a ±0 product unless A(i,l) is infinite or NaN, and adding ±0 leaves a
// sum that started at +0.0 unchanged (an addition gives -0.0 only when
// both operands are -0.0). So the zero test runs only where it can change
// a bit: in rows of `scaled` holding a zero, for rows of C that do not
// start at +0.0 (beta != 0) or whose row of A has a non-finite entry.
void gemm_rows(const std::vector<real_t>& scaled, const Matrix& a, real_t beta,
               Matrix& c) {
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  std::vector<char> has_zero(static_cast<std::size_t>(k));
  for (index_t l = 0; l < k; ++l) {
    const real_t* bl = scaled.data() + l * n;
    has_zero[static_cast<std::size_t>(l)] =
        std::any_of(bl, bl + n, [](real_t v) { return v == 0.0; });
  }
  const auto finite_row = [k](const real_t* ai) {
    return std::all_of(ai, ai + k, [](real_t v) { return std::isfinite(v); });
  };
  // One row of C.
  const auto row = [&](index_t i) {
    real_t* ci = c.row(i);
    if (beta == 0.0) {
      for (index_t j = 0; j < n; ++j) ci[j] = 0.0;
    } else if (beta != 1.0) {
      for (index_t j = 0; j < n; ++j) ci[j] *= beta;
    }
    const real_t* ai = a.row(i);
    const bool test_zeros = beta != 0.0 || !finite_row(ai);
    for (index_t l = 0; l < k; ++l) {
      const real_t ail = ai[l];
      const real_t* bl = scaled.data() + l * n;
      if (!test_zeros || !has_zero[static_cast<std::size_t>(l)]) {
        for (index_t j = 0; j < n; ++j) ci[j] += bl[j] * ail;
        continue;
      }
      for (index_t j = 0; j < n; ++j) {
        if (bl[j] == 0.0) continue;
        ci[j] += bl[j] * ail;
      }
    }
  };
  parallel_for_blocked(0, m, [&](index_t lo, index_t hi) {
    index_t i = lo;
    // Four rows at a time share each row of `scaled` they read, when none
    // needs the zero test (which also means beta == 0).
    for (; i + 4 <= hi; i += 4) {
      const real_t* a0 = a.row(i);
      const real_t* a1 = a.row(i + 1);
      const real_t* a2 = a.row(i + 2);
      const real_t* a3 = a.row(i + 3);
      if (beta != 0.0 || !finite_row(a0) || !finite_row(a1) ||
          !finite_row(a2) || !finite_row(a3)) {
        for (index_t r = 0; r < 4; ++r) row(i + r);
        continue;
      }
      real_t* c0 = c.row(i);
      real_t* c1 = c.row(i + 1);
      real_t* c2 = c.row(i + 2);
      real_t* c3 = c.row(i + 3);
      for (index_t j = 0; j < n; ++j) c0[j] = c1[j] = c2[j] = c3[j] = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const real_t* bl = scaled.data() + l * n;
        const real_t x0 = a0[l], x1 = a1[l], x2 = a2[l], x3 = a3[l];
        for (index_t j = 0; j < n; ++j) {
          const real_t b = bl[j];
          c0[j] += b * x0;
          c1[j] += b * x1;
          c2[j] += b * x2;
          c3[j] += b * x3;
        }
      }
    }
    for (; i < hi; ++i) row(i);
  });
}

void gemm_nn(real_t alpha, const Matrix& a, const Matrix& b, real_t beta,
             Matrix& c) {
  std::vector<real_t> scaled(static_cast<std::size_t>(b.size()));
  for (std::size_t e = 0; e < scaled.size(); ++e) scaled[e] = alpha * b.data()[e];
  gemm_rows(scaled, a, beta, c);
}

void gemm_nt(real_t alpha, const Matrix& a, const Matrix& b, real_t beta,
             Matrix& c) {
  // op(B)(l, j) = B(j, l).
  const index_t n = b.rows(), k = b.cols();
  std::vector<real_t> scaled(static_cast<std::size_t>(b.size()));
  for (index_t l = 0; l < k; ++l) {
    for (index_t j = 0; j < n; ++j) {
      scaled[static_cast<std::size_t>(l * n + j)] = alpha * b(j, l);
    }
  }
  gemm_rows(scaled, a, beta, c);
}

// C(i,j) = alpha * sum_l A(l,i) * op(B)(l,j) + beta*C(i,j), l ascending.
// The transposed-A forms appear only in tests, never in a hot path.
template <typename OpB>
void gemm_t(real_t alpha, const Matrix& a, const OpB& op_b, real_t beta,
            Matrix& c) {
  const index_t m = c.rows(), n = c.cols(), k = a.rows();
  parallel_for(0, m, [&](index_t i) {
    for (index_t j = 0; j < n; ++j) {
      real_t acc = 0.0;
      for (index_t l = 0; l < k; ++l) acc += a(l, i) * op_b(l, j);
      c(i, j) = alpha * acc + (beta == 0.0 ? 0.0 : beta * c(i, j));
    }
  }, /*grain=*/1);
}

// Splits columns [0, r) into `parts` contiguous ranges holding about equal
// shares of the upper triangle (column j holds j + 1 of its entries).
std::vector<index_t> triangle_split(index_t r, index_t parts) {
  std::vector<index_t> bounds{0};
  const index_t total = r * (r + 1) / 2;
  index_t seen = 0;
  for (index_t j = 0; j < r; ++j) {
    seen += j + 1;
    const auto part = static_cast<index_t>(bounds.size());
    if (part < parts && seen * parts >= total * part) bounds.push_back(j + 1);
  }
  if (bounds.back() != r) bounds.push_back(r);
  return bounds;
}

}  // namespace

void gemm(Op op_a, Op op_b, real_t alpha, const Matrix& a, const Matrix& b,
          real_t beta, Matrix& c) {
  CSTF_CHECK_MSG(op_cols(a, op_a) == op_rows(b, op_b),
                 "gemm inner dims: " << op_cols(a, op_a) << " vs "
                                     << op_rows(b, op_b));
  CSTF_CHECK_MSG(c.rows() == op_rows(a, op_a) && c.cols() == op_cols(b, op_b),
                 "gemm output shape " << c.rows() << "x" << c.cols());
  if (op_a == Op::kNone && op_b == Op::kNone) return gemm_nn(alpha, a, b, beta, c);
  if (op_a == Op::kNone) return gemm_nt(alpha, a, b, beta, c);
  if (op_b == Op::kNone) {
    return gemm_t(alpha, a, [&b](index_t l, index_t j) { return b(l, j); },
                  beta, c);
  }
  gemm_t(alpha, a, [&b](index_t l, index_t j) { return b(j, l); }, beta, c);
}

void gram(const Matrix& a, Matrix& s) {
  const index_t r = a.cols();
  CSTF_CHECK(s.rows() == r && s.cols() == r);
  const index_t n = a.rows();
  // Upper triangle, then mirror. S(i,j) is one accumulator summed over the
  // rows l in ascending order. Each worker owns a range of S's columns and
  // streams every row of A once, adding row l's products into its columns'
  // accumulators: a contiguous prefix of the row per column.
  const std::vector<index_t> bounds = triangle_split(
      r, std::min<index_t>(r, static_cast<index_t>(global_thread_count())));
  parallel_for(0, static_cast<index_t>(bounds.size()) - 1, [&](index_t part) {
    const index_t j_lo = bounds[static_cast<std::size_t>(part)];
    const index_t j_hi = bounds[static_cast<std::size_t>(part) + 1];
    // Column j's accumulators S(0..j, j) start at acc + (offset of j).
    const index_t base = j_lo * (j_lo + 1) / 2;
    std::vector<real_t> acc(
        static_cast<std::size_t>(j_hi * (j_hi + 1) / 2 - base), 0.0);
    for (index_t l = 0; l < n; ++l) {
      const real_t* al = a.row(l);
      real_t* sj = acc.data();
      for (index_t j = j_lo; j < j_hi; ++j) {
        const real_t alj = al[j];
        for (index_t i = 0; i <= j; ++i) sj[i] += al[i] * alj;
        sj += j + 1;
      }
    }
    const real_t* sj = acc.data();
    for (index_t j = j_lo; j < j_hi; ++j) {
      for (index_t i = 0; i <= j; ++i) s(i, j) = sj[i];
      sj += j + 1;
    }
  }, /*grain=*/1);
  for (index_t j = 0; j < r; ++j) {
    for (index_t i = j + 1; i < r; ++i) s(i, j) = s(j, i);
  }
}

void gemv(Op op_a, real_t alpha, const Matrix& a, const real_t* x, real_t beta,
          real_t* y) {
  const index_t m = a.rows(), n = a.cols();
  if (op_a == Op::kNone) {
    // y(i) = beta*y(i) + sum_j (alpha*x(j)) * A(i,j), j ascending.
    for (index_t i = 0; i < m; ++i) {
      real_t yi = beta == 0.0 ? 0.0 : (beta != 1.0 ? y[i] * beta : y[i]);
      const real_t* ai = a.row(i);
      for (index_t j = 0; j < n; ++j) yi += alpha * x[j] * ai[j];
      y[i] = yi;
    }
  } else {
    // y(j) = alpha * sum_i A(i,j) * x(i) + beta*y(j), i ascending.
    std::vector<real_t> acc(static_cast<std::size_t>(n), 0.0);
    for (index_t i = 0; i < m; ++i) {
      const real_t* ai = a.row(i);
      for (index_t j = 0; j < n; ++j) acc[static_cast<std::size_t>(j)] += ai[j] * x[i];
    }
    for (index_t j = 0; j < n; ++j) {
      y[j] = alpha * acc[static_cast<std::size_t>(j)] +
             (beta == 0.0 ? 0.0 : beta * y[j]);
    }
  }
}

void geam(Op op_a, Op op_b, real_t alpha, const Matrix& a, real_t beta,
          const Matrix& b, Matrix& c) {
  CSTF_CHECK(c.rows() == op_rows(a, op_a) && c.cols() == op_cols(a, op_a));
  CSTF_CHECK(op_rows(a, op_a) == op_rows(b, op_b) &&
             op_cols(a, op_a) == op_cols(b, op_b));
  const index_t m = c.rows(), n = c.cols();
  if (op_a == Op::kNone && op_b == Op::kNone) {
    // Index-aligned elementwise update: element i of C depends only on
    // element i of A and B, so C aliasing either input is well-defined even
    // across parallel blocks (the unfused ADMM updates U in place this way).
    const real_t* pa = a.data();
    const real_t* pb = b.data();
    real_t* pc = c.data();
    parallel_for_blocked(0, m * n, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) pc[i] = alpha * pa[i] + beta * pb[i];
    });
    return;
  }
  // A transposed operand is read at (j,i) while C is written at (i,j); an
  // aliased output would read elements it already overwrote.
  CSTF_CHECK_MSG(op_a == Op::kNone || c.data() != a.data(),
                 "geam: output must not alias a transposed A operand");
  CSTF_CHECK_MSG(op_b == Op::kNone || c.data() != b.data(),
                 "geam: output must not alias a transposed B operand");
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      const real_t va = (op_a == Op::kNone) ? a(i, j) : a(j, i);
      const real_t vb = (op_b == Op::kNone) ? b(i, j) : b(j, i);
      c(i, j) = alpha * va + beta * vb;
    }
  }
}

void axpy(index_t n, real_t alpha, const real_t* x, real_t* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(index_t n, real_t alpha, real_t* x) {
  for (index_t i = 0; i < n; ++i) x[i] *= alpha;
}

real_t dot(index_t n, const real_t* x, const real_t* y) {
  real_t acc = 0.0;
  for (index_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

real_t nrm2(index_t n, const real_t* x) { return std::sqrt(dot(n, x, x)); }

real_t frobenius_norm_sq(const Matrix& a) {
  const real_t* p = a.data();
  const index_t n = a.size();
  return parallel_sum(0, n, [&](index_t i) { return p[i] * p[i]; });
}

real_t frobenius_norm(const Matrix& a) { return std::sqrt(frobenius_norm_sq(a)); }

}  // namespace cstf::la
