// Unit tests for src/la: matrix container, BLAS subset, Cholesky machinery,
// elementwise kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/elementwise.hpp"
#include "la/matrix.hpp"

namespace cstf {
namespace {

using la::Op;

// Reference (obviously correct) triple-loop GEMM for differential testing.
Matrix reference_gemm(Op op_a, Op op_b, real_t alpha, const Matrix& a,
                      const Matrix& b, real_t beta, const Matrix& c0) {
  const index_t m = la::op_rows(a, op_a);
  const index_t n = la::op_cols(b, op_b);
  const index_t k = la::op_cols(a, op_a);
  Matrix c = c0;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      real_t acc = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const real_t va = op_a == Op::kNone ? a(i, l) : a(l, i);
        const real_t vb = op_b == Op::kNone ? b(l, j) : b(j, l);
        acc += va * vb;
      }
      c(i, j) = alpha * acc + beta * c0(i, j);
    }
  }
  return c;
}

Matrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.fill_normal(rng);
  return m;
}

Matrix random_spd(index_t n, std::uint64_t seed) {
  // B^T B + n*I is comfortably positive definite.
  Matrix b = random_matrix(2 * n, n, seed);
  Matrix s(n, n);
  la::gram(b, s);
  la::add_diagonal(s, static_cast<real_t>(n));
  return s;
}

TEST(Matrix, ConstructionZeroInitializes) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(Matrix, RowMajorLayout) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  EXPECT_EQ(m.data()[0], 1.0);
  EXPECT_EQ(m.data()[1], 2.0);
  EXPECT_EQ(m.data()[3], 3.0);
  EXPECT_EQ(m.row(1), m.data() + 3);
}

TEST(Matrix, FromRowsAndIdentity) {
  Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
  Matrix eye = Matrix::identity(3);
  EXPECT_EQ(eye(0, 0), 1.0);
  EXPECT_EQ(eye(1, 0), 0.0);
  EXPECT_EQ(eye(2, 2), 1.0);
}

TEST(Matrix, ResizeDiscardsAndZeroes) {
  Matrix m(2, 2);
  m.set_all(7.0);
  m.resize(3, 3);
  EXPECT_EQ(m.size(), 9);
  EXPECT_EQ(m(2, 2), 0.0);
}

TEST(Matrix, NegativeShapeThrowsBeforeAllocating) {
  EXPECT_THROW({ Matrix bad(-1, 2); }, Error);
  EXPECT_THROW({ Matrix bad(2, -1); }, Error);
  Matrix m(2, 3);
  EXPECT_THROW(m.resize(-1, 2), Error);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
}

TEST(Matrix, OverflowingShapeThrowsBeforeAllocating) {
  // rows * cols does not fit index_t.
  const index_t big = std::numeric_limits<index_t>::max() / 2 + 1;
  EXPECT_THROW({ Matrix bad(big, 2); }, Error);
  Matrix m(2, 3);
  EXPECT_THROW(m.resize(2, big), Error);
  EXPECT_EQ(m.size(), 6);
}

TEST(Matrix, FillDrawsInColumnMajorOrder) {
  // Draw k goes to (k % rows, k / rows) whatever the storage order, so a
  // seed names the same matrix.
  Matrix u(3, 2);
  Matrix n(3, 2);
  Rng rng_u(7);
  Rng rng_n(8);
  u.fill_uniform(rng_u, -1.0, 2.0);
  n.fill_normal(rng_n, 0.5, 3.0);
  Rng want_u(7);
  Rng want_n(8);
  for (index_t j = 0; j < 2; ++j) {
    for (index_t i = 0; i < 3; ++i) {
      EXPECT_EQ(u(i, j), want_u.uniform(-1.0, 2.0)) << i << "," << j;
      EXPECT_EQ(n(i, j), want_n.normal(0.5, 3.0)) << i << "," << j;
    }
  }
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = Matrix::from_rows({{1, 2.5}, {3, 4}});
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, a), 0.0);
}

TEST(Gemm, SkipsTermsWhoseBEntryIsAnExactZero) {
  // la::gemm never forms 0 * A(i,l): with an infinite A(0,0), C(0,0) is
  // 1 * 4, not NaN. Both B orientations.
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const Matrix a = Matrix::from_rows({{inf, 1.0}, {2.0, 3.0}});
  const Matrix b = Matrix::from_rows({{0.0, 1.0}, {4.0, 5.0}});
  const Matrix bt = Matrix::from_rows({{0.0, 4.0}, {1.0, 5.0}});
  for (int transposed = 0; transposed < 2; ++transposed) {
    Matrix c(2, 2);
    la::gemm(Op::kNone, transposed ? Op::kTranspose : Op::kNone, 1.0, a,
             transposed ? bt : b, 0.0, c);
    EXPECT_EQ(c(0, 0), 4.0);
    EXPECT_EQ(c(0, 1), inf);
    EXPECT_EQ(c(1, 0), 12.0);
    EXPECT_EQ(c(1, 1), 17.0);
  }
}

struct GemmCase {
  Op op_a, op_b;
  real_t alpha, beta;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesReference) {
  const GemmCase p = GetParam();
  const index_t m = 17, n = 9, k = 13;
  Matrix a = p.op_a == Op::kNone ? random_matrix(m, k, 1) : random_matrix(k, m, 1);
  Matrix b = p.op_b == Op::kNone ? random_matrix(k, n, 2) : random_matrix(n, k, 2);
  Matrix c = random_matrix(m, n, 3);
  const Matrix want = reference_gemm(p.op_a, p.op_b, p.alpha, a, b, p.beta, c);
  la::gemm(p.op_a, p.op_b, p.alpha, a, b, p.beta, c);
  EXPECT_LT(max_abs_diff(c, want), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GemmSweep,
    ::testing::Values(GemmCase{Op::kNone, Op::kNone, 1.0, 0.0},
                      GemmCase{Op::kNone, Op::kNone, 2.0, 1.0},
                      GemmCase{Op::kNone, Op::kNone, -0.5, 0.25},
                      GemmCase{Op::kTranspose, Op::kNone, 1.0, 0.0},
                      GemmCase{Op::kTranspose, Op::kNone, 1.5, -1.0},
                      GemmCase{Op::kNone, Op::kTranspose, 1.0, 0.0},
                      GemmCase{Op::kNone, Op::kTranspose, -2.0, 0.5},
                      GemmCase{Op::kTranspose, Op::kTranspose, 1.0, 0.0},
                      GemmCase{Op::kTranspose, Op::kTranspose, 0.5, 2.0}));

TEST(Gemm, TallSkinnyShapesUsedByCstf) {
  // The exact shape of the cuADMM GEMM: (I x R) times (R x R).
  const index_t i_len = 503, r = 32;
  Matrix h = random_matrix(i_len, r, 4);
  Matrix inv = random_matrix(r, r, 5);
  Matrix out(i_len, r);
  la::gemm(Op::kNone, Op::kNone, 1.0, h, inv, 0.0, out);
  const Matrix want =
      reference_gemm(Op::kNone, Op::kNone, 1.0, h, inv, 0.0, out);
  EXPECT_LT(max_abs_diff(out, want), 1e-10);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(la::gemm(Op::kNone, Op::kNone, 1.0, a, b, 0.0, c), Error);
}

TEST(Gram, MatchesTransposeGemm) {
  Matrix a = random_matrix(40, 8, 6);
  Matrix s(8, 8), want(8, 8);
  la::gram(a, s);
  la::gemm(Op::kTranspose, Op::kNone, 1.0, a, a, 0.0, want);
  EXPECT_LT(max_abs_diff(s, want), 1e-12);
}

TEST(Gram, ResultIsExactlySymmetric) {
  Matrix a = random_matrix(33, 7, 7);
  Matrix s(7, 7);
  la::gram(a, s);
  for (index_t i = 0; i < 7; ++i) {
    for (index_t j = 0; j < 7; ++j) EXPECT_EQ(s(i, j), s(j, i));
  }
}

TEST(Gemv, NoTransposeAndTranspose) {
  Matrix a = random_matrix(6, 4, 8);
  std::vector<real_t> x{1, -2, 3, 0.5}, y(6, 1.0);
  la::gemv(Op::kNone, 2.0, a, x.data(), 3.0, y.data());
  for (index_t i = 0; i < 6; ++i) {
    real_t want = 3.0;
    for (index_t j = 0; j < 4; ++j) want += 2.0 * a(i, j) * x[j];
    EXPECT_NEAR(y[i], want, 1e-12);
  }
  std::vector<real_t> xt{1, 2, 3, 4, 5, 6}, yt(4, 0.0);
  la::gemv(Op::kTranspose, 1.0, a, xt.data(), 0.0, yt.data());
  for (index_t j = 0; j < 4; ++j) {
    real_t want = 0.0;
    for (index_t i = 0; i < 6; ++i) want += a(i, j) * xt[i];
    EXPECT_NEAR(yt[j], want, 1e-12);
  }
}

TEST(Geam, LinearCombination) {
  Matrix a = random_matrix(11, 5, 9);
  Matrix b = random_matrix(11, 5, 10);
  Matrix c(11, 5);
  la::geam(Op::kNone, Op::kNone, 2.0, a, -1.0, b, c);
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = 0; i < 11; ++i) {
      EXPECT_NEAR(c(i, j), 2.0 * a(i, j) - b(i, j), 1e-12);
    }
  }
}

TEST(Geam, TransposedOperand) {
  Matrix a = random_matrix(4, 3, 11);
  Matrix b = random_matrix(3, 4, 12);
  Matrix c(4, 3);
  la::geam(Op::kNone, Op::kTranspose, 1.0, a, 1.0, b, c);
  for (index_t j = 0; j < 3; ++j) {
    for (index_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(c(i, j), a(i, j) + b(j, i), 1e-12);
    }
  }
}

// Regression: the unfused ADMM dual update writes U = 1.0*U + 1.0*T with the
// output aliasing the first input. The NN path is index-aligned elementwise,
// so aliasing either operand must be exact.
TEST(Geam, OutputMayAliasFirstInputWhenUntransposed) {
  Matrix a = random_matrix(13, 4, 21);
  const Matrix a_orig = a;
  Matrix b = random_matrix(13, 4, 22);
  la::geam(Op::kNone, Op::kNone, 1.0, a, 2.0, b, a);  // c == a
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = 0; i < 13; ++i) {
      EXPECT_DOUBLE_EQ(a(i, j), a_orig(i, j) + 2.0 * b(i, j));
    }
  }
}

TEST(Geam, OutputMayAliasSecondInputWhenUntransposed) {
  Matrix a = random_matrix(7, 6, 23);
  Matrix b = random_matrix(7, 6, 24);
  const Matrix b_orig = b;
  la::geam(Op::kNone, Op::kNone, -1.5, a, 1.0, b, b);  // c == b
  for (index_t j = 0; j < 6; ++j) {
    for (index_t i = 0; i < 7; ++i) {
      EXPECT_DOUBLE_EQ(b(i, j), -1.5 * a(i, j) + b_orig(i, j));
    }
  }
}

// Regression: a transposed operand is read at (j,i) while C writes (i,j);
// aliasing used to silently read overwritten elements. It must throw now.
TEST(Geam, AliasingTransposedOperandThrows) {
  Matrix a = random_matrix(5, 5, 25);
  Matrix b = random_matrix(5, 5, 26);
  EXPECT_THROW(la::geam(Op::kTranspose, Op::kNone, 1.0, a, 1.0, b, a), Error);
  EXPECT_THROW(la::geam(Op::kNone, Op::kTranspose, 1.0, a, 1.0, b, b), Error);
  // The untransposed operand may still alias while the other is transposed.
  EXPECT_NO_THROW(la::geam(Op::kNone, Op::kTranspose, 1.0, a, 1.0, b, a));
}

TEST(VectorOps, AxpyScalDotNrm2) {
  std::vector<real_t> x{1, 2, 3}, y{4, 5, 6};
  la::axpy(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  la::scal(3, 0.5, y.data());
  EXPECT_DOUBLE_EQ(y[1], 4.5);
  EXPECT_DOUBLE_EQ(la::dot(3, x.data(), x.data()), 14.0);
  EXPECT_DOUBLE_EQ(la::nrm2(3, x.data()), std::sqrt(14.0));
}

TEST(Norms, FrobeniusMatchesManualSum) {
  Matrix a = Matrix::from_rows({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(la::frobenius_norm_sq(a), 25.0);
  EXPECT_DOUBLE_EQ(la::frobenius_norm(a), 5.0);
}

class CholeskyRankSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(CholeskyRankSweep, FactorReconstructsInput) {
  const index_t n = GetParam();
  const Matrix s = random_spd(n, 100 + static_cast<std::uint64_t>(n));
  Matrix l;
  la::cholesky_factor(s, l);
  // L must be lower triangular and L*L^T == S.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < j; ++i) EXPECT_EQ(l(i, j), 0.0);
    EXPECT_GT(l(j, j), 0.0);
  }
  Matrix recon(n, n);
  la::gemm(Op::kNone, Op::kTranspose, 1.0, l, l, 0.0, recon);
  EXPECT_LT(max_abs_diff(recon, s), 1e-9 * n);
}

TEST_P(CholeskyRankSweep, SolveInvertsTheSystem) {
  const index_t n = GetParam();
  const Matrix s = random_spd(n, 200 + static_cast<std::uint64_t>(n));
  Matrix l;
  la::cholesky_factor(s, l);
  Matrix x = random_matrix(n, 5, 300 + static_cast<std::uint64_t>(n));
  Matrix b(n, 5);
  la::gemm(Op::kNone, Op::kNone, 1.0, s, x, 0.0, b);
  la::cholesky_solve(l, b);  // b <- S^{-1} (S x) = x
  EXPECT_LT(max_abs_diff(b, x), 1e-8);
}

TEST_P(CholeskyRankSweep, ExplicitInverseTimesSIsIdentity) {
  const index_t n = GetParam();
  const Matrix s = random_spd(n, 400 + static_cast<std::uint64_t>(n));
  Matrix l, inv;
  la::cholesky_factor(s, l);
  la::cholesky_invert(l, inv);
  Matrix prod(n, n);
  la::gemm(Op::kNone, Op::kNone, 1.0, inv, s, 0.0, prod);
  EXPECT_LT(max_abs_diff(prod, Matrix::identity(n)), 1e-8);
  // Inverse must be symmetric (cholesky_invert symmetrizes).
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) EXPECT_EQ(inv(i, j), inv(j, i));
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, CholeskyRankSweep,
                         ::testing::Values<index_t>(1, 2, 16, 32, 64));

TEST(Cholesky, NonSpdThrows) {
  Matrix s = Matrix::from_rows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  Matrix l;
  EXPECT_THROW(la::cholesky_factor(s, l), Error);
}

TEST(Cholesky, TrsmLowerSolvesForwardSystem) {
  Matrix l = Matrix::from_rows({{2, 0}, {1, 3}});
  Matrix b = Matrix::from_rows({{4}, {11}});
  la::trsm_lower(l, b);
  EXPECT_NEAR(b(0, 0), 2.0, 1e-14);
  EXPECT_NEAR(b(1, 0), 3.0, 1e-14);
}

TEST(Cholesky, TrsmLowerTransposeSolvesBackwardSystem) {
  Matrix l = Matrix::from_rows({{2, 0}, {1, 3}});
  // Solve L^T x = b with b = L^T [1, 2]^T = [4, 6]^T.
  Matrix b = Matrix::from_rows({{4}, {6}});
  la::trsm_lower_transpose(l, b);
  EXPECT_NEAR(b(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(b(1, 0), 2.0, 1e-14);
}

TEST(Cholesky, AddDiagonal) {
  Matrix s = Matrix::from_rows({{1, 2}, {2, 5}});
  la::add_diagonal(s, 0.5);
  EXPECT_DOUBLE_EQ(s(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(s(1, 1), 5.5);
  EXPECT_DOUBLE_EQ(s(0, 1), 2.0);
}

TEST(Elementwise, HadamardProduct) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  Matrix c(2, 2);
  la::hadamard(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 32.0);
  la::hadamard_inplace(c, a);
  EXPECT_DOUBLE_EQ(c(1, 1), 128.0);
}

TEST(Elementwise, SafeDivideGuardsZeroDenominator) {
  Matrix a = Matrix::from_rows({{1, 4}});
  Matrix b = Matrix::from_rows({{2, 0}});
  Matrix c(1, 2);
  la::safe_divide(a, b, 1e-16, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 0.5);
  EXPECT_TRUE(std::isfinite(c(0, 1)));
}

TEST(Elementwise, ClampMinProjectsOntoNonNegativeOrthant) {
  Matrix a = Matrix::from_rows({{-1, 0.5}, {0, -3}});
  la::clamp_min(a, 0.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(a(1, 1), 0.0);
}

TEST(Elementwise, ColumnNormsAndScaling) {
  Matrix a = Matrix::from_rows({{3, 0}, {4, 0}});
  std::vector<real_t> norms(2);
  la::column_norms(a, norms.data());
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 0.0);
  la::scale_columns_inv(a, norms.data());
  EXPECT_DOUBLE_EQ(a(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(a(1, 0), 0.8);
  // Zero column is untouched, its norm reported as 1.
  EXPECT_DOUBLE_EQ(norms[1], 1.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(Elementwise, ColumnMaxNorms) {
  Matrix a = Matrix::from_rows({{-3, 1}, {2, -0.5}});
  std::vector<real_t> norms(2);
  la::column_max_norms(a, norms.data());
  EXPECT_DOUBLE_EQ(norms[0], 3.0);
  EXPECT_DOUBLE_EQ(norms[1], 1.0);
}

}  // namespace
}  // namespace cstf
