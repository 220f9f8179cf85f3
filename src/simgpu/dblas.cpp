#include "simgpu/dblas.hpp"

#include "common/timer.hpp"

namespace cstf::simgpu {

namespace {

double matrix_bytes(const Matrix& m) {
  return static_cast<double>(m.size()) * kWord;
}

}  // namespace

KernelStats dgemm_stats(index_t m, index_t n, index_t k, real_t beta) {
  const auto words = [](index_t rows, index_t cols) {
    return static_cast<double>(rows * cols) * kWord;
  };
  KernelStats stats;
  stats.flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                static_cast<double>(k);
  // A (m x k) and B (k x n) are read, C written; C also read when
  // beta != 0. The smaller operand (for cSTF: the RxR matrix) is
  // cache-resident during the sweep.
  stats.bytes_streamed = words(m, n) * (beta != 0.0 ? 2.0 : 1.0);
  const double bytes_a = words(m, k);
  const double bytes_b = words(k, n);
  if (bytes_a >= bytes_b) {
    stats.bytes_streamed += bytes_a;
    stats.bytes_reused += bytes_b;
    stats.working_set_bytes = bytes_b;
  } else {
    stats.bytes_streamed += bytes_b;
    stats.bytes_reused += bytes_a;
    stats.working_set_bytes = bytes_a;
  }
  stats.parallel_items = static_cast<double>(m) * static_cast<double>(n);
  stats.launches = 1;
  return stats;
}

void dgemm(Device& dev, la::Op op_a, la::Op op_b, real_t alpha,
           const Matrix& a, const Matrix& b, real_t beta,
           Matrix& c, Stream stream) {
  const KernelStats stats =
      dgemm_stats(c.rows(), c.cols(), la::op_cols(a, op_a), beta);
  Timer wall;
  la::gemm(op_a, op_b, alpha, a, b, beta, c);
  dev.record("dgemm", stats, wall.seconds(), stream);
}

void dsyrk_gram(Device& dev, const Matrix& a, Matrix& s,
                Stream stream) {
  const double n = static_cast<double>(a.rows());
  const double r = static_cast<double>(a.cols());
  KernelStats stats;
  stats.flops = n * r * (r + 1.0);  // symmetric half of 2*n*r^2
  stats.bytes_streamed = matrix_bytes(a) + matrix_bytes(s);
  stats.parallel_items = r * (r + 1.0) / 2.0;
  stats.launches = 1;
  Timer wall;
  la::gram(a, s);
  dev.record("dsyrk", stats, wall.seconds(), stream);
}

void dgeam(Device& dev, real_t alpha, const Matrix& a, real_t beta,
           const Matrix& b, Matrix& c, Stream stream) {
  KernelStats stats;
  const double n = static_cast<double>(a.size());
  stats.flops = 3.0 * n;  // two scales + one add
  stats.bytes_streamed = 3.0 * n * kWord;  // read A, read B, write C
  stats.parallel_items = n;
  stats.launches = 1;
  Timer wall;
  la::geam(la::Op::kNone, la::Op::kNone, alpha, a, beta, b, c);
  dev.record("dgeam", stats, wall.seconds(), stream);
}

void dpotrf(Device& dev, const Matrix& s, Matrix& l, Stream stream) {
  const double r = static_cast<double>(s.rows());
  KernelStats stats;
  stats.flops = r * r * r / 3.0;
  stats.bytes_streamed = 2.0 * matrix_bytes(s);
  // Column j depends on all columns k < j: critical path ~ r dependent
  // panel steps of ~r ops each.
  stats.serial_depth = r * r;
  stats.parallel_items = r;
  stats.launches = 1;
  Timer wall;
  la::cholesky_factor(s, l);
  dev.record("dpotrf", stats, wall.seconds(), stream);
}

void dpotrs(Device& dev, const Matrix& l, Matrix& b, Stream stream) {
  const double r = static_cast<double>(l.rows());
  const double cols = static_cast<double>(b.cols());
  KernelStats stats;
  stats.flops = 2.0 * r * r * cols;  // forward + backward substitution
  stats.bytes_streamed = 2.0 * matrix_bytes(b);
  stats.bytes_reused = 2.0 * matrix_bytes(l);
  stats.working_set_bytes = matrix_bytes(l);
  // Each column's substitution is a length-2r dependent chain; columns are
  // parallel, so the depth (not the width) is what serializes.
  stats.serial_depth = 2.0 * r * r;
  stats.parallel_items = cols;
  stats.launches = 2;
  Timer wall;
  la::cholesky_solve(l, b);
  dev.record("dpotrs", stats, wall.seconds(), stream);
}

void dpotrs_right(Device& dev, const Matrix& l, Matrix& b,
                  Stream stream) {
  const double r = static_cast<double>(l.rows());
  const double rows = static_cast<double>(b.rows());
  KernelStats stats;
  stats.flops = 2.0 * rows * r * r;
  // B is read and written by each of the two substitution passes.
  stats.bytes_streamed = 4.0 * matrix_bytes(b);
  stats.bytes_reused = 2.0 * matrix_bytes(l);
  stats.working_set_bytes = matrix_bytes(l);
  stats.serial_depth = 2.0 * r * r;  // per-row dependent chain
  stats.parallel_items = rows;       // rows, not rows*R — the PI advantage
  stats.launches = 2;
  // Dependent substitution chains preclude FMA pipelining; dense TRSM with a
  // small triangular factor runs far below GEMM efficiency on every target.
  stats.compute_efficiency = 0.15;
  Timer wall;
  la::cholesky_solve_right(l, b);
  dev.record("dpotrs_right", stats, wall.seconds(), stream);
}

void dpotri(Device& dev, const Matrix& l, Matrix& inverse,
            Stream stream) {
  const double r = static_cast<double>(l.rows());
  KernelStats stats;
  stats.flops = 2.0 * r * r * r;
  stats.bytes_streamed = 2.0 * matrix_bytes(l);
  stats.serial_depth = 2.0 * r * r;
  stats.parallel_items = r;
  stats.launches = 1;
  Timer wall;
  la::cholesky_invert(l, inverse);
  dev.record("dpotri", stats, wall.seconds(), stream);
}

real_t dnrm2_sq(Device& dev, const Matrix& a, Stream stream) {
  KernelStats stats;
  const double n = static_cast<double>(a.size());
  stats.flops = 2.0 * n;
  stats.bytes_streamed = n * kWord;
  stats.parallel_items = n;
  stats.launches = 1;
  Timer wall;
  const real_t result = la::frobenius_norm_sq(a);
  dev.record("dnrm2", stats, wall.seconds(), stream);
  return result;
}

}  // namespace cstf::simgpu
