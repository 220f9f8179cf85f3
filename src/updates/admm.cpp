#include "updates/admm.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/cholesky.hpp"
#include "simgpu/dblas.hpp"
#include "simgpu/trace.hpp"

namespace cstf {

AdmmGram prepare_admm_gram(const Matrix& s, bool preinvert) {
  const index_t rank = s.rows();
  CSTF_CHECK(s.cols() == rank && rank > 0);
  AdmmGram gram;
  // rho <- trace(S)/R (Algorithm 2 line 2), with the same degenerate
  // all-zero-factor clamp as update() so both paths see identical systems.
  for (index_t r = 0; r < rank; ++r) gram.rho += s(r, r);
  gram.rho /= static_cast<real_t>(rank);
  if (gram.rho <= 0.0) gram.rho = 1.0;
  Matrix s_loaded = s;
  la::add_diagonal(s_loaded, gram.rho);
  la::cholesky_factor(s_loaded, gram.l);
  if (preinvert) la::cholesky_invert(gram.l, gram.inverse);
  return gram;
}

std::string AdmmUpdate::name() const {
  std::string n = "ADMM(";
  n += options_.prox.name();
  if (options_.operation_fusion) n += ",OF";
  if (options_.preinversion) n += ",PI";
  n += ")";
  return n;
}

void AdmmUpdate::update(simgpu::Device& dev, const Matrix& s, const Matrix& m,
                        Matrix& h, ModeState& state) const {
  const index_t rank = s.rows();
  CSTF_CHECK(s.cols() == rank);
  CSTF_CHECK(m.cols() == rank && h.cols() == rank && m.rows() == h.rows());

  // rho <- trace(S)/R (Algorithm 2 line 2). The degenerate all-zero-factor
  // fallback is clamped here (and in prepare_admm_gram) so the fused kernels
  // and the unfused BLAS chain see the identical rho (> 0); the kernels
  // assert it.
  AdmmGram gram;
  for (index_t r = 0; r < rank; ++r) gram.rho += s(r, r);
  gram.rho /= static_cast<real_t>(rank);
  if (gram.rho <= 0.0) gram.rho = 1.0;

  // Factor S + rho*I once per update (line 3); reused by every inner
  // iteration.
  Matrix s_loaded = s;
  la::add_diagonal(s_loaded, gram.rho);
  simgpu::dpotrf(dev, s_loaded, gram.l, options_.stream);
  if (options_.preinversion) {
    simgpu::dpotri(dev, gram.l, gram.inverse,
                   options_.stream);  // Algorithm 3 line 4
  }
  update_with_gram(dev, gram, m, h, state);
}

void AdmmUpdate::update_with_gram(simgpu::Device& dev, const AdmmGram& gram,
                                  const Matrix& m, Matrix& h,
                                  ModeState& state) const {
  const index_t rank = gram.l.rows();
  const real_t rho = gram.rho;
  CSTF_CHECK_MSG(rho > 0.0, "AdmmGram not prepared (rho=" << rho << ")");
  CSTF_CHECK(m.cols() == rank && h.cols() == rank && m.rows() == h.rows());
  CSTF_CHECK_MSG(gram.preinverted() == options_.preinversion,
                 "AdmmGram pre-inversion does not match AdmmOptions");
  const Matrix& l = gram.l;
  const Matrix& inverse = gram.inverse;

  // Persistent dual (warm start), lazily sized.
  if (!state.dual.same_shape(h)) state.dual.resize(h.rows(), h.cols());
  last_ = AdmmDiagnostics{};
  last_.rho = rho;

  // cuADMM with an elementwise prox and no early exit: every inner
  // iteration runs in one row-tiled host pass (rows are independent given
  // the system), metered as the per-kernel Algorithm 3 below would be.
  if (options_.operation_fusion && options_.preinversion &&
      options_.prox.elementwise() && !(options_.tolerance > 0.0)) {
    if (options_.inner_iterations <= 0) return;
    AdmmResidualSums sums;
    {
      simgpu::ScopedPhase scope(dev.tracer(), phase::kAdmmRowTiles);
      sums = admm_row_tiles(options_.prox, rho, inverse, m, h, state.dual,
                            options_.inner_iterations);
    }
    for (int iter = 0; iter < options_.inner_iterations; ++iter) {
      record_cuadmm_iteration(dev, h.rows(), rank, options_.stream);
    }
    last_.iterations = options_.inner_iterations;
    last_.primal_residual =
        sums.h_sq > 0.0 ? sums.primal_sq / sums.h_sq : sums.primal_sq;
    last_.dual_residual =
        sums.u_sq > 0.0 ? sums.delta_h_sq / sums.u_sq : sums.delta_h_sq;
    return;
  }

  // Per-kernel path, with scratch for H~ and T.
  if (!state.aux.same_shape(h)) state.aux.resize(h.rows(), h.cols());
  if (!state.scratch.same_shape(h)) state.scratch.resize(h.rows(), h.cols());
  Matrix& u = state.dual;
  Matrix& htilde = state.aux;
  Matrix& t = state.scratch;

  const real_t inv_rho = 1.0 / rho;

  for (int iter = 0; iter < options_.inner_iterations; ++iter) {
    real_t delta_h_sq = 0.0;  // ||H_new - H_old||^2 (dual residual numerator)
    real_t primal_sq = 0.0, h_sq = 0.0, u_sq = 0.0;

    if (options_.operation_fusion) {
      // --- Fused path (Algorithm 3 lines 6-9) ---
      kernel_compute_auxiliary(dev, m, h, u, rho, t, options_.stream);
      if (options_.preinversion) {
        simgpu::dgemm(dev, la::Op::kNone, la::Op::kNone, 1.0, t, inverse, 0.0,
                      htilde, options_.stream);  // line 7: one DGEMM
      } else {
        simgpu::dpotrs_right(dev, l, t, options_.stream);  // two triangular solves
        std::swap(htilde, t);
      }
      if (options_.prox.elementwise()) {
        kernel_apply_proximity(dev, options_.prox, rho, htilde, u, h,
                               &delta_h_sq, options_.stream);
      } else {
        // Column-wise constraint (L2 ball / simplex / smoothness): fuse only
        // the subtraction, then project in a separate column-parallel pass.
        kernel_apply_proximity(dev, Proximity::identity(), rho, htilde, u, h,
                               &delta_h_sq, options_.stream);
        simgpu::KernelStats proj;
        proj.bytes_streamed =
            2.0 * static_cast<double>(h.size()) * simgpu::kWord;
        proj.flops = 2.0 * static_cast<double>(h.size());
        proj.parallel_items = static_cast<double>(h.cols());
        proj.launches = 1;
        dev.record("admm_columnwise_prox", proj, 0.0, options_.stream);
        options_.prox.apply(h, inv_rho);
      }
      kernel_dual_update(dev, h, htilde, u, &primal_sq, &h_sq, &u_sq,
                         options_.stream);
    } else {
      // --- Unfused baseline (Algorithm 2 with cuBLAS-style calls) ---
      // Traffic matches the paper's Eq. 4 accounting (~22 I*R words per
      // inner iteration); the dual residual reuses the primal difference
      // rather than keeping an explicit H0 copy, as the reference
      // implementations do.
      simgpu::dgeam(dev, 1.0, h, 1.0, u, t, options_.stream);   // H + U
      simgpu::dgeam(dev, 1.0, m, rho, t, t, options_.stream);   // M + rho*(H+U)
      if (options_.preinversion) {
        simgpu::dgemm(dev, la::Op::kNone, la::Op::kNone, 1.0, t, inverse, 0.0,
                      htilde, options_.stream);
      } else {
        simgpu::dpotrs_right(dev, l, t, options_.stream);
        std::swap(htilde, t);
      }
      simgpu::dgeam(dev, 1.0, htilde, -1.0, u, h, options_.stream);  // H <- H~ - U
      {
        // Separate proximity kernel (1 read + 1 write).
        simgpu::KernelStats prox_stats;
        prox_stats.bytes_streamed =
            2.0 * static_cast<double>(h.size()) * simgpu::kWord;
        prox_stats.flops = static_cast<double>(h.size());
        prox_stats.parallel_items = static_cast<double>(h.size());
        dev.record("admm_prox_unfused", prox_stats, 0.0, options_.stream);
        options_.prox.apply(h, inv_rho);
      }
      simgpu::dgeam(dev, 1.0, h, -1.0, htilde, t, options_.stream);  // H - H~
      primal_sq = simgpu::dnrm2_sq(dev, t, options_.stream);
      simgpu::dgeam(dev, 1.0, u, 1.0, t, u, options_.stream);  // U += (H - H~)
      // Residual norms, each its own reduction kernel.
      h_sq = simgpu::dnrm2_sq(dev, h, options_.stream);
      u_sq = simgpu::dnrm2_sq(dev, u, options_.stream);
      delta_h_sq = primal_sq;  // primal diff doubles as the dual residual
    }

    // Both variants read the residuals back and synchronize the stream once
    // per inner iteration (the convergence check of line 9) — a fixed cost
    // fusion cannot remove.
    record_residual_sync(dev, options_.stream);

    last_.iterations = iter + 1;
    last_.primal_residual = h_sq > 0.0 ? primal_sq / h_sq : primal_sq;
    last_.dual_residual = u_sq > 0.0 ? delta_h_sq / u_sq : delta_h_sq;
    if (options_.tolerance > 0.0 &&
        last_.primal_residual < options_.tolerance &&
        last_.dual_residual < options_.tolerance) {
      break;
    }
  }
}

}  // namespace cstf
