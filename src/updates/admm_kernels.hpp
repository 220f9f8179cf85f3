// The three fused cuADMM kernels of Section 4.3.1, as simulated-GPU launches.
//
// Traffic accounting per kernel (I x R matrices, w = 8 bytes/word):
//   compute_auxiliary    reads M, H, U; writes T            -> 4*I*R*w
//     (vs. two chained DGEAMs: 6*I*R*w — the ~33% saving the paper cites)
//   apply_proximity      reads T, U, H(old); writes H       -> 4*I*R*w
//     (also emits ||H_new - H_old||^2 for the dual-residual test, reusing
//      the old value it is overwriting — no separate H0 copy pass)
//   dual_update          reads H, T, U; writes U            -> 4*I*R*w
//     (also emits ||H - T||^2, ||H||^2, ||U||^2 from the same pass)
//
// Each reduction stores its block partials by block index and sums them in
// block order after the launch, so residuals are bit-reproducible at any
// worker count.
//
// admm_row_tiles is the host execution of cuADMM (these kernels plus the
// pre-inverted DGEMM) for every inner iteration at once, one cache-resident
// row tile at a time; record_cuadmm_iteration meters it as the per-kernel
// program above.
#pragma once

#include "la/matrix.hpp"
#include "simgpu/device.hpp"
#include "updates/prox.hpp"

namespace cstf {

/// T = M + rho * (H + U), fused.
void kernel_compute_auxiliary(simgpu::Device& dev, const Matrix& m,
                              const Matrix& h, const Matrix& u, real_t rho,
                              Matrix& t);

/// H = prox(T - U), fused with the dual-residual accumulation
/// ||H_new - H_old||^2 (old H read in place before being overwritten).
/// Requires an elementwise prox; the caller handles the L2-ball fallback.
void kernel_apply_proximity(simgpu::Device& dev, const Proximity& prox,
                            real_t rho, const Matrix& t, const Matrix& u,
                            Matrix& h, real_t* delta_h_sq);

/// U += H - T, fused with the residual reductions: primal ||H - T||^2,
/// ||H||^2, and ||U||^2 (post-update).
void kernel_dual_update(simgpu::Device& dev, const Matrix& h, const Matrix& t,
                        Matrix& u, real_t* primal_sq, real_t* h_sq,
                        real_t* u_sq);

/// Records the residual read-back and stream sync that ends every inner
/// iteration (the convergence check of Algorithm 2 line 9).
void record_residual_sync(simgpu::Device& dev);

/// Records one cuADMM inner iteration on a `rows` x `rank` factor without
/// executing it: the launches kernel_compute_auxiliary, the pre-inverted
/// DGEMM, kernel_apply_proximity and kernel_dual_update record, then
/// record_residual_sync — Algorithm 3 lines 6-9 with the per-kernel path's
/// names, stats and order, each with 0 host wall.
void record_cuadmm_iteration(simgpu::Device& dev, index_t rows, index_t rank);

/// Residual sums of one inner iteration.
struct AdmmResidualSums {
  real_t delta_h_sq = 0.0;  // ||H_new - H_old||^2
  real_t primal_sq = 0.0;   // ||H - H~||^2
  real_t h_sq = 0.0;        // ||H||^2
  real_t u_sq = 0.0;        // ||U||^2
};

/// Runs `iterations` cuADMM inner iterations — T = M + rho*(H + U);
/// H~ = T * inverse; H = prox(H~ - U); U += H - H~ — as one parallel pass
/// over row tiles: each worker copies a tile of M, H and U into its own
/// buffers, iterates on it while it stays in cache, and writes H and U back
/// once. Every element is computed with the expressions of the per-kernel
/// path (the kernels above and la::gemm's in-order sum), so H and U are
/// bit-identical to it. `prox` must be elementwise. Returns the last
/// iteration's residual sums, summed within each tile and then in tile
/// order. Records nothing.
AdmmResidualSums admm_row_tiles(const Proximity& prox, real_t rho,
                                const Matrix& inverse, const Matrix& m,
                                Matrix& h, Matrix& u, int iterations);

}  // namespace cstf
