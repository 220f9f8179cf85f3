#include "updates/admm_kernels.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"
#include "simgpu/dblas.hpp"
#include "simgpu/launch.hpp"

namespace cstf {

namespace {

constexpr index_t kBlockDim = 256;

constexpr const char* kAuxiliaryKernel = "admm_compute_auxiliary";
constexpr const char* kProximityKernel = "admm_apply_proximity";
constexpr const char* kDualKernel = "admm_dual_update";

simgpu::LaunchConfig config_for(index_t n) {
  return simgpu::LaunchConfig{.grid_dim = simgpu::blocks_for(n, kBlockDim, 2048),
                              .block_dim = kBlockDim,
                              .shmem_reals = 4};
}

simgpu::KernelStats elementwise_stats(index_t n, double reads, double writes,
                                      double flops_per_elem) {
  simgpu::KernelStats stats;
  const auto dn = static_cast<double>(n);
  stats.flops = dn * flops_per_elem;
  stats.bytes_streamed = dn * (reads + writes) * simgpu::kWord;
  stats.parallel_items = dn;
  return stats;
}

simgpu::KernelStats auxiliary_stats(index_t n) {
  return elementwise_stats(n, 3, 1, 3);
}
simgpu::KernelStats proximity_stats(index_t n) {
  return elementwise_stats(n, 3, 1, 4);
}
simgpu::KernelStats dual_stats(index_t n) {
  return elementwise_stats(n, 3, 1, 8);
}

/// Sums every `stride`-th partial from `offset`, in index order.
real_t sum_in_order(const std::vector<real_t>& partials, std::size_t offset,
                    std::size_t stride) {
  real_t sum = 0.0;
  for (std::size_t i = offset; i < partials.size(); i += stride) {
    sum += partials[i];
  }
  return sum;
}

}  // namespace

void kernel_compute_auxiliary(simgpu::Device& dev, const Matrix& m,
                              const Matrix& h, const Matrix& u, real_t rho,
                              Matrix& t) {
  CSTF_CHECK(m.same_shape(h) && m.same_shape(u) && m.same_shape(t));
  CSTF_CHECK_MSG(rho > 0.0, "kernel_compute_auxiliary requires rho > 0, got "
                                << rho);
  const index_t n = m.size();
  const real_t* pm = m.data();
  const real_t* ph = h.data();
  const real_t* pu = u.data();
  real_t* pt = t.data();
  simgpu::launch(dev, kAuxiliaryKernel, config_for(n),
                 auxiliary_stats(n), [&](const simgpu::KernelCtx& ctx) {
    for (index_t i = ctx.global_thread_id(); i < n; i += ctx.total_threads()) {
      pt[i] = pm[i] + rho * (ph[i] + pu[i]);
    }
  });
}

void kernel_apply_proximity(simgpu::Device& dev, const Proximity& prox,
                            real_t rho, const Matrix& t, const Matrix& u,
                            Matrix& h, real_t* delta_h_sq) {
  CSTF_CHECK(prox.elementwise());
  CSTF_CHECK(t.same_shape(u) && t.same_shape(h));
  // The degenerate-rho clamp lives in AdmmUpdate::update; a silent fallback
  // here would let the fused and unfused paths disagree on the prox scaling.
  CSTF_CHECK_MSG(rho > 0.0, "kernel_apply_proximity requires rho > 0, got "
                                << rho);
  const index_t n = t.size();
  const real_t* pt = t.data();
  const real_t* pu = u.data();
  real_t* ph = h.data();
  const real_t inv_rho = 1.0 / rho;
  const simgpu::LaunchConfig cfg = config_for(n);
  std::vector<real_t> partials(static_cast<std::size_t>(cfg.grid_dim), 0.0);
  simgpu::launch(dev, kProximityKernel, cfg, proximity_stats(n),
                 [&](const simgpu::KernelCtx& ctx) {
    if (ctx.thread_idx == 0) ctx.shared[0] = 0.0;
    real_t local = 0.0;
    for (index_t i = ctx.global_thread_id(); i < n; i += ctx.total_threads()) {
      const real_t old_h = ph[i];
      const real_t new_h = prox.apply_scalar(pt[i] - pu[i], inv_rho);
      ph[i] = new_h;
      const real_t d = new_h - old_h;
      local += d * d;
    }
    ctx.shared[0] += local;
    if (ctx.thread_idx == ctx.block_dim - 1) {
      partials[static_cast<std::size_t>(ctx.block_idx)] = ctx.shared[0];
    }
  });
  *delta_h_sq = sum_in_order(partials, 0, 1);
}

void kernel_dual_update(simgpu::Device& dev, const Matrix& h, const Matrix& t,
                        Matrix& u, real_t* primal_sq, real_t* h_sq,
                        real_t* u_sq) {
  CSTF_CHECK(h.same_shape(t) && h.same_shape(u));
  const index_t n = h.size();
  const real_t* ph = h.data();
  const real_t* pt = t.data();
  real_t* pu = u.data();
  const simgpu::LaunchConfig cfg = config_for(n);
  std::vector<real_t> partials(3 * static_cast<std::size_t>(cfg.grid_dim),
                               0.0);
  simgpu::launch(dev, kDualKernel, cfg, dual_stats(n),
                 [&](const simgpu::KernelCtx& ctx) {
    if (ctx.thread_idx == 0) {
      ctx.shared[0] = 0.0;
      ctx.shared[1] = 0.0;
      ctx.shared[2] = 0.0;
    }
    real_t lp = 0.0, lh = 0.0, lu = 0.0;
    for (index_t i = ctx.global_thread_id(); i < n; i += ctx.total_threads()) {
      const real_t diff = ph[i] - pt[i];
      const real_t nu = pu[i] + diff;
      pu[i] = nu;
      lp += diff * diff;
      lh += ph[i] * ph[i];
      lu += nu * nu;
    }
    ctx.shared[0] += lp;
    ctx.shared[1] += lh;
    ctx.shared[2] += lu;
    if (ctx.thread_idx == ctx.block_dim - 1) {
      real_t* out = partials.data() + 3 * ctx.block_idx;
      out[0] = ctx.shared[0];
      out[1] = ctx.shared[1];
      out[2] = ctx.shared[2];
    }
  });
  *primal_sq = sum_in_order(partials, 0, 3);
  *h_sq = sum_in_order(partials, 1, 3);
  *u_sq = sum_in_order(partials, 2, 3);
}

void record_residual_sync(simgpu::Device& dev) {
  simgpu::KernelStats sync;
  sync.launches = 10;  // three D2H norm reads + stream sync (D2H latency ~ several launch equivalents)
  dev.record("admm_residual_sync", sync);
}

void record_cuadmm_iteration(simgpu::Device& dev, index_t rows, index_t rank) {
  const index_t n = rows * rank;
  const simgpu::LaunchConfig cfg = config_for(n);
  simgpu::record_launch(dev, kAuxiliaryKernel, cfg, auxiliary_stats(n));
  dev.record("dgemm", simgpu::dgemm_stats(rows, rank, rank, 0.0));
  simgpu::record_launch(dev, kProximityKernel, cfg, proximity_stats(n));
  simgpu::record_launch(dev, kDualKernel, cfg, dual_stats(n));
  record_residual_sync(dev);
}

namespace {

// Row-tile geometry of admm_row_tiles: 64 rows keep a tile's five R-column
// buffers (M, H, U, T, H~) within L2 at R = 32 (80 KiB); the DGEMM
// micro-kernel holds a kGemmRows x kGemmCols block of H~ in registers.
// The buffers are column-major: the micro-kernel then reads kGemmRows
// rows of one T column as one contiguous run, and broadcasts each inverse
// entry once per block. With SSE2's 16 registers, a row-major block that
// broadcasts T instead holds half as many products per load; it read
// 1.4-1.9x slower at -O3 on a 30,871 x 32 update.
constexpr index_t kTileRows = 64;
constexpr index_t kGemmRows = 8;
constexpr index_t kGemmCols = 4;

/// out[i, j] = sum_l t[i, l] * inverse(l, j) for rows [row_lo, nr) and
/// columns [col_lo, col_hi) of a tile (column-major, leading dimension nr),
/// exactly as la::gemm computes C = T * inverse: one accumulator from 0.0,
/// l in order, zero entries of `inverse` skipped.
void tile_gemm_scalar(const real_t* t, const Matrix& inverse, index_t nr,
                      index_t row_lo, index_t col_lo, index_t col_hi,
                      real_t* out) {
  const index_t rank = inverse.rows();
  for (index_t j = col_lo; j < col_hi; ++j) {
    real_t* oj = out + j * nr;
    for (index_t i = row_lo; i < nr; ++i) oj[i] = 0.0;
    for (index_t l = 0; l < rank; ++l) {
      const real_t b = inverse(l, j);
      if (b == 0.0) continue;
      const real_t* tl = t + l * nr;
      for (index_t i = row_lo; i < nr; ++i) oj[i] += b * tl[i];
    }
  }
}

/// The micro-kernel's view of `inverse`: each group of kGemmCols columns
/// interleaved row by row, packed[j * rank + l * kGemmCols + c] =
/// inverse(l, j + c). Empty when `inverse` has an exact zero entry, where
/// la::gemm skips a term and only the scalar loop reproduces it.
std::vector<real_t> pack_for_micro_kernel(const Matrix& inverse) {
  const index_t rank = inverse.rows();
  if (std::any_of(inverse.data(), inverse.data() + inverse.size(),
                  [](real_t v) { return v == 0.0; })) {
    return {};
  }
  const index_t cols = rank / kGemmCols * kGemmCols;
  std::vector<real_t> packed(static_cast<std::size_t>(cols * rank));
  for (index_t j = 0; j < cols; j += kGemmCols) {
    for (index_t l = 0; l < rank; ++l) {
      for (index_t c = 0; c < kGemmCols; ++c) {
        packed[static_cast<std::size_t>(j * rank + l * kGemmCols + c)] =
            inverse(l, j + c);
      }
    }
  }
  return packed;
}

/// H~ = T * inverse for one tile: the register-blocked micro-kernel over
/// `packed` (empty: none), whose per-element sums are the scalar loop's,
/// then the scalar loop for ragged rows and columns.
void tile_gemm(const real_t* t, const Matrix& inverse,
               const std::vector<real_t>& packed, index_t nr, real_t* out) {
  const index_t rank = inverse.rows();
  const index_t block_cols = static_cast<index_t>(packed.size()) / rank;
  const index_t block_rows = nr / kGemmRows * kGemmRows;
  for (index_t j = 0; j < block_cols; j += kGemmCols) {
    const real_t* bj = packed.data() + j * rank;
    for (index_t i = 0; i < block_rows; i += kGemmRows) {
      real_t acc[kGemmCols][kGemmRows] = {};
      for (index_t l = 0; l < rank; ++l) {
        const real_t* tl = t + l * nr + i;
        const real_t* bl = bj + l * kGemmCols;
        // Fully unrolled so the accumulators live in registers.
#pragma GCC unroll 4
        for (index_t c = 0; c < kGemmCols; ++c) {
          const real_t b = bl[c];
#pragma GCC unroll 8
          for (index_t r = 0; r < kGemmRows; ++r) acc[c][r] += tl[r] * b;
        }
      }
      for (index_t c = 0; c < kGemmCols; ++c) {
        std::copy_n(acc[c], kGemmRows, out + (j + c) * nr + i);
      }
    }
    tile_gemm_scalar(t, inverse, nr, block_rows, j, j + kGemmCols, out);
  }
  tile_gemm_scalar(t, inverse, nr, 0, block_cols, rank, out);
}

/// Runs `iterations` inner iterations on one tile of `nr` rows whose M, H
/// and U sit in `mt`, `ht` and `ut` (column-major, leading dimension nr);
/// `tt` and `xt` are T and H~ scratch. `prox` and `rho` arrive by value so
/// the compiler knows the tile's stores cannot alias them.
template <typename Map>
AdmmResidualSums iterate_tile(const Map prox, const real_t rho,
                              const Matrix& inverse,
                              const std::vector<real_t>& packed, index_t nr,
                              int iterations, const real_t* mt, real_t* ht,
                              real_t* ut, real_t* tt, real_t* xt) {
  const index_t len = nr * inverse.rows();
  for (index_t k = 0; k < len; ++k) tt[k] = mt[k] + rho * (ht[k] + ut[k]);
  AdmmResidualSums sums;
  for (int iter = 0; iter < iterations; ++iter) {
    tile_gemm(tt, inverse, packed, nr, xt);
    if (iter + 1 < iterations) {
      // Proximity and dual update, then the next iteration's T.
      for (index_t k = 0; k < len; ++k) {
        const real_t new_h = prox(xt[k] - ut[k]);
        const real_t nu = ut[k] + (new_h - xt[k]);
        ht[k] = new_h;
        ut[k] = nu;
        tt[k] = mt[k] + rho * (new_h + nu);
      }
    } else {
      // The last iteration also sums the residuals.
      for (index_t k = 0; k < len; ++k) {
        const real_t old_h = ht[k];
        const real_t new_h = prox(xt[k] - ut[k]);
        const real_t d = new_h - old_h;
        const real_t diff = new_h - xt[k];
        const real_t nu = ut[k] + diff;
        ht[k] = new_h;
        ut[k] = nu;
        sums.delta_h_sq += d * d;
        sums.primal_sq += diff * diff;
        sums.h_sq += new_h * new_h;
        sums.u_sq += nu * nu;
      }
    }
  }
  return sums;
}

template <typename Map>
AdmmResidualSums row_tiles(const Map& prox, real_t rho, const Matrix& inverse,
                           const Matrix& m, Matrix& h, Matrix& u,
                           int iterations) {
  const index_t rows = h.rows();
  const index_t rank = h.cols();
  const index_t tiles = (rows + kTileRows - 1) / kTileRows;
  const std::vector<real_t> packed = pack_for_micro_kernel(inverse);
  std::vector<AdmmResidualSums> partials(static_cast<std::size_t>(tiles));

  parallel_for(0, tiles, [&](index_t tile) {
    const index_t lo = tile * kTileRows;
    const index_t nr = std::min(kTileRows, rows - lo);
    const index_t len = nr * rank;
    thread_local std::vector<real_t> buffer;
    if (buffer.size() < static_cast<std::size_t>(5 * len)) {
      buffer.resize(static_cast<std::size_t>(5 * len));
    }
    real_t* mt = buffer.data();
    real_t* ht = mt + len;
    real_t* ut = ht + len;
    // The tile's rows are contiguous; each buffer holds their transpose.
    for (index_t i = 0; i < nr; ++i) {
      const real_t* mi = m.row(lo + i);
      const real_t* hi = h.row(lo + i);
      const real_t* ui = u.row(lo + i);
      for (index_t j = 0; j < rank; ++j) {
        mt[j * nr + i] = mi[j];
        ht[j * nr + i] = hi[j];
        ut[j * nr + i] = ui[j];
      }
    }
    partials[static_cast<std::size_t>(tile)] =
        iterate_tile(prox, rho, inverse, packed, nr, iterations, mt, ht, ut,
                     ut + len, ut + 2 * len);
    for (index_t i = 0; i < nr; ++i) {
      real_t* hi = h.row(lo + i);
      real_t* ui = u.row(lo + i);
      for (index_t j = 0; j < rank; ++j) {
        hi[j] = ht[j * nr + i];
        ui[j] = ut[j * nr + i];
      }
    }
  }, /*grain=*/1);

  AdmmResidualSums total;
  for (const AdmmResidualSums& p : partials) {
    total.delta_h_sq += p.delta_h_sq;
    total.primal_sq += p.primal_sq;
    total.h_sq += p.h_sq;
    total.u_sq += p.u_sq;
  }
  return total;
}

}  // namespace

AdmmResidualSums admm_row_tiles(const Proximity& prox, real_t rho,
                                const Matrix& inverse, const Matrix& m,
                                Matrix& h, Matrix& u, int iterations) {
  CSTF_CHECK(prox.elementwise());
  CSTF_CHECK_MSG(rho > 0.0, "admm_row_tiles requires rho > 0, got " << rho);
  CSTF_CHECK(m.same_shape(h) && m.same_shape(u));
  CSTF_CHECK(inverse.rows() == h.cols() && inverse.cols() == h.cols());
  return prox.with_scalar_map(1.0 / rho, [&](const auto& map) {
    return row_tiles(map, rho, inverse, m, h, u, iterations);
  });
}

}  // namespace cstf
