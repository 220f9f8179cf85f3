// CUDA-like kernel-launch interface executing on the host.
//
// Kernels are written against the familiar grid/block/thread decomposition:
//
//   simgpu::launch(dev, "my_kernel", {grid, block, shmem_reals}, stats,
//                  [&](const simgpu::KernelCtx& ctx) {
//                    index_t gid = ctx.global_thread_id();
//                    ...
//                  });
//
// Semantics vs real CUDA:
//  * Blocks execute in parallel across host worker threads; there is no
//    cross-block ordering, exactly like CUDA — kernels must not assume one.
//  * Threads *within* a block execute sequentially in threadIdx order on one
//    host worker. This makes block-level reductions into shared memory safe
//    without __syncthreads, but kernels must not rely on warp-parallel
//    side effects. All kernels in this repository are per-item independent
//    or block-reduce, so the restriction never binds.
//  * `ctx.shared` is a per-block scratch buffer of `shmem_reals` real_t,
//    zeroed at block start.
//  * There is no fourth <<<grid, block, shmem, stream>>> parameter: kernel
//    bodies and device BLAS issue in program order, as the paper's AO
//    iteration does.
#pragma once

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "parallel/parallel_for.hpp"
#include "simgpu/device.hpp"

namespace cstf::simgpu {

/// Launch geometry (1-D grid and block; the kernels in this library all
/// linearize their index spaces).
struct LaunchConfig {
  index_t grid_dim = 1;
  index_t block_dim = 1;
  index_t shmem_reals = 0;
};

/// Per-thread execution context handed to the kernel body.
struct KernelCtx {
  index_t block_idx = 0;
  index_t thread_idx = 0;
  index_t block_dim = 1;
  index_t grid_dim = 1;
  /// Per-block shared scratch (zeroed); size = LaunchConfig::shmem_reals.
  real_t* shared = nullptr;

  index_t global_thread_id() const { return block_idx * block_dim + thread_idx; }
  index_t total_threads() const { return grid_dim * block_dim; }
};

/// Records one launch of `kernel_name` with geometry `cfg` on `device`:
/// `stats` with launches/parallel_items auto-filled if left 0. Returns the
/// record as the device received it. launch() records through this; a
/// caller that executes a kernel's work some other way (the row-tiled ADMM
/// pass, the BLCO MTTKRP's host scatter) meters it as the same launch with
/// it.
inline KernelStats record_launch(Device& device, const std::string& kernel_name,
                                 const LaunchConfig& cfg, KernelStats stats,
                                 double wall_s = 0.0) {
  CSTF_CHECK(cfg.grid_dim >= 1 && cfg.block_dim >= 1);
  if (stats.launches == 0) stats.launches = 1;
  if (stats.parallel_items == 0.0) {
    stats.parallel_items = static_cast<double>(cfg.grid_dim * cfg.block_dim);
  }
  device.record(kernel_name, stats, wall_s);
  return stats;
}

/// Executes `body` for every (block, thread) pair of `cfg` and records
/// nothing. launch() is run_grid() then record_launch(); a kernel whose
/// device record does not follow its host grid (the BLCO MTTKRP, whose
/// scatter strategy is host-only) runs its grid here and records itself.
template <typename Body>
void run_grid(const LaunchConfig& cfg, const Body& body) {
  CSTF_CHECK(cfg.grid_dim >= 1 && cfg.block_dim >= 1);
  const auto shmem = static_cast<std::size_t>(cfg.shmem_reals);
  parallel_for(0, cfg.grid_dim, [&](index_t block) {
    // Per-worker scratch reused across every block this worker runs; only the
    // zero-fill is per-block. (A fresh vector per block costs a heap
    // round-trip per block per launch on shmem kernels.)
    thread_local std::vector<real_t> shared;
    if (shared.size() < shmem) shared.resize(shmem);
    std::fill_n(shared.begin(), shmem, real_t{0});
    KernelCtx ctx;
    ctx.block_idx = block;
    ctx.block_dim = cfg.block_dim;
    ctx.grid_dim = cfg.grid_dim;
    ctx.shared = shmem > 0 ? shared.data() : nullptr;
    for (index_t t = 0; t < cfg.block_dim; ++t) {
      ctx.thread_idx = t;
      body(ctx);
    }
  }, /*grain=*/1);
}

/// Executes `body` for every (block, thread) pair (run_grid) and records
/// `stats` on `device` (record_launch); returns the recorded stats.
template <typename Body>
KernelStats launch(Device& device, const std::string& kernel_name,
                   LaunchConfig cfg, const KernelStats& stats,
                   const Body& body) {
  Timer wall;
  run_grid(cfg, body);
  return record_launch(device, kernel_name, cfg, stats, wall.seconds());
}

/// Grid-stride helper: number of blocks covering `n` items with `block_dim`
/// threads per block, capped at `max_blocks` (kernels then loop).
inline index_t blocks_for(index_t n, index_t block_dim,
                          index_t max_blocks = 65535) {
  const index_t blocks = (n + block_dim - 1) / block_dim;
  return blocks < 1 ? 1 : (blocks > max_blocks ? max_blocks : blocks);
}

}  // namespace cstf::simgpu
