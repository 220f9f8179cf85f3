#include "mttkrp/blco_mttkrp.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "simgpu/launch.hpp"

namespace cstf {

simgpu::KernelStats blco_mttkrp_stats(const BlcoTensor& blco,
                                      const std::vector<Matrix>& factors,
                                      int mode) {
  const int modes = blco.num_modes();
  const auto rank = static_cast<double>(factors[0].cols());
  const auto nnz = static_cast<double>(blco.nnz());
  simgpu::KernelStats stats;
  // Per nonzero: (modes-1) row scalings + value scale + accumulate add.
  stats.flops = nnz * rank * static_cast<double>(modes + 1);
  // Compressed tensor is streamed once.
  stats.bytes_streamed = blco.storage_bytes();
  // Factor-row gathers and output scatter are random accesses whose reuse is
  // bounded by the live factor working set.
  double factor_bytes = 0.0;
  for (int m = 0; m < modes; ++m) {
    if (m == mode) continue;
    factor_bytes +=
        static_cast<double>(factors[static_cast<std::size_t>(m)].size()) *
        simgpu::kWord;
  }
  const double out_bytes =
      static_cast<double>(blco.dims()[static_cast<std::size_t>(mode)]) * rank *
      simgpu::kWord;
  stats.bytes_random = nnz * rank * simgpu::kWord *
                           static_cast<double>(modes - 1)  // gathers
                       + nnz * rank * simgpu::kWord * 2.0;  // scatter RMW
  stats.working_set_bytes = factor_bytes + out_bytes;
  stats.parallel_items = nnz;
  // Warp-level gathers and the scatter keep the SMs below FMA peak.
  stats.compute_efficiency = 0.5;
  return stats;
}

namespace {

// Scales the extensive parts of a per-call record to a fraction of the
// nonzeros (used to pro-rate the full-tensor stats over a streamed batch).
simgpu::KernelStats prorate(const simgpu::KernelStats& stats, double share) {
  simgpu::KernelStats scaled = stats;
  scaled.flops *= share;
  scaled.bytes_streamed *= share;
  scaled.bytes_reused *= share;
  scaled.bytes_random *= share;
  scaled.parallel_items *= share;
  return scaled;
}

// Adds nonzero i of block `blk` into the R-vector acc(row), row = its
// output-mode coordinate: the value times its gathered factor rows, formed
// and added in one pass (add_krp_product). Shared by both device kernels.
template <int G, typename Acc>
void add_blco_nonzero(const BlcoTensor& blco, const BlcoBlock& blk,
                      const BitReader& deltas, index_t i,
                      const RowGather& gather, int mode, index_t rank,
                      const Acc& acc) {
  index_t coords[kMaxModes];
  blco.encoding().decode_all(
      blk.base + deltas.get(static_cast<std::size_t>(i)), coords);
  const real_t v =
      blco.values()[static_cast<std::size_t>(blk.value_offset + i)];
  gather.add<G>(acc(coords[mode]), rank, [v](index_t) { return v; },
                [&](int g) { return coords[gather.mode[g]]; });
}

// Nonzeros held by the contiguous block range [block_lo, block_hi).
index_t range_nnz(const BlcoTensor& blco, index_t block_lo, index_t block_hi) {
  const BlcoBlock& last = blco.block(block_hi - 1);
  return last.value_offset + last.count - blco.block(block_lo).value_offset;
}

// Privatized kernel over the block range [block_lo, block_hi): a grid of
// `tiles` launch blocks, tile t accumulating its fixed contiguous sub-range
// into a private output tile, followed by a reduce launch that adds the
// tiles into tile 0 with the fixed pairwise tree. Tile 0 is `out` itself,
// so consecutive ranges accumulate. Bit-deterministic regardless of which
// worker runs which tile. Returns the two records it made.
std::vector<simgpu::KernelStats> launch_blco_priv(
    simgpu::Device& dev, const char* name, const BlcoTensor& blco,
    const std::vector<Matrix>& factors, int mode, Matrix& out,
    index_t block_lo, index_t block_hi, simgpu::KernelStats stats) {
  const index_t rank = factors[0].cols();
  const index_t num_blocks = block_hi - block_lo;
  const index_t tiles = std::min(
      privatized_tile_count(range_nnz(blco, block_lo, block_hi)), num_blocks);
  const auto len = static_cast<std::size_t>(out.size());
  const double tile_bytes = static_cast<double>(len) * simgpu::kWord;

  ScratchPool::Lease lease =
      ScratchPool::global().acquire(static_cast<std::size_t>(tiles - 1), len);
  std::vector<real_t*> tile(static_cast<std::size_t>(tiles));
  tile[0] = out.data();
  for (index_t t = 1; t < tiles; ++t) {
    tile[static_cast<std::size_t>(t)] =
        lease.tile(static_cast<std::size_t>(t - 1));
  }
  const index_t per_tile = (num_blocks + tiles - 1) / tiles;

  // Accumulate launch: base stats plus the tile zero-fill traffic.
  stats.bytes_streamed += static_cast<double>(tiles) * tile_bytes;
  simgpu::LaunchConfig cfg{.grid_dim = tiles, .block_dim = 1};
  const RowGather gather(factors, mode);
  std::vector<simgpu::KernelStats> recorded;
  with_gather_count(gather.count, [&](auto count) {
    constexpr int G = decltype(count)::value;
    const auto accumulate = [&](const simgpu::KernelCtx& ctx) {
      const index_t t = ctx.block_idx;
      real_t* dst = tile[static_cast<std::size_t>(t)];
      if (t > 0) std::fill_n(dst, len, real_t{0});
      const auto tile_row = [dst, rank](index_t row) {
        return dst + static_cast<std::size_t>(row * rank);
      };
      const index_t b_lo = block_lo + t * per_tile;
      const index_t b_hi = std::min<index_t>(b_lo + per_tile, block_hi);
      for (index_t b = b_lo; b < b_hi; ++b) {
        const BlcoBlock& blk = blco.block(b);
        const BitReader deltas(blk.packed_deltas.data(), blk.delta_bits);
        for (index_t i = 0; i < blk.count; ++i) {
          add_blco_nonzero<G>(blco, blk, deltas, i, gather, mode, rank,
                              tile_row);
        }
      }
    };
    recorded.push_back(simgpu::launch(dev, name, cfg, stats, accumulate));
  });

  // Reduce launch: single-block (the element-level parallelism happens
  // inside deterministic_tree_reduce), metered as the tree's traffic.
  simgpu::KernelStats red;
  red.bytes_streamed = 3.0 * static_cast<double>(tiles - 1) * tile_bytes;
  red.flops = static_cast<double>(tiles - 1) * static_cast<double>(len);
  red.parallel_items = static_cast<double>(len);
  recorded.push_back(simgpu::launch(
      dev, "mttkrp_blco_reduce",
      simgpu::LaunchConfig{.grid_dim = 1, .block_dim = 1}, red,
      [&](const simgpu::KernelCtx&) {
        deterministic_tree_reduce(tile.data(), static_cast<std::size_t>(tiles),
                                  static_cast<index_t>(len));
      }));
  return recorded;
}

// Sorted kernel: threads stride over the plan's segments; each segment owns
// one output row and adds its sum onto it, so the writes need no atomics
// and the per-row accumulation order is the plan's (fixed) order. Adding
// onto `out` lets a streamed batch accumulate on top of earlier batches.
// Returns the record it made.
simgpu::KernelStats launch_blco_sorted(simgpu::Device& dev, const char* name,
                                       const BlcoTensor& blco,
                                       const std::vector<Matrix>& factors,
                                       int mode, Matrix& out,
                                       const ScatterPlan& plan,
                                       simgpu::KernelStats stats) {
  const index_t rank = factors[0].cols();
  const index_t segments = plan.num_segments();

  constexpr index_t kThreads = 128;
  simgpu::LaunchConfig cfg{
      .grid_dim = simgpu::blocks_for(segments, kThreads),
      .block_dim = kThreads};
  const RowGather gather(factors, mode);
  simgpu::KernelStats recorded;
  with_gather_count(gather.count, [&](auto count) {
    constexpr int G = decltype(count)::value;
    const auto sweep = [&](const simgpu::KernelCtx& ctx) {
      thread_local std::vector<real_t> segment_acc;
      if (segment_acc.size() < static_cast<std::size_t>(rank)) {
        segment_acc.resize(static_cast<std::size_t>(rank));
      }
      real_t* acc = segment_acc.data();
      const auto into_acc = [acc](index_t) { return acc; };
      for (index_t s = ctx.global_thread_id(); s < segments;
           s += ctx.total_threads()) {
        std::fill_n(acc, static_cast<std::size_t>(rank), real_t{0});
        const index_t lo = plan.seg_ptr[static_cast<std::size_t>(s)];
        const index_t hi = plan.seg_ptr[static_cast<std::size_t>(s) + 1];
        for (index_t k = lo; k < hi; ++k) {
          const index_t i = plan.order[static_cast<std::size_t>(k)];
          const BlcoBlock& blk = blco.block(blco.block_of(i));
          const BitReader deltas(blk.packed_deltas.data(), blk.delta_bits);
          add_blco_nonzero<G>(blco, blk, deltas, i - blk.value_offset, gather,
                              mode, rank, into_acc);
        }
        real_t* out_row = out.row(plan.seg_row[static_cast<std::size_t>(s)]);
        for (index_t r = 0; r < rank; ++r) out_row[r] += acc[r];
      }
    };
    recorded = simgpu::launch(dev, name, cfg, stats, sweep);
  });
  return recorded;
}

// Sorted-scatter plan over the nonzeros of blocks [block_lo, block_hi),
// keyed by their global nonzero ids.
ScatterPlan range_scatter_plan(const BlcoTensor& blco, int mode,
                               index_t block_lo, index_t block_hi) {
  const index_t base = blco.block(block_lo).value_offset;
  const auto nnz =
      static_cast<std::size_t>(range_nnz(blco, block_lo, block_hi));
  std::vector<lco_t> keys(nnz);
  std::vector<index_t> order(nnz);
  const auto& enc = blco.encoding();
  parallel_for(block_lo, block_hi, [&](index_t b) {
    const BlcoBlock& blk = blco.block(b);
    const BitReader deltas(blk.packed_deltas.data(), blk.delta_bits);
    index_t coords[kMaxModes];
    for (index_t i = 0; i < blk.count; ++i) {
      const lco_t lco = blk.base + deltas.get(static_cast<std::size_t>(i));
      enc.decode_all(lco, coords);
      const auto at = static_cast<std::size_t>(blk.value_offset + i - base);
      keys[at] = static_cast<lco_t>(coords[mode]);
      order[at] = blk.value_offset + i;
    }
  });
  return detail::finish_scatter_plan(std::move(keys), std::move(order));
}

// cudaMemset-equivalent launch clearing the output; returns its record.
simgpu::KernelStats zero_output(simgpu::Device& dev, Matrix& out) {
  simgpu::KernelStats zero_stats;
  zero_stats.bytes_streamed = static_cast<double>(out.size()) * simgpu::kWord;
  zero_stats.parallel_items = static_cast<double>(out.size());
  return simgpu::launch(dev, "mttkrp_zero_out",
                        simgpu::LaunchConfig{.grid_dim = 1, .block_dim = 1},
                        zero_stats,
                        [&](const simgpu::KernelCtx&) { out.set_all(0.0); });
}

void check_mttkrp_args(const BlcoTensor& blco,
                       const std::vector<Matrix>& factors, int mode,
                       const Matrix& out) {
  const int modes = blco.num_modes();
  CSTF_CHECK(mode >= 0 && mode < modes);
  CSTF_CHECK(static_cast<int>(factors.size()) == modes);
  CSTF_CHECK(out.rows() == blco.dims()[static_cast<std::size_t>(mode)] &&
             out.cols() == factors[0].cols());
}

}  // namespace

ScatterStrategy mttkrp_blco(simgpu::Device& dev, const BlcoTensor& blco,
                            const std::vector<Matrix>& factors, int mode,
                            Matrix& out, const ScatterOptions& opts,
                            const ScatterPlan* plan) {
  check_mttkrp_args(blco, factors, mode, out);
  const ScatterStrategy strategy =
      resolve_scatter_strategy(opts, out.rows(), out.cols(), blco.nnz());

  ScatterPlan local_plan;
  if (strategy == ScatterStrategy::kSorted && plan == nullptr) {
    local_plan = blco_scatter_plan(blco, mode);
    plan = &local_plan;
  }

  zero_output(dev, out);
  simgpu::KernelStats stats = blco_mttkrp_stats(blco, factors, mode);
  if (strategy == ScatterStrategy::kSorted) {
    apply_scatter_stats(stats, strategy, out.rows(), out.cols(),
                        static_cast<double>(blco.nnz()));
    launch_blco_sorted(dev, "mttkrp_blco_sorted", blco, factors, mode, out,
                       *plan, stats);
  } else {
    // launch_blco_priv splits the privatized extras over its two launches.
    launch_blco_priv(dev, "mttkrp_blco_priv", blco, factors, mode, out, 0,
                     blco.num_blocks(), stats);
  }
  return strategy;
}

ScatterPlan blco_scatter_plan(const BlcoTensor& blco, int mode) {
  CSTF_CHECK(mode >= 0 && mode < blco.num_modes());
  if (blco.num_blocks() == 0) return detail::finish_scatter_plan({}, {});
  return range_scatter_plan(blco, mode, 0, blco.num_blocks());
}

index_t mttkrp_blco_streamed(simgpu::Device& dev, const BlcoTensor& blco,
                             const std::vector<Matrix>& factors, int mode,
                             Matrix& out, double device_budget_bytes,
                             StagedRecords* records) {
  CSTF_CHECK(device_budget_bytes > 0.0);
  check_mttkrp_args(blco, factors, mode, out);
  const double tensor_bytes = blco.storage_bytes();
  if (tensor_bytes <= device_budget_bytes) {
    mttkrp_blco(dev, blco, factors, mode, out);
    if (records != nullptr) *records = StagedRecords{};
    return 1;
  }

  const ScatterStrategy strategy = resolve_scatter_strategy(
      ScatterOptions{}, out.rows(), out.cols(), blco.nnz());
  StagedRecords recorded;
  recorded.zero_fill = zero_output(dev, out);
  auto batches =
      static_cast<index_t>(std::ceil(tensor_bytes / device_budget_bytes));
  batches = std::min(batches, blco.num_blocks());
  const index_t per_batch = (blco.num_blocks() + batches - 1) / batches;

  simgpu::KernelStats full_stats = blco_mttkrp_stats(blco, factors, mode);
  if (strategy == ScatterStrategy::kSorted) {
    apply_scatter_stats(full_stats, strategy, out.rows(), out.cols(),
                        static_cast<double>(blco.nnz()));
  }
  for (index_t lo = 0; lo < blco.num_blocks(); lo += per_batch) {
    const index_t hi = std::min<index_t>(lo + per_batch, blco.num_blocks());
    // The batch's compressed bytes cross the host link as their own span.
    StagedRecords::Batch& batch = recorded.batches.emplace_back();
    for (index_t b = lo; b < hi; ++b) {
      const BlcoBlock& blk = blco.block(b);
      batch.transfer.host_link_bytes +=
          static_cast<double>(blk.packed_deltas.size()) *
              sizeof(std::uint64_t) +
          static_cast<double>(blk.count) * sizeof(real_t);
    }
    batch.transfer.launches = 1;
    dev.record("mttkrp_stage_batch", batch.transfer);
    // Pro-rate the full-tensor traffic over this batch's nonzero share.
    const simgpu::KernelStats stats =
        prorate(full_stats, static_cast<double>(range_nnz(blco, lo, hi)) /
                                static_cast<double>(blco.nnz()));
    if (strategy == ScatterStrategy::kSorted) {
      // A plan over this batch's nonzeros only: it dies with the batch.
      const ScatterPlan plan = range_scatter_plan(blco, mode, lo, hi);
      batch.compute.push_back(launch_blco_sorted(dev, "mttkrp_blco_streamed",
                                                 blco, factors, mode, out,
                                                 plan, stats));
    } else {
      batch.compute = launch_blco_priv(dev, "mttkrp_blco_streamed", blco,
                                       factors, mode, out, lo, hi, stats);
    }
  }
  const auto used = static_cast<index_t>(recorded.batches.size());
  if (records != nullptr) *records = std::move(recorded);
  return used;
}

double staged_makespan_s(const StagedRecords& records,
                         const simgpu::DeviceSpec& spec,
                         double extensive_scale) {
  const auto time = [&](const simgpu::KernelStats& stats) {
    return simgpu::model_time(simgpu::scale_stats(stats, extensive_scale), spec)
        .total_s;
  };
  // Both clocks add in the order the records were made, so the result
  // is the same double an event-driven schedule of those spans gives. No
  // shared-bandwidth floor is needed: each clock runs its records back to
  // back, and a record's time is at least its memory and its link time
  // (DESIGN.md §7).
  double compute = time(records.zero_fill);
  double copy = 0.0;
  std::vector<double> batch_done;  // compute clock after each batch
  batch_done.reserve(records.batches.size());
  for (const StagedRecords::Batch& batch : records.batches) {
    const std::size_t i = batch_done.size();
    if (i >= 2) copy = std::max(copy, batch_done[i - 2]);
    copy += time(batch.transfer);
    compute = std::max(compute, copy);
    for (const simgpu::KernelStats& stats : batch.compute) {
      compute += time(stats);
    }
    batch_done.push_back(compute);
  }
  return std::max(compute, copy);
}

}  // namespace cstf
