#include "multigpu/multi_gpu.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"
#include "perfmodel/admm_model.hpp"

namespace cstf {

double allreduce_time(const MultiGpuOptions& options, double bytes) {
  const auto ranks = static_cast<double>(options.num_devices);
  if (ranks <= 1.0 || bytes <= 0.0) return 0.0;
  const double payload = 2.0 * (ranks - 1.0) / ranks * bytes;
  return payload / options.interconnect_bandwidth +
         2.0 * (ranks - 1.0) * options.interconnect_latency;
}

double chunked_allreduce_makespan(const std::vector<double>& shard_s,
                                  int chunks, double chunk_comm_s) {
  CSTF_CHECK_MSG(!shard_s.empty(), "chunked all-reduce needs shards");
  CSTF_CHECK_MSG(chunks >= 1, "chunked all-reduce: chunks < 1");
  std::vector<double> shard_clock(shard_s.size(), 0.0);
  double comm_clock = 0.0;
  for (int i = 0; i < chunks; ++i) {
    double start = comm_clock;
    for (std::size_t d = 0; d < shard_s.size(); ++d) {
      shard_clock[d] += shard_s[d] / static_cast<double>(chunks);
      start = std::max(start, shard_clock[d]);
    }
    comm_clock = start + chunk_comm_s;
  }
  return comm_clock;
}

MultiGpuCstf::MultiGpuCstf(const SparseTensor& tensor, MultiGpuOptions options)
    : options_(options), dims_(tensor.dims()) {
  CSTF_CHECK(options_.num_devices >= 1);
  CSTF_CHECK(tensor.nnz() >= options_.num_devices);

  // Slice the sorted nonzero stream into contiguous shards.
  SparseTensor sorted = tensor;
  sorted.sort_by_mode(0);
  const index_t n = sorted.nnz();
  const index_t per_shard =
      (n + options_.num_devices - 1) / options_.num_devices;
  for (int d = 0; d < options_.num_devices; ++d) {
    const index_t lo = static_cast<index_t>(d) * per_shard;
    const index_t hi = std::min<index_t>(lo + per_shard, n);
    if (lo >= hi) break;
    SparseTensor shard(dims_);
    shard.reserve(hi - lo);
    index_t coords[kMaxModes];
    for (index_t i = lo; i < hi; ++i) {
      for (int m = 0; m < shard.num_modes(); ++m) {
        coords[m] = sorted.indices(m)[static_cast<std::size_t>(i)];
      }
      shard.append(coords, sorted.values()[static_cast<std::size_t>(i)]);
    }
    shards_.push_back(
        std::make_unique<BlcoBackend>(shard, options_.blco_block_capacity));
    devices_.push_back(std::make_unique<simgpu::Device>(options_.device));
  }
}

void MultiGpuCstf::mttkrp(const std::vector<Matrix>& factors, int mode,
                          Matrix& out) {
  CSTF_CHECK(mode >= 0 && mode < num_modes());
  const index_t rank = factors[0].cols();
  CSTF_CHECK(out.rows() == dims_[static_cast<std::size_t>(mode)] &&
             out.cols() == rank);

  std::vector<Matrix> partials(shards_.size());
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    devices_[d]->reset();
    partials[d].resize(out.rows(), out.cols());
    shards_[d]->mttkrp(*devices_[d], factors, mode, partials[d]);
  }
  // Host-side reduction stands in for the ring all-reduce (whose cost the
  // model charges in modeled_mttkrp_time).
  out.set_all(0.0);
  real_t* po = out.data();
  parallel_for_blocked(0, out.size(), [&](index_t lo, index_t hi) {
    for (const Matrix& partial : partials) {
      const real_t* pp = partial.data();
      for (index_t i = lo; i < hi; ++i) po[i] += pp[i];
    }
  });
}

double MultiGpuCstf::modeled_mttkrp_time(int mode, index_t rank,
                                         double nnz_scale,
                                         double dim_scale) const {
  double slowest = 0.0;
  for (const auto& dev : devices_) {
    slowest = std::max(slowest,
                       perfmodel::modeled_time_scaled(*dev, nnz_scale));
  }
  const double reduce_bytes = static_cast<double>(
                                  dims_[static_cast<std::size_t>(mode)]) *
                              static_cast<double>(rank) * simgpu::kWord *
                              dim_scale;
  return slowest + allreduce_time(options_, reduce_bytes);
}

double MultiGpuCstf::modeled_mttkrp_time_overlapped(int mode, index_t rank,
                                                    double nnz_scale,
                                                    double dim_scale,
                                                    int chunks,
                                                    int* chunks_used) const {
  // Per-shard compute times at full scale (the same numbers the serial
  // model maxes over).
  std::vector<double> shard_s;
  shard_s.reserve(devices_.size());
  for (const auto& dev : devices_) {
    shard_s.push_back(perfmodel::modeled_time_scaled(*dev, nnz_scale));
  }
  const double reduce_bytes = static_cast<double>(
                                  dims_[static_cast<std::size_t>(mode)]) *
                              static_cast<double>(rank) * simgpu::kWord *
                              dim_scale;

  const auto makespan_for = [&](int c) {
    return chunked_allreduce_makespan(
        shard_s, c,
        allreduce_time(options_, reduce_bytes / static_cast<double>(c)));
  };

  if (chunks > 0) {
    if (chunks_used != nullptr) *chunks_used = chunks;
    return makespan_for(chunks);
  }
  double best = 0.0;
  int best_c = 1;
  for (const int c : {1, 2, 4, 8, 16, 32}) {
    const double t = makespan_for(c);
    if (c == 1 || t < best) {
      best = t;
      best_c = c;
    }
  }
  if (chunks_used != nullptr) *chunks_used = best_c;
  return best;
}

}  // namespace cstf
