// Multi-GPU cSTF — the paper's stated future work ("extend our framework to
// support multi-GPU and distributed-memory computation"), built on the same
// simulated-device substrate.
//
// Decomposition (the standard medium-grained scheme for CPD):
//  * The nonzero stream is split into `num_devices` contiguous slices of the
//    linearized (ALTO-sorted) order; each device holds one BLCO backend, so
//    a sorted mode's scatter plan is built once per shard and reused.
//  * Factor matrices are replicated on every device.
//  * Per mode: each device computes a *partial* MTTKRP over its slice; the
//    partial outputs are combined with a ring all-reduce over the GPU
//    interconnect; every device then runs the (identical, deterministic)
//    factor update redundantly — compute is cheaper than communicating H.
//
// The kernels execute for real (the partial outputs are summed on the host,
// so results are exact and testable); each device meters its own work, and
// modeled iteration time is max-over-devices plus the all-reduce.
#pragma once

#include <memory>
#include <vector>

#include "cstf/backend.hpp"
#include "simgpu/device.hpp"
#include "updates/update_method.hpp"

namespace cstf {

struct MultiGpuOptions {
  int num_devices = 4;
  simgpu::DeviceSpec device = simgpu::a100();
  /// Per-link GPU-to-GPU bandwidth (NVLink3 ~ 300 GB/s per direction).
  double interconnect_bandwidth = 300e9;
  double interconnect_latency = 5e-6;
  index_t blco_block_capacity = 4096;
};

/// Ring all-reduce time for `bytes` per rank across `ranks` devices:
/// 2*(ranks-1)/ranks of the payload crosses each link, in 2*(ranks-1) steps.
double allreduce_time(const MultiGpuOptions& options, double bytes);

class MultiGpuCstf {
 public:
  MultiGpuCstf(const SparseTensor& tensor, MultiGpuOptions options);

  int num_devices() const { return static_cast<int>(shards_.size()); }
  int num_modes() const { return static_cast<int>(dims_.size()); }
  const std::vector<index_t>& dims() const { return dims_; }

  /// Nonzeros held by one device's shard.
  index_t shard_nnz(int device) const {
    return shards_[static_cast<std::size_t>(device)]->nnz();
  }

  /// Exact multi-device MTTKRP: every shard computes its partial result and
  /// the partials are reduced into `out`. Each shard's work is metered on
  /// its own Device; `out` equals the single-device result bit-for-bit up to
  /// floating-point addition order.
  void mttkrp(const std::vector<Matrix>& factors, int mode, Matrix& out);

  /// Modeled time of the last mttkrp() call for `mode`: slowest shard plus
  /// the all-reduce of the I_mode x R partial output. `scale` rescales the
  /// metered shard statistics (dataset-analog upscaling), and the reduced
  /// bytes are scaled by `dim_scale` of the output mode.
  double modeled_mttkrp_time(int mode, index_t rank, double nnz_scale,
                             double dim_scale) const;

  /// Overlapped variant (the AMPED-style schedule): each shard's MTTKRP is
  /// split into `chunks` pieces on its own stream, and the all-reduce of
  /// chunk i runs on a communication stream as soon as every device has
  /// finished its chunk i — so communication hides behind the remaining
  /// compute. Modeled on a stream timeline with event edges; `chunks == 0`
  /// picks the chunk count with the smallest makespan (chunking shrinks the
  /// exposed all-reduce tail but multiplies its latency steps, so more is
  /// not always better). Chunk count 1 degenerates to the serial
  /// modeled_mttkrp_time exactly, hence the result never exceeds it.
  double modeled_mttkrp_time_overlapped(int mode, index_t rank,
                                        double nnz_scale, double dim_scale,
                                        int chunks = 0,
                                        int* chunks_used = nullptr) const;

  /// Per-device meters (index by device id).
  simgpu::Device& device(int d) { return *devices_[static_cast<std::size_t>(d)]; }

  const MultiGpuOptions& options() const { return options_; }

 private:
  MultiGpuOptions options_;
  std::vector<index_t> dims_;
  std::vector<std::unique_ptr<BlcoBackend>> shards_;
  std::vector<std::unique_ptr<simgpu::Device>> devices_;
};

}  // namespace cstf
