// Machine descriptions for the roofline cost model.
//
// This repository reproduces a GPU paper on a host with no GPU. Kernels run
// functionally on the CPU, and each launch *meters* its flops and memory
// traffic; a DeviceSpec then converts the metered quantities into modeled
// execution time for a specific machine. The three presets correspond to the
// paper's Table 1 (NVIDIA A100, NVIDIA H100, Intel Xeon Platinum 8367HC).
//
// The model deliberately captures only the effects the paper's analysis
// relies on:
//   * peak FP64 throughput and HBM/DRAM bandwidth (roofline, Eqs. 3–5);
//   * a finite cache that discounts re-used traffic — the paper attributes
//     the H100-over-A100 gain at equal bandwidth to its larger caches;
//   * lower achieved bandwidth for random (gather/scatter) access — why
//     MTTKRP speedups shrink as sparsity grows (Figs. 7–8);
//   * kernel-launch / parallel-region overhead — why small tensors (NIPS)
//     see little GPU benefit (Figs. 5–6);
//   * a serial-operation rate — why triangular solves are GPU-hostile and
//     pre-inversion wins (Section 4.3.2);
//   * a parallelism saturation point — why long modes benefit more from the
//     GPU's execution model (Section 5.3).
#pragma once

#include <string>

#include "common/types.hpp"

namespace cstf::simgpu {

/// Static description of one machine for the cost model.
struct DeviceSpec {
  std::string name;

  /// Peak double-precision throughput, flop/s (non-tensor-core for GPUs).
  double peak_flops;

  /// Peak main-memory bandwidth, bytes/s.
  double mem_bandwidth;

  /// Fraction of peak bandwidth achievable for unit-stride streams.
  double stream_bw_fraction;

  /// Fraction of peak bandwidth achievable for random row gathers.
  double random_bw_fraction;

  /// Last-level cache capacity in bytes (L2 for the GPUs, LLC for the CPU).
  double cache_bytes;

  /// Fixed cost per kernel launch (GPU) or parallel-region fork (CPU), s.
  double launch_overhead;

  /// Number of concurrent work items needed to saturate the device. Work
  /// smaller than this runs at proportionally lower throughput.
  double saturation_parallelism;

  /// Dependent scalar operations retired per second on one lane — the rate at
  /// which an inherently sequential chain (e.g. one column of a triangular
  /// solve) executes.
  double serial_op_rate;

  /// Host-link (PCIe/NVLink) bandwidth in bytes/s for data staged between
  /// host and device memory; 0 means the device IS the host (no transfers).
  /// Full GPU offload — the paper's core design decision — exists to avoid
  /// paying this.
  double host_link_bandwidth = 0.0;

  /// Fixed latency per host-link transfer, seconds.
  double host_link_latency = 0.0;
};

/// Time to move `bytes` across the host link (0 when the spec has no link).
double transfer_time(const DeviceSpec& spec, double bytes);

/// NVIDIA A100-SXM4-80GB per the paper's Table 1 (1.41 GHz, 108 SMs,
/// 40 MB L2, 2039 GB/s).
DeviceSpec a100();

/// NVIDIA H100-SXM5-80GB per the paper's Table 1 (1.98 GHz, 114 SMs,
/// 50 MB L2, 2039 GB/s). Same bandwidth as the A100 — the paper uses this
/// pair to isolate the cache-capacity effect.
DeviceSpec h100();

/// Intel Xeon Platinum 8367HC (26-core Ice Lake, 3.2 GHz) — the machine the
/// SPLATT and PLANC baselines run on in the paper.
DeviceSpec xeon_8367hc();

/// A 1-core spec matching this container, used by tests that compare modeled
/// time against measured wall time on the host.
DeviceSpec host_1core();

}  // namespace cstf::simgpu
