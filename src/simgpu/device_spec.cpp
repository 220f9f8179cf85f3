#include "simgpu/device_spec.hpp"

namespace cstf::simgpu {

DeviceSpec a100() {
  return DeviceSpec{
      .name = "A100",
      .peak_flops = 9.7e12,       // FP64 FMA, non-tensor-core
      .mem_bandwidth = 2039e9,    // Table 1
      .stream_bw_fraction = 0.85,
      .random_bw_fraction = 0.15,
      .cache_bytes = 40e6,        // 40 MB L2 (Table 1)
      .launch_overhead = 4e-6,
      .saturation_parallelism = 108.0 * 2048.0,  // SMs x resident threads
      .serial_op_rate = 1.41e9,   // one op per cycle on a single lane
      .host_link_bandwidth = 25e9,  // PCIe 4.0 x16 effective
      .host_link_latency = 10e-6,
  };
}

DeviceSpec h100() {
  return DeviceSpec{
      .name = "H100",
      .peak_flops = 25.6e12,
      .mem_bandwidth = 2039e9,    // Table 1 lists the same bandwidth as A100
      .stream_bw_fraction = 0.85,
      .random_bw_fraction = 0.17,
      .cache_bytes = 50e6,        // 50 MB L2 (Table 1)
      .launch_overhead = 3e-6,
      .saturation_parallelism = 114.0 * 2048.0,
      .serial_op_rate = 1.98e9,
      .host_link_bandwidth = 55e9,  // PCIe 5.0 x16 effective
      .host_link_latency = 10e-6,
  };
}

DeviceSpec xeon_8367hc() {
  return DeviceSpec{
      .name = "Xeon-8367HC",
      // 26 cores x 3.2 GHz x 16 DP flop/cycle (2x AVX-512 FMA).
      .peak_flops = 26.0 * 3.2e9 * 16.0,
      // 8-channel DDR4-3200 per Ice Lake socket.
      .mem_bandwidth = 205e9,
      // Achievable triad-style bandwidth: write-allocate (RFO) and NUMA
      // effects hold streaming kernels near half of peak.
      .stream_bw_fraction = 0.50,
      // CPUs tolerate gathers better than GPUs relative to their stream
      // bandwidth (large per-core caches + prefetchers).
      .random_bw_fraction = 0.20,
      .cache_bytes = 39e6,        // 1.5 MB/core LLC slice x 26
      .launch_overhead = 2e-6,    // OpenMP parallel-region fork/barrier
      .saturation_parallelism = 26.0 * 64.0,  // cores x unroll/vector depth
      .serial_op_rate = 2.0 * 3.2e9,  // superscalar scalar chain
  };
}

double transfer_time(const DeviceSpec& spec, double bytes) {
  if (spec.host_link_bandwidth <= 0.0 || bytes <= 0.0) return 0.0;
  return spec.host_link_latency + bytes / spec.host_link_bandwidth;
}

DeviceSpec host_1core() {
  return DeviceSpec{
      .name = "host-1core",
      .peak_flops = 3.0e9 * 4.0,
      .mem_bandwidth = 20e9,
      .stream_bw_fraction = 0.8,
      .random_bw_fraction = 0.4,
      .cache_bytes = 8e6,
      .launch_overhead = 1e-7,
      .saturation_parallelism = 16.0,
      .serial_op_rate = 2.0 * 3.0e9,
  };
}

}  // namespace cstf::simgpu
