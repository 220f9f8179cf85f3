// Roofline-style execution-time model over metered kernel statistics.
#pragma once

#include <vector>

#include "simgpu/counters.hpp"
#include "simgpu/device_spec.hpp"

namespace cstf::simgpu {

/// Breakdown of one modeled kernel (or kernel-sequence) time.
struct TimeBreakdown {
  double compute_s = 0.0;   // flops at achievable throughput
  double memory_s = 0.0;    // effective bytes at achievable bandwidth
  double serial_s = 0.0;    // critical-path chain at the serial op rate
  double link_s = 0.0;      // host-link staging (overlapped double-buffered)
  double launch_s = 0.0;    // per-launch fixed overhead
  double total_s = 0.0;     // launch + max(compute, memory, serial, link)
};

/// Fraction of `bytes_reused` that misses cache given the working set; 1.0
/// when nothing fits, with a small compulsory-miss floor when everything fits.
double cache_miss_fraction(double working_set_bytes, double cache_bytes);

/// Throughput utilization given available parallelism vs the device's
/// saturation point (linear ramp, capped at 1).
double parallel_utilization(double parallel_items, double saturation);

/// Models the execution time of `stats` on `spec`.
TimeBreakdown model_time(const KernelStats& stats, const DeviceSpec& spec);

/// Models a dependent kernel sequence: per-kernel roofline, summed. Unlike
/// collapsing the sequence into one accumulated KernelStats record (whose
/// `+=` keeps the *max* working set across launches), this keeps each
/// kernel's own working set, so a sequence that isolates its random traffic
/// into small-working-set kernels models faster than the same traffic lumped
/// together — the reuse-aware comparison behind tree-vs-flat MTTKRP
/// selection (mttkrp/dimtree.hpp).
TimeBreakdown model_sequence(const std::vector<KernelStats>& sequence,
                             const DeviceSpec& spec);

}  // namespace cstf::simgpu
