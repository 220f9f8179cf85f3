#include "simgpu/cost_model.hpp"

#include <algorithm>

namespace cstf::simgpu {

double cache_miss_fraction(double working_set_bytes, double cache_bytes) {
  // Capacity misses only; compulsory (cold) traffic is charged separately in
  // model_time as one pass over the working set.
  if (working_set_bytes <= 0.0 || working_set_bytes <= cache_bytes) return 0.0;
  return (working_set_bytes - cache_bytes) / working_set_bytes;
}

double parallel_utilization(double parallel_items, double saturation) {
  if (saturation <= 0.0) return 1.0;
  if (parallel_items <= 0.0) return 1.0 / saturation;
  return std::min(1.0, parallel_items / saturation);
}

TimeBreakdown model_time(const KernelStats& stats, const DeviceSpec& spec) {
  TimeBreakdown t;

  const double util =
      parallel_utilization(stats.parallel_items, spec.saturation_parallelism);

  // Compute: throughput-bound at saturation, per-lane-bound below it — a
  // kernel with few independent work items runs each item's op chain at the
  // serial rate, concurrently, rather than at a util-scaled throughput.
  const double throughput_s =
      stats.flops / (spec.peak_flops * stats.compute_efficiency);
  const double per_lane_s =
      stats.parallel_items > 0.0
          ? (stats.flops / stats.parallel_items) / spec.serial_op_rate
          : 0.0;
  t.compute_s = std::max(throughput_s, per_lane_s);

  const double miss =
      cache_miss_fraction(stats.working_set_bytes, spec.cache_bytes);
  const double stream_bw =
      spec.mem_bandwidth * spec.stream_bw_fraction * std::max(util, 0.25);
  const double random_bw =
      spec.mem_bandwidth * spec.random_bw_fraction * std::max(util, 0.25);
  // Reused/random traffic: capacity misses at the corresponding bandwidth,
  // plus the compulsory cold pass over the working set (once).
  auto cached_bytes = [&](double bytes) {
    if (bytes <= 0.0) return 0.0;
    const double cold = std::min(bytes, stats.working_set_bytes);
    return bytes * miss + cold * (1.0 - miss);
  };
  t.memory_s = (stats.bytes_streamed + cached_bytes(stats.bytes_reused)) /
                   stream_bw +
               cached_bytes(stats.bytes_random) / random_bw;

  t.serial_s = stats.serial_depth / spec.serial_op_rate;

  if (stats.host_link_bytes > 0.0 && spec.host_link_bandwidth > 0.0) {
    t.link_s = stats.host_link_bytes / spec.host_link_bandwidth;
  }

  t.launch_s = static_cast<double>(stats.launches) * spec.launch_overhead;

  // Compute, memory, serial chains and host-link staging overlap (roofline
  // max); launch overhead does not. Staging spans carry link bytes alone, so
  // nothing double-buffers inside a span (staged_makespan_s overlaps them).
  t.total_s =
      t.launch_s + std::max({t.compute_s, t.memory_s, t.serial_s, t.link_s});
  return t;
}

TimeBreakdown model_sequence(const std::vector<KernelStats>& sequence,
                             const DeviceSpec& spec) {
  TimeBreakdown sum;
  for (const KernelStats& stats : sequence) {
    const TimeBreakdown t = model_time(stats, spec);
    sum.compute_s += t.compute_s;
    sum.memory_s += t.memory_s;
    sum.serial_s += t.serial_s;
    sum.link_s += t.link_s;
    sum.launch_s += t.launch_s;
    sum.total_s += t.total_s;
  }
  return sum;
}

}  // namespace cstf::simgpu
