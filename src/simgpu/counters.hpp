// Metered quantities for one kernel launch (or an accumulation of launches).
#pragma once

#include <cstdint>

namespace cstf::simgpu {

/// Bytes per floating-point word (the paper's model assumes 8-byte doubles).
inline constexpr double kWord = 8.0;

/// What a kernel did, in machine-independent units. Filled in by the code
/// that launches the kernel (each launcher knows its own traffic exactly —
/// the counts mirror the paper's Section 4.3 read/write accounting).
struct KernelStats {
  /// Floating-point operations executed.
  double flops = 0.0;

  /// Unit-stride global-memory traffic (bytes) with no expected reuse.
  double bytes_streamed = 0.0;

  /// Traffic (bytes) that re-touches a bounded working set; the cost model
  /// discounts it by the fraction of `working_set_bytes` that fits in cache.
  double bytes_reused = 0.0;

  /// Size of the working set the reused traffic touches.
  double working_set_bytes = 0.0;

  /// Random-access (gather/scatter) traffic in bytes; charged at the
  /// device's random-access bandwidth.
  double bytes_random = 0.0;

  /// Bytes staged over the host link (PCIe/NVLink): the out-of-memory
  /// streamed MTTKRP's transfer spans, which carry them alone. The double
  /// buffering of transfers against compute is modeled across spans
  /// (staged_makespan_s), not inside one.
  double host_link_bytes = 0.0;

  /// Length of the longest dependent-operation chain (critical path).
  /// Triangular solves make this O(R) per column; elementwise kernels O(1).
  double serial_depth = 0.0;

  /// Atomic read-modify-write updates issued. A plain count for telemetry:
  /// their bandwidth would already be part of `bytes_random`, and the cost
  /// model adds no term for them. No kernel in this library issues atomics,
  /// so it stays 0; the benchmark reports it (`mttkrp.atomic_ops`).
  double atomic_ops = 0.0;

  /// Number of independent work items available (for the saturation model).
  double parallel_items = 0.0;

  /// Number of kernel launches represented.
  std::int64_t launches = 0;

  /// Fraction of the machine's peak flop rate this kernel's code can reach
  /// when compute-bound (instruction mix: FMA-vectorizable streaming code is
  /// ~1.0; branchy scalar code with dependent chains — e.g. a blocked ADMM's
  /// substitution + prox loops — is ~0.1). Orthogonal to `parallel_items`,
  /// which models width, not per-lane efficiency.
  double compute_efficiency = 1.0;

  KernelStats& operator+=(const KernelStats& o) {
    flops += o.flops;
    bytes_streamed += o.bytes_streamed;
    bytes_reused += o.bytes_reused;
    // Working sets and parallelism do not add across launches; keep the max
    // so an accumulated record is modeled conservatively.
    working_set_bytes = working_set_bytes > o.working_set_bytes
                            ? working_set_bytes
                            : o.working_set_bytes;
    bytes_random += o.bytes_random;
    host_link_bytes += o.host_link_bytes;
    serial_depth += o.serial_depth;
    atomic_ops += o.atomic_ops;
    parallel_items =
        parallel_items > o.parallel_items ? parallel_items : o.parallel_items;
    launches += o.launches;
    // Conservative for accumulated records: the slowest code path bounds.
    compute_efficiency = compute_efficiency < o.compute_efficiency
                             ? compute_efficiency
                             : o.compute_efficiency;
    return *this;
  }

  double total_bytes() const {
    return bytes_streamed + bytes_reused + bytes_random;
  }

  /// Arithmetic intensity in flop/byte over nominal (cache-less) traffic —
  /// comparable to the paper's Eq. 5.
  double arithmetic_intensity() const {
    const double bytes = total_bytes();
    return bytes > 0.0 ? flops / bytes : 0.0;
  }
};

/// Scales all extensive quantities of a metered record by `factor`:
/// flops, every byte counter, the working set, the atomic count and the
/// available parallelism. Launch counts, serial depth and compute efficiency
/// are intensive (per-launch / per-chain) and are left unchanged. Used to map
/// a scaled-analog run to the full-size dataset it stands in for (see
/// DESIGN.md §2).
inline KernelStats scale_stats(const KernelStats& stats, double factor) {
  KernelStats scaled = stats;
  scaled.flops *= factor;
  scaled.bytes_streamed *= factor;
  scaled.bytes_reused *= factor;
  scaled.bytes_random *= factor;
  scaled.host_link_bytes *= factor;
  scaled.working_set_bytes *= factor;
  scaled.atomic_ops *= factor;
  scaled.parallel_items *= factor;
  return scaled;
}

}  // namespace cstf::simgpu
