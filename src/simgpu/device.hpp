// Simulated device: a machine spec plus accumulated kernel accounting.
#pragma once

#include <map>
#include <string>

#include "metrics/registry.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/counters.hpp"
#include "simgpu/device_spec.hpp"
#include "simgpu/fault.hpp"
#include "simgpu/trace.hpp"

namespace cstf::simgpu {

/// One simulated execution target. Kernels run functionally on the host;
/// every launch records its KernelStats here, and modeled_time_s() converts
/// the accumulated record into execution time on this device's spec.
///
/// A Device is also the unit of comparison: benches run the same algorithm
/// once, recording into an A100 Device, an H100 Device, and a Xeon Device,
/// and report the modeled-time ratios (plus host wall time, which is real).
///
/// A Device keeps per-kernel totals only: modeled_time_s(), the serial sum
/// over kernels, is its one modeled clock. An attached Tracer is the
/// per-launch log; a schedule that overlaps work computes its makespan from
/// its own records (DESIGN.md §7).
class Device {
 public:
  explicit Device(DeviceSpec spec) : spec_(std::move(spec)) {
    // Resolved once here so record() pays only relaxed atomic adds; the
    // registry mirrors are process-cumulative and do NOT reset() with the
    // device's own KernelStats window.
    const metrics::Labels labels = {{"device", spec_.name}};
    auto& reg = metrics::MetricsRegistry::global();
    m_launches_ = reg.counter("simgpu.kernel.launches", labels);
    m_flops_ = reg.counter("simgpu.kernel.flops", labels);
    m_bytes_ = reg.counter("simgpu.kernel.bytes", labels);
  }

  const DeviceSpec& spec() const { return spec_; }

  /// Records one launch (or a batch) under `kernel_name`. `wall_s` is the
  /// measured host execution time of the launch when the caller timed it
  /// (simgpu::launch and the dblas wrappers do); it feeds the attached
  /// tracer's spans and does not affect the counter totals.
  void record(const std::string& kernel_name, const KernelStats& stats,
              double wall_s = 0.0) {
    if (fault_plan_ != nullptr) {
      // Fault check BEFORE accounting: an injected launch (or host-copy)
      // failure throws FaultError and the launch never lands in the
      // counters or the trace — the caller's retry re-issues it cleanly.
      fault_plan_->on_launch(kernel_name);
      if (stats.host_link_bytes > 0.0) {
        fault_plan_->on_host_copy(kernel_name, stats.host_link_bytes);
      }
    }
    per_kernel_[kernel_name] += stats;
    total_ += stats;
    m_launches_->inc(static_cast<double>(stats.launches));
    m_flops_->inc(stats.flops);
    m_bytes_->inc(stats.total_bytes());
    if (tracer_ != nullptr) {
      tracer_->add_span(kernel_name, stats, wall_s,
                        model_time(stats, spec_).total_s);
    }
  }

  /// Attaches (or detaches, with nullptr) a span tracer. The tracer must
  /// outlive the device or be detached first; it is not owned and survives
  /// reset(), so a trace can cover several metering windows.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Attaches (or detaches, with nullptr) a fault-injection plan; every
  /// subsequent record() checks the launch site (and the host-copy site for
  /// spans with host_link_bytes) against it. Not owned; survives reset()
  /// like the tracer.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }
  FaultPlan* fault_plan() const { return fault_plan_; }

  /// Accumulated statistics since the last reset.
  const KernelStats& total() const { return total_; }
  const std::map<std::string, KernelStats>& per_kernel() const {
    return per_kernel_;
  }

  /// Modeled execution time of everything recorded since the last reset:
  /// the serial sum over kernels, each modeled on its own accumulated record
  /// (not one aggregate) so its own working set and parallelism shape its
  /// time.
  double modeled_time_s() const {
    double t = 0.0;
    for (const auto& [name, stats] : per_kernel_) {
      t += model_time(stats, spec_).total_s;
    }
    return t;
  }

  /// Modeled time of a single named kernel's accumulated record.
  double modeled_kernel_time_s(const std::string& kernel_name) const {
    auto it = per_kernel_.find(kernel_name);
    if (it == per_kernel_.end()) return 0.0;
    return model_time(it->second, spec_).total_s;
  }

  /// Clears the counters; the attached tracer and fault plan survive.
  void reset() {
    per_kernel_.clear();
    total_ = KernelStats{};
  }

 private:
  DeviceSpec spec_;
  KernelStats total_;
  std::map<std::string, KernelStats> per_kernel_;
  Tracer* tracer_ = nullptr;          // not owned; optional
  FaultPlan* fault_plan_ = nullptr;   // not owned; optional
  // Registry-owned, valid for the process lifetime (see ctor).
  metrics::Counter* m_launches_ = nullptr;
  metrics::Counter* m_flops_ = nullptr;
  metrics::Counter* m_bytes_ = nullptr;
};

}  // namespace cstf::simgpu
