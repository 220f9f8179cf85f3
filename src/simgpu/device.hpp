// Simulated device: a machine spec plus accumulated kernel accounting.
#pragma once

#include <map>
#include <string>

#include "metrics/registry.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/counters.hpp"
#include "simgpu/device_spec.hpp"
#include "simgpu/fault.hpp"
#include "simgpu/stream.hpp"
#include "simgpu/trace.hpp"

namespace cstf::simgpu {

/// One simulated execution target. Kernels run functionally on the host;
/// every launch records its KernelStats here, and modeled_time() converts the
/// accumulated record into execution time on this device's spec.
///
/// A Device is also the unit of comparison: benches run the same algorithm
/// once, recording into an A100 Device, an H100 Device, and a Xeon Device,
/// and report the modeled-time ratios (plus host wall time, which is real).
///
/// Work is issued to streams (see stream.hpp): every record lands on the
/// default stream unless the caller passes an explicit one. modeled_time_s()
/// is always the serial per-kernel sum; modeled_makespan_s() is the
/// timeline's critical-path makespan, for a caller that overlaps streams.
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

  /// Records one launch (or a batch) under `kernel_name` on `stream` (the
  /// default stream unless given). `wall_s` is the measured host execution
  /// time of the launch when the caller timed it (simgpu::launch and the
  /// dblas wrappers do); it feeds the attached tracer's spans and does not
  /// affect the counter totals.
  void record(const std::string& kernel_name, const KernelStats& stats,
              double wall_s = 0.0, Stream stream = {}) {
    if (fault_plan_ != nullptr) {
      // Fault check BEFORE accounting: an injected launch (or host-copy)
      // failure throws FaultError and the launch never lands in the
      // counters/timeline — the caller's retry re-issues it cleanly.
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
    const std::int64_t idx = timeline_.add_span(stream, kernel_name, stats);
    if (tracer_ != nullptr) {
      tracer_->add_span(kernel_name, stats, wall_s,
                        model_time(stats, spec_).total_s, stream.id(), idx,
                        timeline_.span(idx).deps);
    }
  }

  /// Creates a named stream on this device's timeline. Handles stay valid
  /// across reset() (like CUDA streams surviving between iterations). The
  /// name is forwarded to the attached tracer so the chrome export labels
  /// the stream's lane.
  Stream create_stream(const std::string& name) {
    Stream s = timeline_.create_stream(name);
    if (tracer_ != nullptr) tracer_->name_stream(s.id(), name);
    return s;
  }

  /// Captures "everything issued to `stream` so far" as an event.
  Event record_event(Stream stream = {}) const {
    return timeline_.record_event(stream);
  }

  /// Makes the next span issued to `stream` start no earlier than `event`.
  void wait_event(Stream stream, const Event& event) {
    timeline_.wait_event(stream, event);
  }

  const Timeline& timeline() const { return timeline_; }

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
  /// time. Streams do not change it; the makespan is modeled_makespan_s().
  double modeled_time_s() const {
    double t = 0.0;
    for (const auto& [name, stats] : per_kernel_) {
      t += model_time(stats, spec_).total_s;
    }
    return t;
  }

  /// The timeline's critical-path makespan (with shared-bandwidth capping),
  /// every span's extensive quantities scaled by `extensive_scale` (the
  /// stream/overlap analog of perfmodel::modeled_time_scaled).
  double modeled_makespan_s(double extensive_scale = 1.0) const {
    return timeline_.makespan_s(spec_, extensive_scale);
  }

  /// Modeled time of a single named kernel's accumulated record.
  double modeled_kernel_time_s(const std::string& kernel_name) const {
    auto it = per_kernel_.find(kernel_name);
    if (it == per_kernel_.end()) return 0.0;
    return model_time(it->second, spec_).total_s;
  }

  /// Clears counters and timeline spans; created streams and the attached
  /// tracer survive, so handles stay usable across metering windows.
  void reset() {
    per_kernel_.clear();
    total_ = KernelStats{};
    timeline_.reset();
  }

 private:
  DeviceSpec spec_;
  KernelStats total_;
  std::map<std::string, KernelStats> per_kernel_;
  Timeline timeline_;
  Tracer* tracer_ = nullptr;          // not owned; optional
  FaultPlan* fault_plan_ = nullptr;   // not owned; optional
  // Registry-owned, valid for the process lifetime (see ctor).
  metrics::Counter* m_launches_ = nullptr;
  metrics::Counter* m_flops_ = nullptr;
  metrics::Counter* m_bytes_ = nullptr;
};

}  // namespace cstf::simgpu
