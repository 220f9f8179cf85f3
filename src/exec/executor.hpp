// Executor — runs a compiled Plan on a simgpu::Device.
//
// The Executor owns the plan's lane-to-stream mapping (named streams are
// created once, at construction, and stay valid across Device::reset() so an
// executor can drive every iteration of a training run), turns cross-lane
// dependency edges into record_event/wait_event pairs, scopes each op's
// tracer phase, and invokes per-op observer hooks. Tracing, fault injection
// (checked inside Device::record), and phase accounting therefore apply to
// every op by construction — no per-call-site plumbing.
#pragma once

#include <memory>
#include <vector>

#include "exec/op_graph.hpp"
#include "simgpu/device.hpp"

namespace cstf::exec {

/// Per-op hooks: `on_op_begin` fires after the op's event waits are issued
/// and before its body; `on_op_end` after the body. Observers do
/// caller-specific accounting (phase timers, checkpoint anchors, test
/// assertions); the executor handles tracer phases itself.
class OpObserver {
 public:
  virtual ~OpObserver() = default;
  virtual void on_op_begin(const Op& op, int index) { (void)op; (void)index; }
  virtual void on_op_end(const Op& op, int index) { (void)op; (void)index; }
};

class Executor {
 public:
  /// Creates the plan's non-default lanes as named streams on `dev`. The
  /// device must outlive the executor.
  Executor(simgpu::Device& dev, std::shared_ptr<const Plan> plan);

  /// Runs every op in issue order: waits on cross-lane dependency events,
  /// executes the body (or records the fixed-duration span) on the op's
  /// lane, and records an event afterwards if a cross-lane dependent needs
  /// it.
  void run(OpObserver* observer = nullptr);

  const Plan& plan() const { return *plan_; }
  simgpu::Device& device() { return dev_; }

  /// The stream backing one lane (lane 0 = the default stream).
  const simgpu::Stream& lane_stream(int lane) const {
    return streams_[static_cast<std::size_t>(lane)];
  }

 private:
  simgpu::Device& dev_;
  std::shared_ptr<const Plan> plan_;
  std::vector<simgpu::Stream> streams_;  // per lane
  std::vector<simgpu::Event> events_;    // per op, re-recorded every run
};

}  // namespace cstf::exec
