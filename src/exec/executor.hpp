// Executor — runs a compiled Plan on a simgpu::Device.
//
// Runs every op's body in issue order, scopes each
// op's tracer phase, and invokes per-op observer hooks. Tracing, fault
// injection (checked inside Device::record), and phase accounting therefore
// apply to every op by construction — no per-call-site plumbing.
#pragma once

#include <memory>

#include "exec/op_graph.hpp"
#include "simgpu/device.hpp"

namespace cstf::exec {

/// Per-op hooks: `on_op_begin` fires before the op's body, `on_op_end`
/// after it. Observers do caller-specific accounting (phase timers, test
/// assertions); the executor handles tracer phases itself.
class OpObserver {
 public:
  virtual ~OpObserver() = default;
  virtual void on_op_begin(const Op& op, int index) { (void)op; (void)index; }
  virtual void on_op_end(const Op& op, int index) { (void)op; (void)index; }
};

class Executor {
 public:
  /// The device must outlive the executor.
  Executor(simgpu::Device& dev, std::shared_ptr<const Plan> plan);

  /// Runs every op's body in issue order.
  void run(OpObserver* observer = nullptr);

  const Plan& plan() const { return *plan_; }

 private:
  simgpu::Device& dev_;
  std::shared_ptr<const Plan> plan_;
};

}  // namespace cstf::exec
