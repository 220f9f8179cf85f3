#include "exec/executor.hpp"

#include <vector>

#include "common/timer.hpp"
#include "metrics/registry.hpp"
#include "simgpu/trace.hpp"

namespace cstf::exec {

namespace {

// One exec.op.duration{kind=...} histogram per OpKind, resolved lazily so
// the per-op cost is one relaxed observe(). Indexed by the enum value;
// kFit is last.
metrics::Histogram* op_duration_histogram(OpKind kind) {
  static const auto histograms = [] {
    constexpr int kNumKinds = static_cast<int>(OpKind::kFit) + 1;
    std::vector<metrics::Histogram*> h(kNumKinds);
    for (int k = 0; k < kNumKinds; ++k) {
      h[static_cast<std::size_t>(k)] =
          metrics::MetricsRegistry::global().histogram(
              "exec.op.duration",
              {{"kind", op_kind_name(static_cast<OpKind>(k))}});
    }
    return h;
  }();
  return histograms[static_cast<std::size_t>(kind)];
}

}  // namespace

Executor::Executor(simgpu::Device& dev, std::shared_ptr<const Plan> plan)
    : dev_(dev), plan_(std::move(plan)) {
  CSTF_CHECK(plan_ != nullptr);
}

void Executor::run(OpObserver* observer) {
  const OpGraph& graph = plan_->graph();
  for (int i = 0; i < graph.num_ops(); ++i) {
    const Op& op = graph.op(i);
    if (observer != nullptr) observer->on_op_begin(op, i);
    {
      simgpu::ScopedPhase scope(op.phase.empty() ? nullptr : dev_.tracer(),
                                op.phase);
      Timer op_timer;
      op.run(dev_);
      op_duration_histogram(op.kind)->observe(op_timer.seconds());
    }
    if (observer != nullptr) observer->on_op_end(op, i);
  }
}

}  // namespace cstf::exec
