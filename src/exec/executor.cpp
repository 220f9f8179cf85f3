#include "exec/executor.hpp"

#include "common/timer.hpp"
#include "metrics/registry.hpp"
#include "simgpu/trace.hpp"

namespace cstf::exec {

namespace {

// One exec.op.duration{kind=...} histogram per OpKind, resolved lazily so
// the per-op cost is one relaxed observe(). Indexed by the enum value;
// kGeneric is last.
metrics::Histogram* op_duration_histogram(OpKind kind) {
  static const auto histograms = [] {
    constexpr int kNumKinds = static_cast<int>(OpKind::kGeneric) + 1;
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
  streams_.push_back(simgpu::Stream{});  // lane 0: the default stream
  for (std::size_t l = 1; l < plan_->lanes().size(); ++l) {
    streams_.push_back(dev_.create_stream(plan_->lanes()[l]));
  }
  events_.resize(static_cast<std::size_t>(plan_->graph().num_ops()));
}

void Executor::run(OpObserver* observer) {
  const OpGraph& graph = plan_->graph();
  for (int i = 0; i < graph.num_ops(); ++i) {
    const Op& op = graph.op(i);
    const simgpu::Stream& stream = streams_[static_cast<std::size_t>(op.lane)];

    // Cross-lane deps become event waits; same-lane deps are already
    // satisfied by the stream's in-order semantics.
    for (int d : op.deps) {
      if (graph.op(d).lane != op.lane) {
        dev_.wait_event(stream, events_[static_cast<std::size_t>(d)]);
      }
    }

    if (observer != nullptr) observer->on_op_begin(op, i);
    {
      simgpu::ScopedPhase scope(op.phase.empty() ? nullptr : dev_.tracer(),
                                op.phase);
      Timer op_timer;
      if (op.fixed_s >= 0.0) {
        dev_.record_fixed(op.name, op.fixed_s, stream);
      } else if (op.run) {
        op.run(dev_);  // lane 0, the default stream (Plan's rule)
      }
      // A checkpoint barrier with no body is a pure structural marker.
      op_duration_histogram(op.kind)->observe(op_timer.seconds());
    }
    if (observer != nullptr) observer->on_op_end(op, i);

    if (plan_->needs_event(i)) {
      events_[static_cast<std::size_t>(i)] = dev_.record_event(stream);
    }
  }
}

}  // namespace cstf::exec
