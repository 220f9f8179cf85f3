#include "simgpu/stream.hpp"

#include <algorithm>
#include <utility>

namespace cstf::simgpu {

Stream Timeline::create_stream(std::string name) {
  const int id = static_cast<int>(names_.size());
  names_.push_back(std::move(name));
  last_on_stream_.push_back(-1);
  pending_.emplace_back();
  return Stream(id);
}

std::int64_t Timeline::add_span(Stream stream, std::string kernel,
                                const KernelStats& stats) {
  const auto s = static_cast<std::size_t>(stream.id());
  Span span;
  span.kernel = std::move(kernel);
  span.stream = stream.id();
  span.stats = stats;
  span.deps = std::move(pending_[s]);
  pending_[s].clear();
  spans_.push_back(std::move(span));
  const auto idx = static_cast<std::int64_t>(spans_.size()) - 1;
  last_on_stream_[s] = idx;
  if (!stream.is_default()) concurrent_ = true;
  return idx;
}

std::int64_t Timeline::add_fixed_span(Stream stream, std::string kernel,
                                      double duration_s) {
  const std::int64_t idx = add_span(stream, std::move(kernel), KernelStats{});
  spans_.back().fixed_s = duration_s < 0.0 ? 0.0 : duration_s;
  return idx;
}

Event Timeline::record_event(Stream stream) const {
  Event e;
  e.after_span_ = last_on_stream_[static_cast<std::size_t>(stream.id())];
  return e;
}

void Timeline::wait_event(Stream stream, const Event& event) {
  if (!event.recorded()) return;  // never-recorded events are complete at t=0
  pending_[static_cast<std::size_t>(stream.id())].push_back(event.after_span_);
}

double Timeline::makespan_s(const DeviceSpec& spec, double extensive_scale,
                            std::vector<Scheduled>* schedule) const {
  // List-schedule in issue order: spans are appended in program order, and
  // every dependency (same-stream predecessor or event edge) has a smaller
  // index, so a single forward pass computes each span's start/end exactly.
  std::vector<double> stream_clock(names_.size(), 0.0);
  std::vector<double> end(spans_.size(), 0.0);
  if (schedule) schedule->assign(spans_.size(), Scheduled{});

  double makespan = 0.0;
  double memory_busy_s = 0.0;  // summed memory-system occupancy of all spans
  double link_busy_s = 0.0;    // summed host-link occupancy of all spans
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    double duration;
    if (sp.fixed_s >= 0.0) {
      duration = sp.fixed_s;
    } else {
      const TimeBreakdown t =
          model_time(scale_stats(sp.stats, extensive_scale), spec);
      duration = t.total_s;
      memory_busy_s += t.memory_s;
      link_busy_s += t.link_s;
    }

    double start = stream_clock[static_cast<std::size_t>(sp.stream)];
    for (const std::int64_t dep : sp.deps) {
      start = std::max(start, end[static_cast<std::size_t>(dep)]);
    }
    const double finish = start + duration;
    end[i] = finish;
    stream_clock[static_cast<std::size_t>(sp.stream)] = finish;
    makespan = std::max(makespan, finish);
    if (schedule) {
      (*schedule)[i].start_s = start;
      (*schedule)[i].end_s = finish;
    }
  }

  // Shared-resource roofline: concurrently-modeled spans still share one
  // memory system and one host link, so overlap can never push the makespan
  // below either resource's total busy time.
  return std::max({makespan, memory_busy_s, link_busy_s});
}

void Timeline::reset() {
  spans_.clear();
  concurrent_ = false;
  std::fill(last_on_stream_.begin(), last_on_stream_.end(), -1);
  for (auto& p : pending_) p.clear();
}

}  // namespace cstf::simgpu
