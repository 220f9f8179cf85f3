// Span recording from outside the library. The AO driver (cstf::Auntf)
// reaches the MTTKRP and UPDATE layers through two interfaces; wrapping
// them lets the benchmark time each call and tag the device work it issues
// with its layer and mode, without any instrumentation inside src/.
//
//  * wall clock: every decorated call appends a child span to a SpanLog;
//    the caller adds the enclosing iteration span on the same clock, and
//    run.py derives self time (iteration minus the children it covers);
//  * modeled clock: each call opens a tracer phase "mttkrp:<mode>" or
//    "update:<mode>" on the device's simgpu::Tracer, so every recorded
//    kernel span carries its layer and mode. account_iteration() then sums
//    the spans per (layer, mode, kernel), scales each sum to full dataset
//    size and models it once, as bench_fig5 (bench::modeled_iteration ->
//    perfmodel::modeled_time_scaled) does per phase and mode: MTTKRP by
//    nnz_scale, factor-sized work by the mode's dim_scale.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/timer.hpp"
#include "cstf/backend.hpp"
#include "perfmodel/admm_model.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/trace.hpp"
#include "tensor/datasets.hpp"
#include "updates/update_method.hpp"

namespace perfbench {

struct Span {
  std::string name;  // "mttkrp" | "update" | "iteration"
  int mode = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Wall-clock spans on one steady clock. Used only from the thread that
/// runs Auntf::iterate(), which issues every layer call.
class SpanLog {
 public:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  void add(std::string name, int mode, double start_s, double end_s) {
    spans_.push_back(Span{std::move(name), mode, start_s, end_s});
  }
  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

  /// Mode of the most recent MTTKRP call: Auntf updates mode n right
  /// after computing its MTTKRP, so the update decorator reads it here.
  int last_mode = 0;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

inline std::string layer_phase(const char* layer, int mode) {
  return std::string(layer) + ":" + std::to_string(mode);
}

class TracedBackend final : public cstf::MttkrpBackend {
 public:
  TracedBackend(const cstf::MttkrpBackend& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  std::string name() const override { return inner_.name(); }
  int num_modes() const override { return inner_.num_modes(); }
  cstf::index_t dim(int mode) const override { return inner_.dim(mode); }
  cstf::index_t nnz() const override { return inner_.nnz(); }
  cstf::real_t norm_sq() const override { return inner_.norm_sq(); }
  cstf::DimTreeEngine* dimtree() const override { return inner_.dimtree(); }

  void mttkrp(cstf::simgpu::Device& dev,
              const std::vector<cstf::Matrix>& factors, int mode,
              cstf::Matrix& out) const override {
    log_.last_mode = mode;
    const double start = log_.now();
    {
      cstf::simgpu::ScopedPhase phase(dev.tracer(), layer_phase("mttkrp", mode));
      inner_.mttkrp(dev, factors, mode, out);
    }
    log_.add("mttkrp", mode, start, log_.now());
  }

 private:
  const cstf::MttkrpBackend& inner_;
  SpanLog& log_;
};

class TracedUpdate final : public cstf::UpdateMethod {
 public:
  TracedUpdate(const cstf::UpdateMethod& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  std::string name() const override { return inner_.name(); }

  void update(cstf::simgpu::Device& dev, const cstf::Matrix& s,
              const cstf::Matrix& m, cstf::Matrix& h,
              cstf::ModeState& state) const override {
    const int mode = log_.last_mode;
    const double start = log_.now();
    {
      cstf::simgpu::ScopedPhase phase(dev.tracer(), layer_phase("update", mode));
      inner_.update(dev, s, m, h, state);
    }
    log_.add("update", mode, start, log_.now());
  }

 private:
  const cstf::UpdateMethod& inner_;
  SpanLog& log_;
};

/// Per-iteration work (run scale, as metered) and modeled seconds (full
/// dataset scale) of the three parts of one AO iteration: MTTKRP, UPDATE
/// and Auntf's own work (Gram, normalize, fit, dimension-tree extends).
struct LayerCounts {
  cstf::simgpu::KernelStats mttkrp, update, cstf;
  double mttkrp_modeled_s = 0.0;
  double update_modeled_s = 0.0;
  double cstf_modeled_s = 0.0;
  /// Kernels whose decorated layer disagrees with the executor phase they
  /// ran under (an MTTKRP kernel outside MTTKRP, an UPDATE kernel outside
  /// UPDATE, or an unclaimed kernel inside UPDATE).
  int misattributed = 0;

  /// The end-to-end modeled iteration, defined as the sum of its parts.
  double modeled_iter_s() const {
    return mttkrp_modeled_s + update_modeled_s + cstf_modeled_s;
  }
};

/// Finds "<layer>:<mode>" in a joined tracer phase path; -1 when absent.
inline int phase_mode(const std::string& path, const std::string& layer) {
  const std::string key = layer + ":";
  const std::size_t at = path.find(key);
  if (at == std::string::npos) return -1;
  return std::stoi(path.substr(at + key.size()));
}

/// True when the outermost phase of a joined path is `name`.
inline bool under_phase(const std::string& path, const char* name) {
  const std::string top = path.substr(0, path.find('/'));
  return top == name;
}

/// Splits one iteration's kernel spans into MTTKRP, UPDATE and Auntf's own
/// work. Auntf's own kernels take the scale of the mode most recently
/// updated before them (mode 0 at the start of the sweep), matching
/// bench_fig5's per-mode phase scaling; dimension-tree kernels are
/// nnz-proportional.
inline LayerCounts account_iteration(
    const std::vector<cstf::simgpu::TraceSpan>& spans,
    const cstf::DatasetAnalog& data, const cstf::simgpu::DeviceSpec& spec) {
  enum Part { kMttkrp, kUpdate, kSelf };
  LayerCounts c;
  std::map<std::tuple<int, int, std::string>, cstf::simgpu::KernelStats> sums;
  int mode = 0;
  for (const cstf::simgpu::TraceSpan& span : spans) {
    Part part = kSelf;
    if (const int m = phase_mode(span.phase, "mttkrp"); m >= 0) {
      part = kMttkrp;
      mode = m;
      if (!under_phase(span.phase, cstf::phase::kMttkrp)) ++c.misattributed;
    } else if (const int u = phase_mode(span.phase, "update"); u >= 0) {
      part = kUpdate;
      mode = u;
      if (!under_phase(span.phase, cstf::phase::kUpdate)) ++c.misattributed;
    } else if (under_phase(span.phase, cstf::phase::kUpdate)) {
      ++c.misattributed;
    }
    sums[{part, mode, span.kernel}] += span.stats;
  }
  for (const auto& [key, stats] : sums) {
    const auto& [part, m, kernel] = key;
    const bool nnz_sized =
        part == kMttkrp || kernel.rfind("dimtree", 0) == 0;
    const double modeled =
        cstf::simgpu::model_time(
            cstf::perfmodel::scale_stats(
                stats, nnz_sized ? data.nnz_scale() : data.dim_scale(m)),
            spec)
            .total_s;
    if (part == kMttkrp) {
      c.mttkrp += stats;
      c.mttkrp_modeled_s += modeled;
    } else if (part == kUpdate) {
      c.update += stats;
      c.update_modeled_s += modeled;
    } else {
      c.cstf += stats;
      c.cstf_modeled_s += modeled;
    }
  }
  return c;
}

}  // namespace perfbench
