// Wall-clock timing and per-phase accumulation.
//
// The paper reports per-iteration times split into the four cSTF phases
// (GRAM / MTTKRP / UPDATE / NORMALIZE); PhaseTimer is the accumulator those
// breakdowns are built from (Figures 1 and 3).
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace cstf {

/// Simple monotonic wall-clock timer.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  void reset() { start_ = clock::now(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates wall time per named phase across repeated iterations.
class PhaseTimer {
 public:
  void add(const std::string& phase, double seconds) {
    totals_[phase] += seconds;
  }

  double total(const std::string& phase) const {
    auto it = totals_.find(phase);
    return it == totals_.end() ? 0.0 : it->second;
  }

  const std::map<std::string, double>& totals() const { return totals_; }

  void clear() { totals_.clear(); }

 private:
  std::map<std::string, double> totals_;
};

/// The four cSTF phase names used throughout benches and the driver, matching
/// the paper's breakdown figures.
namespace phase {
inline constexpr const char* kGram = "GRAM";
inline constexpr const char* kMttkrp = "MTTKRP";
inline constexpr const char* kUpdate = "UPDATE";
inline constexpr const char* kNormalize = "NORMALIZE";

// Serving-layer phases (src/serve): batched entry/top-k queries and the
// constrained fold-in solves, so serve traffic is separable from
// factorization work in traces and telemetry.
inline constexpr const char* kServeQuery = "SERVE_QUERY";
inline constexpr const char* kServeFoldIn = "SERVE_FOLDIN";

// Host-time sub-phase of UPDATE: the row-tiled cuADMM pass, whose device
// records carry no host wall of their own (src/updates/admm.cpp).
inline constexpr const char* kAdmmRowTiles = "admm_row_tiles";
}  // namespace phase

}  // namespace cstf
