// Kernel-level tracing and telemetry over the simulated device.
//
// A Tracer attaches to a Device (Device::set_tracer) and receives one
// TraceSpan per recorded launch: kernel name, the phase stack open at record
// time, measured host wall time, the roofline-modeled time of that single
// launch on the device's spec, and the full KernelStats. Phases are opened
// with RAII ScopedPhase guards (the AUNTF driver scopes its four cSTF phases
// GRAM/MTTKRP/UPDATE/NORMALIZE); phases nest, and a span is tagged with the
// joined path of every open phase ("UPDATE" or "outer/inner").
//
// Three exporters:
//   * summary_table()      — per-kernel aggregate table sorted by modeled
//                            time (roofline) with wall time alongside;
//   * chrome_trace_json()  — a chrome://tracing "traceEvents" timeline of
//                            every span and phase (load via chrome://tracing
//                            or https://ui.perfetto.dev);
//   * bench JSON           — machine-readable per-bench records; the schema
//                            lives in bench/bench_util.hpp (JsonSession),
//                            built on the json helpers below.
//
// Aggregation uses KernelStats::operator+= — identical to Device's own
// accounting — so a tracer's per-kernel totals match the Device counters
// exactly (tested in tests/test_trace.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "simgpu/counters.hpp"

namespace cstf::simgpu {

/// One recorded kernel launch (or batch of launches recorded together).
struct TraceSpan {
  std::string kernel;
  std::string phase;    ///< joined open-phase path at record time ("" = none)
  double start_s = 0.0; ///< start, seconds since the tracer was constructed
  double wall_s = 0.0;  ///< measured host execution time (0 when untimed)
  double modeled_s = 0.0; ///< roofline time of this span on the device spec
  KernelStats stats;
};

/// One completed phase interval (for the timeline exporter).
struct PhaseSpan {
  std::string phase;    ///< joined path, e.g. "UPDATE"
  double start_s = 0.0;
  double wall_s = 0.0;
};

/// Collects spans from one or more Devices. Thread-safe: launches may be
/// recorded from any thread; phase open/close is expected from the driving
/// thread but is serialized under the same mutex.
class Tracer {
 public:
  /// Per-kernel accumulated record.
  struct Aggregate {
    KernelStats stats;       ///< summed exactly like Device::record
    double wall_s = 0.0;
    double modeled_s = 0.0;  ///< sum of per-span roofline times
    std::int64_t spans = 0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a phase; subsequent spans are tagged with the joined path of all
  /// open phases. Pairs with end_phase (prefer the ScopedPhase guard).
  void begin_phase(const std::string& name);
  void end_phase();

  /// Records one span. Called by Device::record; `modeled_s` is the roofline
  /// time of `stats` alone on the recording device's spec.
  void add_span(const std::string& kernel, const KernelStats& stats,
                double wall_s, double modeled_s);

  /// Copy of every span recorded so far (cheap for test-sized traces).
  std::vector<TraceSpan> spans() const;
  std::vector<PhaseSpan> phase_spans() const;

  /// Joined path of the currently open phases ("" when none).
  std::string current_phase() const;
  std::size_t phase_depth() const;

  /// Per-kernel aggregates (stats summed with KernelStats::operator+=,
  /// matching the Device's own per-kernel accounting).
  std::map<std::string, Aggregate> per_kernel() const;

  /// Sum of per-span modeled seconds over every span.
  double total_modeled_s() const;

  /// Human-readable per-kernel summary, sorted by modeled time descending:
  /// kernel, spans, launches, gflops, gbytes, flop/byte, modeled s, wall s,
  /// and modeled share.
  std::string summary_table() const;

  /// chrome://tracing JSON ({"traceEvents":[...]}): one complete ("X") event
  /// per closed phase on tid 0 and one per span on tid 1 (duration = wall
  /// time, falling back to modeled time for untimed spans).
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

  void clear();

 private:
  std::string joined_phase_locked() const;

  mutable std::mutex mu_;
  Timer epoch_;
  std::vector<std::string> phase_stack_;
  std::vector<double> phase_start_;
  std::vector<TraceSpan> spans_;
  std::vector<PhaseSpan> phase_spans_;
};

/// RAII phase guard; a null tracer makes it a no-op, so callers can scope
/// phases unconditionally (`ScopedPhase p(dev.tracer(), phase::kGram);`).
class ScopedPhase {
 public:
  ScopedPhase(Tracer* tracer, const std::string& name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin_phase(name);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (tracer_ != nullptr) tracer_->end_phase();
  }

 private:
  Tracer* tracer_;
};

/// Minimal JSON support for the exporters and their tests: escaping, number
/// formatting that round-trips doubles, and a validating recursive-descent
/// parser (used by tests and tools/cstf_json_check to reject malformed
/// telemetry output).
namespace json {

/// Escapes a string for embedding in a JSON string literal (no quotes added).
std::string escape(const std::string& s);

/// Formats a double as a JSON number (round-trippable; non-finite values
/// become 0, which JSON cannot represent).
std::string number(double v);

/// Parsed JSON value. Object member order is preserved.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
};

/// Parses `text` as one JSON document; throws cstf::Error on any syntax
/// error (with offset) or trailing garbage.
Value parse(const std::string& text);

/// Non-throwing validity check; fills `error` (when non-null) on failure.
bool valid(const std::string& text, std::string* error = nullptr);

}  // namespace json

}  // namespace cstf::simgpu
