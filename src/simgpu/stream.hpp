// Stream/event execution layer: CUDA-like asynchrony for the modeled
// timeline.
//
// Kernels still execute eagerly (and serially, per launch) on the host —
// streams change nothing about functional results. What they change is the
// *time model*: every recorded span lands on one stream's ordered lane, and
// Device::modeled_time_s() becomes the critical-path makespan of the
// resulting DAG instead of a flat sum, so a caller can express
// compute/communication overlap and have it modeled faithfully.
//
// Kernel bodies and device BLAS issue on the default stream only (launch.hpp,
// dblas.hpp). A second lane carries fixed spans and staging transfers, and
// three schedules use one: the benches' fixed Gram-vs-MTTKRP pipeline and the
// multi-GPU all-reduce overlap (exec::Planner, fixed spans recorded by the
// Executor), and the out-of-memory MTTKRP's copy-stream staging
// (mttkrp_blco_streamed).
//
// Semantics, mirroring CUDA:
//  * A Stream is an in-order lane: spans issued to the same stream are
//    modeled back-to-back in issue order.
//  * Spans on different streams are modeled concurrently unless ordered by
//    an Event: record_event() marks "everything issued to stream S so far",
//    wait_event(T, e) makes the next span issued to T start no earlier than
//    that mark completes.
//  * The default stream (id 0, a default-constructed handle) preserves the
//    pre-stream serial semantics exactly: a Device that only ever saw
//    default-stream work models time as the legacy per-kernel-aggregate sum,
//    bit for bit.
//
// Overlap cannot beat the hardware: the makespan is clamped from below by
// the shared-resource roofline — the summed memory-system busy time of every
// span and the summed host-link busy time. Two bandwidth-bound spans on two
// streams therefore take the same modeled time as they would back-to-back;
// only launch gaps, compute, serial chains, and link transfers can hide
// behind each other. See DESIGN.md "Streams and the timeline model".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simgpu/cost_model.hpp"
#include "simgpu/counters.hpp"
#include "simgpu/device_spec.hpp"

namespace cstf::simgpu {

/// Lightweight handle naming one in-order lane of a Device's timeline. The
/// default-constructed handle is the default stream (id 0); other streams
/// come from Device::create_stream and stay valid across Device::reset().
class Stream {
 public:
  constexpr Stream() = default;
  constexpr int id() const { return id_; }
  constexpr bool is_default() const { return id_ == 0; }
  friend constexpr bool operator==(Stream a, Stream b) {
    return a.id_ == b.id_;
  }

 private:
  friend class Timeline;
  explicit constexpr Stream(int id) : id_(id) {}
  int id_ = 0;
};

/// A recorded point on one stream: "everything issued to that stream before
/// the record". A default-constructed (never-recorded) Event is complete at
/// t=0, so waiting on it is a no-op — callers can wait unconditionally.
class Event {
 public:
  Event() = default;
  bool recorded() const { return after_span_ >= 0; }

 private:
  friend class Timeline;
  std::int64_t after_span_ = -1;  ///< global index of the span it completes after
};

/// Per-device modeled-work scheduler: an append-only log of spans (one per
/// recorded launch) on named streams, with event edges, and a list scheduler
/// that computes the DAG critical-path makespan under the shared-bandwidth
/// cap. Owned by Device; usable standalone (via a scratch Device) as a
/// pipeline model for externally-timed spans.
class Timeline {
 public:
  struct Span {
    std::string kernel;
    int stream = 0;
    KernelStats stats;     ///< metered work; remodeled under scaling
    double fixed_s = -1.0; ///< >= 0: externally modeled duration (not rescaled)
    std::vector<std::int64_t> deps;  ///< event edges (span indices waited on)
  };

  /// One span's place on the modeled timeline (filled by makespan_s).
  struct Scheduled {
    double start_s = 0.0;
    double end_s = 0.0;
  };

  Timeline() = default;

  /// Creates a named stream; the handle stays valid across reset().
  Stream create_stream(std::string name);
  int num_streams() const { return static_cast<int>(names_.size()); }
  const std::string& stream_name(int id) const {
    return names_[static_cast<std::size_t>(id)];
  }

  /// Appends one metered span to `stream`, consuming that stream's pending
  /// event waits as dependency edges. Returns the span's global index.
  std::int64_t add_span(Stream stream, std::string kernel,
                        const KernelStats& stats);

  /// Appends a span whose modeled duration is supplied directly (e.g. an
  /// interconnect transfer timed by an external model). Fixed spans are not
  /// rescaled by makespan_s and do not contend for device bandwidth.
  std::int64_t add_fixed_span(Stream stream, std::string kernel,
                              double duration_s);

  Event record_event(Stream stream) const;
  void wait_event(Stream stream, const Event& event);

  /// True once any span was issued off the default stream — the trigger for
  /// makespan (rather than legacy-sum) time modeling.
  bool concurrent() const { return concurrent_; }

  std::size_t span_count() const { return spans_.size(); }
  const Span& span(std::int64_t i) const {
    return spans_[static_cast<std::size_t>(i)];
  }

  /// List-schedules the span DAG on `spec` and returns the makespan. Each
  /// span starts at the later of its stream's clock and its dependencies'
  /// completion; metered spans' durations are remodeled after scaling their
  /// extensive quantities by `extensive_scale` (dataset-analog upscaling).
  /// The result is clamped from below by the shared-resource roofline: the
  /// summed memory busy time and summed host-link busy time of all metered
  /// spans. `schedule`, when non-null, receives per-span start/end times
  /// (before clamping).
  double makespan_s(const DeviceSpec& spec, double extensive_scale = 1.0,
                    std::vector<Scheduled>* schedule = nullptr) const;

  /// Drops all spans and pending waits; created streams survive.
  void reset();

 private:
  std::vector<std::string> names_{"default"};
  std::vector<std::int64_t> last_on_stream_{-1};       // per stream
  std::vector<std::vector<std::int64_t>> pending_{{}}; // per stream, waits
  std::vector<Span> spans_;
  bool concurrent_ = false;
};

}  // namespace cstf::simgpu
