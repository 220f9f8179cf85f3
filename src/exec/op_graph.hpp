// OpGraph — the execution-graph IR for one compiled iteration.
//
// The AO-ADMM inner loop (and its multi-GPU variant) used to hand-roll its
// stream/event wiring at every call site. This IR makes the iteration
// explicit instead: a DAG of typed ops (MTTKRP, Gram, Hadamard-gram
// assembly, factor update, fit, all-reduce, checkpoint barrier), each
// assigned to a lane (a simgpu stream), with dependency
// edges that the Executor turns into event waits and buffer declarations
// whose first-use/last-use lifetimes feed a peak-memory estimate.
//
// Ops are appended in issue order; an op may only depend on earlier ops, so
// a well-formed graph is topologically sorted by construction and the
// Executor can run it as a single forward pass — which also makes the
// functional execution order (kernels run eagerly on the host) identical to
// the legacy hand-rolled sequence, keeping factors bit-identical.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace cstf::simgpu {
class Device;
class Stream;
}  // namespace cstf::simgpu

namespace cstf::exec {

/// The op vocabulary of the AO iteration and its variants.
enum class OpKind {
  kMttkrp,            // sparse MTTKRP (any backend/engine)
  kDimTreeExtend,     // dimension-tree chain fold (P_{k+1} = P_k ⊙ H_k)
  kGram,              // dsyrk Gram (re)compute of one factor
  kHadamardGram,      // Hadamard-of-Grams assembly (S^(n), Q increments)
  kUpdate,            // constrained factor update (ADMM/MU/HALS/ALS/BPP)
  kNormalize,         // column-norm absorption into lambda
  kFit,               // fit / residual evaluation
  kAllReduce,         // multi-GPU ring all-reduce (fixed-duration)
  kCheckpointBarrier, // iteration boundary; snapshot-consistent point
  kGeneric,           // anything else
};

/// Display name ("mttkrp", "gram", ...).
const char* op_kind_name(OpKind kind);

/// One device-resident buffer the graph's ops read or write. `bytes` is the
/// modeled device footprint; lifetimes are derived from op use lists.
struct BufferDef {
  std::string name;
  double bytes = 0.0;
};

/// First/last op index that touches a buffer (-1 = never used). Buffers used
/// at least once are modeled live over [first_use, last_use].
struct BufferLifetime {
  int first_use = -1;
  int last_use = -1;
};

class Executor;

/// Execution context handed to an op body: the device and the stream the
/// planner assigned to the op's lane. Bodies must issue all metered work
/// through `device` on `stream` so the modeled timeline matches the plan.
struct ExecContext {
  simgpu::Device& device;
  const simgpu::Stream& stream;
  int op_index;
};

/// One node of the graph. `run` issues the op's device work; ops with
/// `fixed_s >= 0` are externally-modeled fixed-duration spans and need no
/// body. `deps` holds indices of earlier ops; cross-lane deps become event
/// edges, same-lane deps are satisfied by stream order.
struct Op {
  OpKind kind = OpKind::kGeneric;
  std::string name;
  std::string phase;             ///< tracer/phase-timer label; may be empty
  int lane = 0;                  ///< index into Plan::lanes (0 = default)
  double fixed_s = -1.0;         ///< >= 0: record_fixed span, no body
  std::vector<int> deps;
  std::vector<int> reads;        ///< buffer ids
  std::vector<int> writes;       ///< buffer ids
  std::function<void(ExecContext&)> run;
};

/// Append-only op/buffer container. Validation happens at append time so a
/// compiled plan is structurally sound by construction.
class OpGraph {
 public:
  /// Declares a buffer; returns its id.
  int add_buffer(std::string name, double bytes);

  /// Appends an op; its deps and buffer ids must reference earlier
  /// ops / declared buffers. Returns the op's index.
  int add_op(Op op);

  int num_ops() const { return static_cast<int>(ops_.size()); }
  int num_buffers() const { return static_cast<int>(buffers_.size()); }
  const Op& op(int i) const { return ops_[static_cast<std::size_t>(i)]; }
  const BufferDef& buffer(int i) const {
    return buffers_[static_cast<std::size_t>(i)];
  }

 private:
  std::vector<Op> ops_;
  std::vector<BufferDef> buffers_;
};

/// A compiled plan: the op graph plus its lane (stream) table and the
/// derived buffer-lifetime / peak-memory analysis. Immutable once built;
/// cached and shared between iterations (see PlanCache).
class Plan {
 public:
  Plan(OpGraph graph, std::vector<std::string> lanes);

  const OpGraph& graph() const { return graph_; }

  /// Lane 0 is always the default stream; others are created by the
  /// Executor as named device streams.
  const std::vector<std::string>& lanes() const { return lanes_; }

  /// Per-buffer [first_use, last_use] op-index ranges.
  const std::vector<BufferLifetime>& lifetimes() const { return lifetimes_; }

  /// Peak modeled device bytes: the maximum, over op indices, of the summed
  /// sizes of buffers live at that op (a buffer is live over its lifetime
  /// range). The OOM-streaming path and `cstf_info --plan` consult this.
  double peak_bytes() const { return peak_bytes_; }

  /// True when `op` has a dependent on another lane (the Executor records
  /// an event after it).
  bool needs_event(int op) const {
    return needs_event_[static_cast<std::size_t>(op)];
  }

  /// Human-readable dump: ops with lane/phase/deps, event edges, buffer
  /// lifetimes, and the peak-memory estimate (`cstf_info --plan`).
  std::string describe() const;

 private:
  OpGraph graph_;
  std::vector<std::string> lanes_;
  std::vector<BufferLifetime> lifetimes_;
  std::vector<bool> needs_event_;
  double peak_bytes_ = 0.0;
};

}  // namespace cstf::exec
