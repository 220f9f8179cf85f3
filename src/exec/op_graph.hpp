// OpGraph — the execution-graph IR for the trainer's AO iteration.
//
// The iteration is one in-order chain of typed ops (MTTKRP, Gram,
// Hadamard-gram assembly, factor update, fit), each with a body that issues
// its kernels in program order, plus buffer declarations whose
// first-use/last-use lifetimes feed a peak-memory estimate: the plan's
// buffer table is the device-footprint model (DESIGN.md §12).
//
// Ops are appended in issue order and the Executor runs them as a single
// forward pass — so the functional execution order (kernels run eagerly on
// the host) is the issue order, keeping factors bit-identical.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace cstf::simgpu {
class Device;
}  // namespace cstf::simgpu

namespace cstf::exec {

/// The op vocabulary of the AO iteration.
enum class OpKind {
  kMttkrp,         // sparse MTTKRP (any backend/engine)
  kDimTreeExtend,  // dimension-tree chain fold (P_{k+1} = P_k ⊙ H_k)
  kGram,           // dsyrk Gram (re)compute of one factor
  kHadamardGram,   // Hadamard-of-Grams assembly (S^(n), Q increments)
  kUpdate,         // constrained factor update (ADMM/MU/HALS/ALS/BPP)
  kNormalize,      // column-norm absorption into lambda
  kFit,            // fit / residual evaluation
};

/// Display name ("mttkrp", "gram", ...).
const char* op_kind_name(OpKind kind);

/// One device-resident buffer the graph's ops read or write. `bytes` is the
/// modeled device footprint. A `resident` buffer carries state across
/// iterations (the tensor, factors, duals, Grams, lambda), so it is live at
/// every op; any other buffer's lifetime is derived from the op use lists.
struct BufferDef {
  std::string name;
  double bytes = 0.0;
  bool resident = false;
};

/// First/last op index that touches a buffer (-1 = never used). Buffers used
/// at least once are modeled live over [first_use, last_use].
struct BufferLifetime {
  int first_use = -1;
  int last_use = -1;
};

/// One node of the graph. `run` issues the op's device work through the
/// device it is handed.
struct Op {
  OpKind kind = OpKind::kMttkrp;
  std::string name;
  std::string phase;             ///< tracer/phase-timer label; may be empty
  std::vector<int> reads;        ///< buffer ids
  std::vector<int> writes;       ///< buffer ids
  std::function<void(simgpu::Device&)> run;
};

/// Append-only op/buffer container. Validation happens at append time so a
/// compiled plan is structurally sound by construction.
class OpGraph {
 public:
  /// Declares a buffer; returns its id.
  int add_buffer(std::string name, double bytes, bool resident = false);

  /// Appends an op; it needs a body, and its buffer ids must reference
  /// declared buffers. Returns the op's index.
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

/// A compiled plan: the op graph plus the derived buffer-lifetime /
/// peak-memory analysis. Immutable once built; cached and shared between
/// iterations (see PlanCache).
class Plan {
 public:
  explicit Plan(OpGraph graph);

  const OpGraph& graph() const { return graph_; }

  /// Per-buffer [first_use, last_use] op-index ranges; a resident buffer
  /// spans every op.
  const std::vector<BufferLifetime>& lifetimes() const { return lifetimes_; }

  /// Peak modeled device bytes: the maximum, over op indices, of the summed
  /// sizes of buffers live at that op (a buffer is live over its lifetime
  /// range). `CstfFramework::device_footprint_bytes()` and
  /// `cstf_info --plan` report this.
  double peak_bytes() const { return peak_bytes_; }

  /// Human-readable dump: ops with phases, buffer lifetimes (resident
  /// buffers marked), and the peak-memory estimate (`cstf_info --plan`).
  std::string describe() const;

 private:
  OpGraph graph_;
  std::vector<BufferLifetime> lifetimes_;
  double peak_bytes_ = 0.0;
};

}  // namespace cstf::exec
