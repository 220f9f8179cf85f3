#include "exec/op_graph.hpp"

#include <algorithm>
#include <sstream>

namespace cstf::exec {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kMttkrp: return "mttkrp";
    case OpKind::kDimTreeExtend: return "dimtree-extend";
    case OpKind::kGram: return "gram";
    case OpKind::kHadamardGram: return "hadamard";
    case OpKind::kUpdate: return "update";
    case OpKind::kNormalize: return "normalize";
    case OpKind::kFit: return "fit";
    case OpKind::kAllReduce: return "allreduce";
    case OpKind::kCheckpointBarrier: return "ckpt-barrier";
    case OpKind::kGeneric: return "generic";
  }
  return "?";
}

int OpGraph::add_buffer(std::string name, double bytes) {
  CSTF_CHECK_MSG(bytes >= 0.0, "buffer " << name << ": negative size");
  buffers_.push_back(BufferDef{std::move(name), bytes});
  return static_cast<int>(buffers_.size()) - 1;
}

int OpGraph::add_op(Op op) {
  const int index = static_cast<int>(ops_.size());
  for (int d : op.deps) {
    CSTF_CHECK_MSG(d >= 0 && d < index,
                   "op " << op.name << ": dep " << d
                         << " does not precede op " << index);
  }
  for (int b : op.reads) {
    CSTF_CHECK_MSG(b >= 0 && b < num_buffers(),
                   "op " << op.name << ": bad read buffer " << b);
  }
  for (int b : op.writes) {
    CSTF_CHECK_MSG(b >= 0 && b < num_buffers(),
                   "op " << op.name << ": bad write buffer " << b);
  }
  CSTF_CHECK_MSG(op.fixed_s >= 0.0 || op.run != nullptr ||
                     op.kind == OpKind::kCheckpointBarrier,
                 "op " << op.name << ": needs a body or a fixed duration");
  ops_.push_back(std::move(op));
  return index;
}

Plan::Plan(OpGraph graph, std::vector<std::string> lanes)
    : graph_(std::move(graph)), lanes_(std::move(lanes)) {
  CSTF_CHECK_MSG(!lanes_.empty() && lanes_[0] == "default",
                 "plan lane 0 must be the default stream");
  const int n = graph_.num_ops();
  for (int i = 0; i < n; ++i) {
    const Op& op = graph_.op(i);
    CSTF_CHECK_MSG(op.lane >= 0 &&
                       op.lane < static_cast<int>(lanes_.size()),
                   "op " << op.name << ": lane " << op.lane
                         << " not in the plan's lane table");
  }

  // Buffer lifetimes: first/last op index touching each buffer.
  lifetimes_.assign(static_cast<std::size_t>(graph_.num_buffers()),
                    BufferLifetime{});
  const auto touch = [&](int buffer, int op) {
    BufferLifetime& lt = lifetimes_[static_cast<std::size_t>(buffer)];
    if (lt.first_use < 0) lt.first_use = op;
    lt.last_use = std::max(lt.last_use, op);
  };
  for (int i = 0; i < n; ++i) {
    for (int b : graph_.op(i).reads) touch(b, i);
    for (int b : graph_.op(i).writes) touch(b, i);
  }

  // Peak memory: sweep op indices, summing live buffers.
  for (int i = 0; i < n; ++i) {
    double live = 0.0;
    for (int b = 0; b < graph_.num_buffers(); ++b) {
      const BufferLifetime& lt = lifetimes_[static_cast<std::size_t>(b)];
      if (lt.first_use >= 0 && lt.first_use <= i && i <= lt.last_use) {
        live += graph_.buffer(b).bytes;
      }
    }
    peak_bytes_ = std::max(peak_bytes_, live);
  }

  // An event is recorded after an op only if some later op on another lane
  // depends on it — exactly the edges the hand-rolled choreographies wired.
  needs_event_.assign(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    for (int d : graph_.op(i).deps) {
      if (graph_.op(d).lane != graph_.op(i).lane) {
        needs_event_[static_cast<std::size_t>(d)] = true;
      }
    }
  }
}

std::string Plan::describe() const {
  std::ostringstream out;
  out << "lanes:";
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    out << " [" << l << "] " << lanes_[l];
  }
  out << "\n\n";
  out << "ops (issue order; * = event recorded after the op):\n";
  for (int i = 0; i < graph_.num_ops(); ++i) {
    const Op& op = graph_.op(i);
    char head[64];
    std::snprintf(head, sizeof(head), "%3d%c %-12s lane=%d", i,
                  needs_event(i) ? '*' : ' ', op_kind_name(op.kind), op.lane);
    out << head << " " << op.name;
    if (!op.phase.empty()) out << " [" << op.phase << "]";
    if (op.fixed_s >= 0.0) out << " fixed=" << op.fixed_s << "s";
    if (!op.deps.empty()) {
      out << " deps={";
      for (std::size_t d = 0; d < op.deps.size(); ++d) {
        if (d > 0) out << ",";
        out << op.deps[d];
        if (graph_.op(op.deps[d]).lane != op.lane) out << "(event)";
      }
      out << "}";
    }
    out << "\n";
  }
  if (graph_.num_buffers() > 0) {
    out << "\nbuffers (first-use..last-use op):\n";
    for (int b = 0; b < graph_.num_buffers(); ++b) {
      const BufferDef& def = graph_.buffer(b);
      const BufferLifetime& lt = lifetimes_[static_cast<std::size_t>(b)];
      char row[96];
      std::snprintf(row, sizeof(row), "  %-24s %14.0f B   %d..%d\n",
                    def.name.c_str(), def.bytes, lt.first_use, lt.last_use);
      out << row;
    }
    char peak[64];
    std::snprintf(peak, sizeof(peak), "peak modeled device bytes: %.0f\n",
                  peak_bytes_);
    out << peak;
  }
  return out.str();
}

}  // namespace cstf::exec
