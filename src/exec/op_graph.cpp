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
  }
  return "?";
}

int OpGraph::add_buffer(std::string name, double bytes, bool resident) {
  CSTF_CHECK_MSG(bytes >= 0.0, "buffer " << name << ": negative size");
  buffers_.push_back(BufferDef{std::move(name), bytes, resident});
  return static_cast<int>(buffers_.size()) - 1;
}

int OpGraph::add_op(Op op) {
  for (int b : op.reads) {
    CSTF_CHECK_MSG(b >= 0 && b < num_buffers(),
                   "op " << op.name << ": bad read buffer " << b);
  }
  for (int b : op.writes) {
    CSTF_CHECK_MSG(b >= 0 && b < num_buffers(),
                   "op " << op.name << ": bad write buffer " << b);
  }
  CSTF_CHECK_MSG(op.run != nullptr, "op " << op.name << ": needs a body");
  ops_.push_back(std::move(op));
  return static_cast<int>(ops_.size()) - 1;
}

Plan::Plan(OpGraph graph) : graph_(std::move(graph)) {
  const int n = graph_.num_ops();

  // Buffer lifetimes: first/last op index touching each buffer; a resident
  // buffer is live at every op.
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
  for (int b = 0; b < graph_.num_buffers(); ++b) {
    if (graph_.buffer(b).resident && n > 0) {
      lifetimes_[static_cast<std::size_t>(b)] = BufferLifetime{0, n - 1};
    }
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
}

std::string Plan::describe() const {
  std::ostringstream out;
  out << "ops (issue order):\n";
  for (int i = 0; i < graph_.num_ops(); ++i) {
    const Op& op = graph_.op(i);
    char head[64];
    std::snprintf(head, sizeof(head), "%3d %-14s", i, op_kind_name(op.kind));
    out << head << " " << op.name;
    if (!op.phase.empty()) out << " [" << op.phase << "]";
    out << "\n";
  }
  if (graph_.num_buffers() > 0) {
    out << "\nbuffers (first-use..last-use op; * = resident, live at every "
           "op):\n";
    for (int b = 0; b < graph_.num_buffers(); ++b) {
      const BufferDef& def = graph_.buffer(b);
      const BufferLifetime& lt = lifetimes_[static_cast<std::size_t>(b)];
      char row[96];
      std::snprintf(row, sizeof(row), "  %-24s %14.0f B %c %d..%d\n",
                    def.name.c_str(), def.bytes, def.resident ? '*' : ' ',
                    lt.first_use, lt.last_use);
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
