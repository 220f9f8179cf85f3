#include "exec/planner.hpp"

#include <algorithm>
#include <string>

#include "common/timer.hpp"
#include "metrics/registry.hpp"

namespace cstf::exec {

namespace {

double word() { return static_cast<double>(sizeof(real_t)); }

index_t max_rows_of(const std::vector<index_t>& rows) {
  index_t out = 0;
  for (index_t r : rows) out = std::max(out, r);
  return out;
}

}  // namespace

Plan Planner::compile_ao_iteration(const AoIterationSpec& spec) {
  CSTF_CHECK_MSG(spec.num_modes >= 1, "AO plan needs at least one mode");
  CSTF_CHECK_MSG(
      static_cast<int>(spec.mode_rows.size()) == spec.num_modes,
      "AO plan: mode_rows has " << spec.mode_rows.size() << " entries for "
                                << spec.num_modes << " modes");
  CSTF_CHECK_MSG(spec.hadamard && spec.mttkrp && spec.update &&
                     spec.normalize && spec.gram_recompute,
                 "AO plan: missing an op body");
  if (spec.compute_fit) {
    CSTF_CHECK_MSG(spec.fit_capture && spec.fit,
                   "AO plan: compute_fit set but fit bodies missing");
  }
  if (spec.use_dimtree) {
    CSTF_CHECK_MSG(spec.dimtree_extend != nullptr,
                   "AO plan: use_dimtree set but no dimtree_extend body");
  }

  OpGraph g;
  const double r = static_cast<double>(spec.rank);
  const double rows_max = static_cast<double>(max_rows_of(spec.mode_rows));
  const int last = spec.num_modes - 1;

  const int tensor_buf = g.add_buffer("tensor", spec.tensor_bytes);
  std::vector<int> factor_buf, gram_buf;
  for (int n = 0; n < spec.num_modes; ++n) {
    const double rows = static_cast<double>(
        spec.mode_rows[static_cast<std::size_t>(n)]);
    factor_buf.push_back(
        g.add_buffer("factor_" + std::to_string(n), rows * r * word()));
    gram_buf.push_back(
        g.add_buffer("gram_" + std::to_string(n), r * r * word()));
    g.add_buffer("dual_" + std::to_string(n), rows * r * word());
  }
  const int s_buf = g.add_buffer("s_hadamard", r * r * word());
  const int m_buf = g.add_buffer("mttkrp_out", rows_max * r * word());
  // The dimension-tree chain intermediate lives alongside the factors for
  // nearly the whole iteration (first write: extend after mode 0; last read:
  // the final derive), so declaring it here makes peak_bytes honest about
  // the reuse engine's footprint.
  const int chain_buf =
      spec.use_dimtree ? g.add_buffer("dimtree_chain", spec.dimtree_chain_bytes)
                       : -1;
  const int scratch_buf =
      g.add_buffer("update_scratch", 2.0 * rows_max * r * word());
  const int lambda_buf = g.add_buffer("lambda", r * word());
  int fit_m_buf = -1;
  int fit_g_buf = -1;
  if (spec.compute_fit) {
    const double rows_last = static_cast<double>(
        spec.mode_rows[static_cast<std::size_t>(last)]);
    fit_m_buf = g.add_buffer("fit_last_m", rows_last * r * word());
    fit_g_buf = g.add_buffer("fit_gram_unnorm", r * r * word());
  }

  // Every op has a body, so every op is on lane 0 (Plan's rule): the
  // iteration is one in-order chain on the default stream.
  int prev_normalize = -1;
  int prev_gram = -1;
  int prev_extend = -1;
  for (int n = 0; n < spec.num_modes; ++n) {
    Op had;
    had.kind = OpKind::kHadamardGram;
    had.name = "hadamard_" + std::to_string(n);
    had.phase = phase::kGram;
    had.lane = 0;
    if (prev_gram >= 0) had.deps.push_back(prev_gram);  // reads G_{n-1}
    for (int m = 0; m < spec.num_modes; ++m) {
      if (m != n) had.reads.push_back(gram_buf[static_cast<std::size_t>(m)]);
    }
    had.writes.push_back(s_buf);
    had.run = [body = spec.hadamard, n](simgpu::Device& dev) { body(dev, n); };
    const int had_op = g.add_op(std::move(had));

    Op mk;
    mk.kind = OpKind::kMttkrp;
    mk.name = "mttkrp_" + std::to_string(n);
    mk.phase = phase::kMttkrp;
    mk.lane = 0;
    if (prev_normalize >= 0) mk.deps.push_back(prev_normalize);
    mk.reads.push_back(tensor_buf);
    if (spec.use_dimtree && n > 0) {
      // derive(n) gathers the chain plus only the suffix factors; the prefix
      // is already folded into the chain by the extend ops.
      if (prev_extend >= 0) mk.deps.push_back(prev_extend);
      mk.reads.push_back(chain_buf);
      for (int m = n + 1; m < spec.num_modes; ++m) {
        mk.reads.push_back(factor_buf[static_cast<std::size_t>(m)]);
      }
    } else {
      for (int m = 0; m < spec.num_modes; ++m) {
        if (m != n) mk.reads.push_back(factor_buf[static_cast<std::size_t>(m)]);
      }
    }
    mk.writes.push_back(m_buf);
    mk.run = [body = spec.mttkrp, n](simgpu::Device& dev) { body(dev, n); };
    const int mk_op = g.add_op(std::move(mk));

    Op up;
    up.kind = OpKind::kUpdate;
    up.name = "update_" + std::to_string(n);
    up.phase = phase::kUpdate;
    up.lane = 0;
    up.deps = {had_op, mk_op};
    up.reads = {s_buf, m_buf};
    up.writes = {factor_buf[static_cast<std::size_t>(n)], scratch_buf};
    up.run = [body = spec.update, n](simgpu::Device& dev) { body(dev, n); };
    int tail = g.add_op(std::move(up));

    if (n == last && spec.compute_fit) {
      // Snapshot the unnormalized Gram and the final MTTKRP result before
      // normalization rescales H (no phase: the legacy driver metered this
      // outside the four-phase breakdown).
      Op cap;
      cap.kind = OpKind::kFit;
      cap.name = "fit_capture";
      cap.lane = 0;
      cap.deps = {tail};
      cap.reads = {factor_buf[static_cast<std::size_t>(n)], m_buf};
      cap.writes = {fit_g_buf, fit_m_buf};
      cap.run = spec.fit_capture;
      tail = g.add_op(std::move(cap));
    }

    Op nm;
    nm.kind = OpKind::kNormalize;
    nm.name = "normalize_" + std::to_string(n);
    nm.phase = phase::kNormalize;
    nm.lane = 0;
    nm.deps = {tail};
    nm.reads = {factor_buf[static_cast<std::size_t>(n)]};
    nm.writes = {factor_buf[static_cast<std::size_t>(n)], lambda_buf};
    nm.run = [body = spec.normalize, n](simgpu::Device& dev) {
      body(dev, n);
    };
    prev_normalize = g.add_op(std::move(nm));

    if (spec.use_dimtree && n < last) {
      // Fold the freshly-normalized factor into the chain so derive(n+1)
      // reuses it. MTTKRP phase: the fold is part of the reuse engine's
      // MTTKRP cost, and metering it there keeps the flat-vs-tree phase
      // comparison honest.
      Op ex;
      ex.kind = OpKind::kDimTreeExtend;
      ex.name = "dimtree_extend_" + std::to_string(n);
      ex.phase = phase::kMttkrp;
      ex.lane = 0;
      ex.deps = {prev_normalize};
      ex.reads.push_back(factor_buf[static_cast<std::size_t>(n)]);
      if (n > 0) ex.reads.push_back(chain_buf);  // in-place fold
      ex.writes.push_back(chain_buf);
      ex.run = [body = spec.dimtree_extend, n](simgpu::Device& dev) {
        body(dev, n + 1);
      };
      prev_extend = g.add_op(std::move(ex));
    }

    Op gr;
    gr.kind = OpKind::kGram;
    gr.name = "gram_recompute_" + std::to_string(n);
    gr.phase = phase::kGram;
    gr.lane = 0;
    gr.deps = {prev_normalize};
    gr.reads = {factor_buf[static_cast<std::size_t>(n)]};
    gr.writes = {gram_buf[static_cast<std::size_t>(n)]};
    gr.run = [body = spec.gram_recompute, n](simgpu::Device& dev) {
      body(dev, n);
    };
    prev_gram = g.add_op(std::move(gr));
  }

  if (spec.compute_fit) {
    Op fit;
    fit.kind = OpKind::kFit;
    fit.name = "fit";
    fit.phase = "FIT";
    fit.lane = 0;
    fit.deps = {prev_gram};  // reads every Gram
    for (int m = 0; m < spec.num_modes; ++m) {
      fit.reads.push_back(gram_buf[static_cast<std::size_t>(m)]);
    }
    fit.reads.push_back(fit_g_buf);
    fit.reads.push_back(fit_m_buf);
    fit.reads.push_back(factor_buf[static_cast<std::size_t>(last)]);
    fit.reads.push_back(lambda_buf);
    fit.run = spec.fit;
    g.add_op(std::move(fit));
  }

  // Snapshot-consistent point: everything the iteration wrote is final here
  // (the chain is in order, so the barrier needs no deps).
  Op bar;
  bar.kind = OpKind::kCheckpointBarrier;
  bar.name = "iteration_barrier";
  bar.lane = 0;
  g.add_op(std::move(bar));

  return Plan(std::move(g), {"default"});
}

Plan Planner::compile_fixed_pipeline(
    const std::vector<FixedModePhases>& modes) {
  CSTF_CHECK_MSG(!modes.empty(), "fixed pipeline plan needs modes");
  OpGraph g;
  int prev_normalize = -1;
  for (std::size_t n = 0; n < modes.size(); ++n) {
    const FixedModePhases& m = modes[n];
    Op gr;
    gr.kind = OpKind::kGram;
    gr.name = "gram";
    gr.lane = 1;
    gr.fixed_s = m.gram_s;
    if (prev_normalize >= 0) gr.deps.push_back(prev_normalize);
    const int gr_op = g.add_op(std::move(gr));

    Op mk;
    mk.kind = OpKind::kMttkrp;
    mk.name = "mttkrp";
    mk.lane = 0;
    mk.fixed_s = m.mttkrp_s;
    if (prev_normalize >= 0) mk.deps.push_back(prev_normalize);
    const int mk_op = g.add_op(std::move(mk));

    Op up;
    up.kind = OpKind::kUpdate;
    up.name = "update";
    up.lane = 0;
    up.fixed_s = m.update_s;
    up.deps = {gr_op, mk_op};
    const int up_op = g.add_op(std::move(up));

    Op nm;
    nm.kind = OpKind::kNormalize;
    nm.name = "normalize";
    nm.lane = 0;
    nm.fixed_s = m.normalize_s;
    nm.deps = {up_op};
    prev_normalize = g.add_op(std::move(nm));
  }
  return Plan(std::move(g), {"default", "gram"});
}

Plan Planner::compile_chunked_allreduce(const ChunkedAllReduceSpec& spec) {
  CSTF_CHECK_MSG(!spec.shard_compute_s.empty(),
                 "chunked all-reduce plan needs shards");
  CSTF_CHECK_MSG(spec.chunks >= 1, "chunked all-reduce plan: chunks < 1");
  const int shards = static_cast<int>(spec.shard_compute_s.size());
  OpGraph g;
  std::vector<std::string> lanes = {"default"};
  for (int d = 0; d < shards; ++d) lanes.push_back("gpu" + std::to_string(d));
  lanes.push_back("allreduce");
  const int comm_lane = shards + 1;

  for (int i = 0; i < spec.chunks; ++i) {
    std::vector<int> chunk_ops;
    chunk_ops.reserve(static_cast<std::size_t>(shards));
    for (int d = 0; d < shards; ++d) {
      Op c;
      c.kind = OpKind::kMttkrp;
      c.name = "mttkrp_chunk";
      c.lane = 1 + d;
      c.fixed_s = spec.shard_compute_s[static_cast<std::size_t>(d)] /
                  static_cast<double>(spec.chunks);
      chunk_ops.push_back(g.add_op(std::move(c)));
    }
    // The ring all-reduce of chunk i starts once every shard retired its
    // chunk i; each dep is cross-lane, so each becomes an event edge.
    Op ar;
    ar.kind = OpKind::kAllReduce;
    ar.name = "allreduce_chunk";
    ar.lane = comm_lane;
    ar.fixed_s = spec.chunk_comm_s;
    ar.deps = std::move(chunk_ops);
    g.add_op(std::move(ar));
  }
  return Plan(std::move(g), std::move(lanes));
}

void PlanCache::bump_metrics(bool hit) {
  static metrics::Counter* hits =
      metrics::MetricsRegistry::global().counter("exec.plan_cache.hits");
  static metrics::Counter* misses =
      metrics::MetricsRegistry::global().counter("exec.plan_cache.misses");
  (hit ? hits : misses)->inc();
}

}  // namespace cstf::exec
