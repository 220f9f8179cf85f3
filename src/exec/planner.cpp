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

  // Resident buffers carry state from one iteration to the next, so they
  // are live at every op: the tensor, and per mode the factor, its ADMM dual
  // (declared for every scheme, so for MU/HALS/ALS/BPP the footprint is an
  // upper bound) and its Gram, plus lambda. No op body touches a dual; it
  // lives inside the update method's per-mode state.
  constexpr bool kResident = true;
  const int tensor_buf = g.add_buffer("tensor", spec.tensor_bytes, kResident);
  std::vector<int> factor_buf, gram_buf;
  for (int n = 0; n < spec.num_modes; ++n) {
    const double rows = static_cast<double>(
        spec.mode_rows[static_cast<std::size_t>(n)]);
    factor_buf.push_back(g.add_buffer("factor_" + std::to_string(n),
                                      rows * r * word(), kResident));
    gram_buf.push_back(g.add_buffer("gram_" + std::to_string(n),
                                    r * r * word(), kResident));
    g.add_buffer("dual_" + std::to_string(n), rows * r * word(), kResident);
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
  const int lambda_buf = g.add_buffer("lambda", r * word(), kResident);
  int fit_m_buf = -1;
  int fit_g_buf = -1;
  if (spec.compute_fit) {
    const double rows_last = static_cast<double>(
        spec.mode_rows[static_cast<std::size_t>(last)]);
    fit_m_buf = g.add_buffer("fit_last_m", rows_last * r * word());
    fit_g_buf = g.add_buffer("fit_gram_unnorm", r * r * word());
  }

  // The iteration is one in-order chain: issue order is the dependency
  // order.
  for (int n = 0; n < spec.num_modes; ++n) {
    Op had;
    had.kind = OpKind::kHadamardGram;
    had.name = "hadamard_" + std::to_string(n);
    had.phase = phase::kGram;
    for (int m = 0; m < spec.num_modes; ++m) {
      if (m != n) had.reads.push_back(gram_buf[static_cast<std::size_t>(m)]);
    }
    had.writes.push_back(s_buf);
    had.run = [body = spec.hadamard, n](simgpu::Device& dev) { body(dev, n); };
    g.add_op(std::move(had));

    Op mk;
    mk.kind = OpKind::kMttkrp;
    mk.name = "mttkrp_" + std::to_string(n);
    mk.phase = phase::kMttkrp;
    mk.reads.push_back(tensor_buf);
    if (spec.use_dimtree && n > 0) {
      // derive(n) gathers the chain plus only the suffix factors; the prefix
      // is already folded into the chain by the extend ops.
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
    g.add_op(std::move(mk));

    Op up;
    up.kind = OpKind::kUpdate;
    up.name = "update_" + std::to_string(n);
    up.phase = phase::kUpdate;
    up.reads = {s_buf, m_buf};
    up.writes = {factor_buf[static_cast<std::size_t>(n)], scratch_buf};
    up.run = [body = spec.update, n](simgpu::Device& dev) { body(dev, n); };
    g.add_op(std::move(up));

    if (n == last && spec.compute_fit) {
      // Snapshot the unnormalized Gram and the final MTTKRP result before
      // normalization rescales H (no phase: the legacy driver metered this
      // outside the four-phase breakdown).
      Op cap;
      cap.kind = OpKind::kFit;
      cap.name = "fit_capture";
      cap.reads = {factor_buf[static_cast<std::size_t>(n)], m_buf};
      cap.writes = {fit_g_buf, fit_m_buf};
      cap.run = spec.fit_capture;
      g.add_op(std::move(cap));
    }

    Op nm;
    nm.kind = OpKind::kNormalize;
    nm.name = "normalize_" + std::to_string(n);
    nm.phase = phase::kNormalize;
    nm.reads = {factor_buf[static_cast<std::size_t>(n)]};
    nm.writes = {factor_buf[static_cast<std::size_t>(n)], lambda_buf};
    nm.run = [body = spec.normalize, n](simgpu::Device& dev) {
      body(dev, n);
    };
    g.add_op(std::move(nm));

    if (spec.use_dimtree && n < last) {
      // Fold the freshly-normalized factor into the chain so derive(n+1)
      // reuses it. MTTKRP phase: the fold is part of the reuse engine's
      // MTTKRP cost, and metering it there keeps the flat-vs-tree phase
      // comparison honest.
      Op ex;
      ex.kind = OpKind::kDimTreeExtend;
      ex.name = "dimtree_extend_" + std::to_string(n);
      ex.phase = phase::kMttkrp;
      ex.reads.push_back(factor_buf[static_cast<std::size_t>(n)]);
      if (n > 0) ex.reads.push_back(chain_buf);  // in-place fold
      ex.writes.push_back(chain_buf);
      ex.run = [body = spec.dimtree_extend, n](simgpu::Device& dev) {
        body(dev, n + 1);
      };
      g.add_op(std::move(ex));
    }

    Op gr;
    gr.kind = OpKind::kGram;
    gr.name = "gram_recompute_" + std::to_string(n);
    gr.phase = phase::kGram;
    gr.reads = {factor_buf[static_cast<std::size_t>(n)]};
    gr.writes = {gram_buf[static_cast<std::size_t>(n)]};
    gr.run = [body = spec.gram_recompute, n](simgpu::Device& dev) {
      body(dev, n);
    };
    g.add_op(std::move(gr));
  }

  if (spec.compute_fit) {
    Op fit;
    fit.kind = OpKind::kFit;
    fit.name = "fit";
    fit.phase = "FIT";
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

  return Plan(std::move(g));
}

void PlanCache::bump_metrics(bool hit) {
  static metrics::Counter* hits =
      metrics::MetricsRegistry::global().counter("exec.plan_cache.hits");
  static metrics::Counter* misses =
      metrics::MetricsRegistry::global().counter("exec.plan_cache.misses");
  (hit ? hits : misses)->inc();
}

}  // namespace cstf::exec
