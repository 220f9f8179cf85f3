#include "serve/query_engine.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "la/blas.hpp"
#include "parallel/parallel_for.hpp"

namespace cstf::serve {

namespace {

void check_coord(const ServableModel& model, int mode, index_t idx) {
  CSTF_CHECK_MSG(idx >= 0 && idx < model.mode_size(mode),
                 "serve query: coordinate " + std::to_string(idx) +
                     " out of range for mode " + std::to_string(mode) +
                     " (size " + std::to_string(model.mode_size(mode)) + ")");
}

}  // namespace

std::vector<real_t> QueryEngine::predict(const ServableModel& model,
                                         const std::vector<index_t>& coords) {
  const int modes = model.num_modes();
  const index_t rank = model.rank();
  CSTF_CHECK_MSG(modes > 0 && coords.size() % static_cast<std::size_t>(modes) ==
                                  0,
                 "serve query: coords length must be a multiple of num_modes");
  const auto batch =
      static_cast<index_t>(coords.size() / static_cast<std::size_t>(modes));
  for (index_t b = 0; b < batch; ++b) {
    for (int m = 0; m < modes; ++m) {
      check_coord(model, m,
                  coords[static_cast<std::size_t>(b) *
                             static_cast<std::size_t>(modes) +
                         static_cast<std::size_t>(m)]);
    }
  }

  std::vector<real_t> out(static_cast<std::size_t>(batch), 0.0);
  if (batch == 0) return out;

  Timer timer;
  {
    std::lock_guard<std::mutex> submit(runtime_.submit_mu);
    simgpu::ScopedPhase scope(runtime_.device.tracer(), phase::kServeQuery);
    const KTensor& kt = model.model();
    Timer kernel_timer;
    // Fused gather + Hadamard-dot: one pass per query, no materialized
    // Khatri-Rao rows.
    parallel_for(runtime_.pool, 0, batch, [&](index_t b) {
      const index_t* c =
          coords.data() + static_cast<std::size_t>(b) *
                              static_cast<std::size_t>(modes);
      real_t value = 0.0;
      for (index_t r = 0; r < rank; ++r) {
        real_t term = kt.lambda[static_cast<std::size_t>(r)];
        for (int m = 0; m < modes; ++m) {
          term *= kt.factors[static_cast<std::size_t>(m)](c[m], r);
        }
        value += term;
      }
      out[static_cast<std::size_t>(b)] = value;
    });

    simgpu::KernelStats stats;
    const double nmodes = static_cast<double>(modes);
    const double nbatch = static_cast<double>(batch);
    const double nrank = static_cast<double>(rank);
    stats.flops = nbatch * nrank * (nmodes + 1.0);
    // Factor-row gathers are strided (column-major factors: one row = R
    // words, each a cache line apart) — random traffic, exactly the access
    // pattern of an MTTKRP gather.
    stats.bytes_random = nbatch * nmodes * nrank * simgpu::kWord;
    stats.bytes_streamed = (nbatch * nmodes + nbatch) * simgpu::kWord;
    stats.bytes_reused = nbatch * nrank * simgpu::kWord;  // lambda
    stats.working_set_bytes = nrank * simgpu::kWord;
    stats.parallel_items = nbatch;
    stats.launches = 1;
    runtime_.device.record("serve_predict_batch", stats,
                           kernel_timer.seconds());
  }
  latency_.record(timer.seconds());
  return out;
}

std::vector<ScoredEntry> QueryEngine::top_k(
    const ServableModel& model, int target_mode,
    const std::vector<index_t>& fixed_coords, int k) {
  const int modes = model.num_modes();
  const index_t rank = model.rank();
  CSTF_CHECK_MSG(target_mode >= 0 && target_mode < modes,
                 "serve top-k: bad target mode");
  CSTF_CHECK_MSG(fixed_coords.size() == static_cast<std::size_t>(modes),
                 "serve top-k: fixed_coords needs one index per mode");
  CSTF_CHECK_MSG(k > 0, "serve top-k: k must be positive");
  for (int m = 0; m < modes; ++m) {
    if (m == target_mode) continue;
    check_coord(model, m, fixed_coords[static_cast<std::size_t>(m)]);
  }

  const KTensor& kt = model.model();
  const Matrix& target = kt.factors[static_cast<std::size_t>(target_mode)];
  const index_t nrows = target.rows();
  std::vector<real_t> scores(static_cast<std::size_t>(nrows), 0.0);

  Timer timer;
  {
    std::lock_guard<std::mutex> submit(runtime_.submit_mu);
    simgpu::ScopedPhase scope(runtime_.device.tracer(), phase::kServeQuery);
    Timer kernel_timer;
    // w_r = lambda_r * prod_{m != target} H_m(i_m, r); scores = H_target * w.
    std::vector<real_t> w(static_cast<std::size_t>(rank));
    for (index_t r = 0; r < rank; ++r) {
      real_t v = kt.lambda[static_cast<std::size_t>(r)];
      for (int m = 0; m < modes; ++m) {
        if (m == target_mode) continue;
        v *= kt.factors[static_cast<std::size_t>(m)](
            fixed_coords[static_cast<std::size_t>(m)], r);
      }
      w[static_cast<std::size_t>(r)] = v;
    }
    parallel_for_blocked(runtime_.pool, 0, nrows,
                         [&](index_t lo, index_t hi) {
                           for (index_t i = lo; i < hi; ++i) {
                             const real_t* row = target.row(i);
                             real_t score = 0.0;
                             for (index_t r = 0; r < rank; ++r) {
                               score += w[static_cast<std::size_t>(r)] * row[r];
                             }
                             scores[static_cast<std::size_t>(i)] = score;
                           }
                         });

    simgpu::KernelStats stats;
    const double ni = static_cast<double>(nrows);
    const double nrank = static_cast<double>(rank);
    stats.flops = 2.0 * ni * nrank +
                  static_cast<double>(modes) * nrank;
    stats.bytes_streamed = (ni * nrank + ni) * simgpu::kWord;
    stats.bytes_random =
        static_cast<double>(modes - 1) * nrank * simgpu::kWord;
    stats.parallel_items = ni;
    stats.launches = 1;
    runtime_.device.record("serve_topk_score", stats, kernel_timer.seconds());
  }

  const auto kk = static_cast<std::size_t>(
      std::min<index_t>(static_cast<index_t>(k), nrows));
  std::vector<ScoredEntry> entries(static_cast<std::size_t>(nrows));
  for (index_t i = 0; i < nrows; ++i) {
    entries[static_cast<std::size_t>(i)] = {i,
                                            scores[static_cast<std::size_t>(
                                                i)]};
  }
  const auto better = [](const ScoredEntry& a, const ScoredEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.index < b.index;
  };
  std::partial_sort(entries.begin(),
                    entries.begin() + static_cast<std::ptrdiff_t>(kk),
                    entries.end(), better);
  entries.resize(kk);
  latency_.record(timer.seconds());
  return entries;
}

}  // namespace cstf::serve
