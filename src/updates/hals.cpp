#include "updates/hals.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "simgpu/launch.hpp"

namespace cstf {

void HalsUpdate::update(simgpu::Device& dev, const Matrix& s, const Matrix& m,
                        Matrix& h, ModeState& /*state*/) const {
  const index_t rank = h.cols();
  CSTF_CHECK(s.rows() == rank && s.cols() == rank);
  CSTF_CHECK(m.same_shape(h));
  const index_t rows = h.rows();
  const real_t eps = options_.epsilon;

  for (int iter = 0; iter < options_.inner_iterations; ++iter) {
    for (index_t r = 0; r < rank; ++r) {
      const real_t srr = std::max(s(r, r), real_t{1e-12});
      // One fused kernel per column: the row-local dot product H(i,:)*S(:,r)
      // and the clamped update, in a single pass over H.
      simgpu::KernelStats stats;
      stats.flops = static_cast<double>(rows) * (2.0 * static_cast<double>(rank) + 3.0);
      // Reads the full H (for the dot) + M column; writes the H column.
      stats.bytes_reused =
          static_cast<double>(rows * rank) * simgpu::kWord;  // H re-read per column
      stats.working_set_bytes = static_cast<double>(h.size()) * simgpu::kWord;
      stats.bytes_streamed = 2.0 * static_cast<double>(rows) * simgpu::kWord;
      stats.parallel_items = static_cast<double>(rows);
      std::vector<real_t> sr(static_cast<std::size_t>(rank));  // S(:, r)
      for (index_t k = 0; k < rank; ++k) sr[static_cast<std::size_t>(k)] = s(k, r);
      simgpu::launch(
          dev, "hals_column",
          simgpu::LaunchConfig{.grid_dim = simgpu::blocks_for(rows, 256, 2048),
                               .block_dim = 256},
          stats, [&](const simgpu::KernelCtx& ctx) {
            for (index_t i = ctx.global_thread_id(); i < rows;
                 i += ctx.total_threads()) {
              real_t* hi = h.data() + i * rank;
              real_t dot = 0.0;
              for (index_t k = 0; k < rank; ++k) {
                dot += hi[k] * sr[static_cast<std::size_t>(k)];
              }
              hi[r] = std::max(eps, hi[r] + (m(i, r) - dot) / srr);
            }
          });
    }
  }
}

}  // namespace cstf
