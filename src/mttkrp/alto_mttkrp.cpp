#include "mttkrp/alto_mttkrp.hpp"

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"

namespace cstf {

simgpu::KernelStats alto_mttkrp_stats(const AltoTensor& alto,
                                      const std::vector<Matrix>& factors,
                                      int mode) {
  const int modes = alto.num_modes();
  const auto rank = static_cast<double>(factors[0].cols());
  const auto nnz = static_cast<double>(alto.nnz());
  simgpu::KernelStats stats;
  stats.flops = nnz * rank * static_cast<double>(modes + 1);
  stats.bytes_streamed = alto.storage_bytes();
  // Factor-row gathers are random; output accumulation is thread-local in
  // the CPU kernel (ALTO's line partitioning), merged with one streaming
  // pass over the output.
  stats.bytes_random =
      nnz * rank * simgpu::kWord * static_cast<double>(modes - 1);
  stats.bytes_streamed +=
      static_cast<double>(alto.dims()[static_cast<std::size_t>(mode)]) * rank *
      simgpu::kWord;
  double factor_bytes = 0.0;
  for (int m = 0; m < modes; ++m) {
    if (m == mode) continue;
    factor_bytes +=
        static_cast<double>(factors[static_cast<std::size_t>(m)].size()) *
        simgpu::kWord;
  }
  stats.working_set_bytes =
      factor_bytes + static_cast<double>(alto.dims()[static_cast<std::size_t>(
                         mode)]) *
                         rank * simgpu::kWord;
  stats.parallel_items = nnz;
  // Bit-decode plus gather per nonzero: scalar-bound on CPUs.
  stats.compute_efficiency = 0.4;
  return stats;
}

ScatterStrategy mttkrp_alto(const AltoTensor& alto,
                            const std::vector<Matrix>& factors, int mode,
                            Matrix& out, const ScatterOptions& opts,
                            const ScatterPlan* plan) {
  const int modes = alto.num_modes();
  CSTF_CHECK(mode >= 0 && mode < modes);
  CSTF_CHECK(static_cast<int>(factors.size()) == modes);
  const index_t rank = factors[0].cols();
  const index_t mode_len = alto.dims()[static_cast<std::size_t>(mode)];
  CSTF_CHECK(out.rows() == mode_len && out.cols() == rank);

  const ScatterStrategy strategy =
      resolve_scatter_strategy_for_mode(opts, mode, mode_len, rank, alto.nnz());

  ScatterPlan local_plan;
  if (strategy == ScatterStrategy::kSorted && plan == nullptr) {
    local_plan = alto_scatter_plan(alto, mode);
    plan = &local_plan;
  }

  const auto& enc = alto.encoding();
  const auto& lcos = alto.linearized();
  const auto& vals = alto.values();

  scatter_accumulate(
      strategy, out, alto.nnz(),
      [&](index_t i, real_t* row) {
        index_t coords[kMaxModes];
        enc.decode_all(lcos[static_cast<std::size_t>(i)], coords);
        const real_t v = vals[static_cast<std::size_t>(i)];
        for (index_t r = 0; r < rank; ++r) row[static_cast<std::size_t>(r)] = v;
        for (int m = 0; m < modes; ++m) {
          if (m == mode) continue;
          const Matrix& f = factors[static_cast<std::size_t>(m)];
          for (index_t r = 0; r < rank; ++r) {
            row[static_cast<std::size_t>(r)] *= f(coords[m], r);
          }
        }
        return coords[mode];
      },
      plan);
  return strategy;
}

ScatterPlan alto_scatter_plan(const AltoTensor& alto, int mode) {
  CSTF_CHECK(mode >= 0 && mode < alto.num_modes());
  const auto& enc = alto.encoding();
  const auto& lcos = alto.linearized();
  return build_scatter_plan(alto.nnz(), [&](index_t i) {
    index_t coords[kMaxModes];
    enc.decode_all(lcos[static_cast<std::size_t>(i)], coords);
    return coords[mode];
  });
}

}  // namespace cstf
