#include "perfmodel/admm_model.hpp"

#include <algorithm>

#include "simgpu/cost_model.hpp"

namespace cstf::perfmodel {

AdmmIterationModel admm_iteration_model(double i_len, double rank) {
  AdmmIterationModel m;
  m.flops = 19.0 * i_len * rank + 2.0 * i_len * rank * rank;  // Eq. 3
  m.words = 22.0 * i_len * rank + rank * rank;                // Eq. 4
  m.intensity = m.flops / (m.words * simgpu::kWord);          // Eq. 5
  return m;
}

double admm_iteration_time(double i_len, double rank,
                           const simgpu::DeviceSpec& spec) {
  const AdmmIterationModel m = admm_iteration_model(i_len, rank);
  const double t_mem =
      m.words * simgpu::kWord / (spec.mem_bandwidth * spec.stream_bw_fraction);
  const double t_flops = m.flops / spec.peak_flops;
  return std::max(t_mem, t_flops);
}

double modeled_sequence_scaled(const std::vector<simgpu::KernelStats>& seq,
                               double factor,
                               const simgpu::DeviceSpec& spec) {
  std::vector<simgpu::KernelStats> scaled;
  scaled.reserve(seq.size());
  for (const auto& stats : seq) scaled.push_back(scale_stats(stats, factor));
  return simgpu::model_sequence(scaled, spec).total_s;
}

double modeled_time_scaled(const simgpu::Device& dev, double factor) {
  double total = 0.0;
  for (const auto& [name, stats] : dev.per_kernel()) {
    total += simgpu::model_time(scale_stats(stats, factor), dev.spec()).total_s;
  }
  return total;
}

}  // namespace cstf::perfmodel
