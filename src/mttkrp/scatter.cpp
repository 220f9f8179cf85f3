#include "mttkrp/scatter.hpp"

#include "common/radix_sort.hpp"
#include "metrics/registry.hpp"
#include "parallel/thread_pool.hpp"

namespace cstf {

void ScatterPlanCache::bump_metrics(bool hit) const {
  auto& reg = metrics::MetricsRegistry::global();
  const metrics::Labels labels = {{"engine", engine_}};
  (hit ? reg.counter("mttkrp.scatter_cache.hits", labels)
       : reg.counter("mttkrp.scatter_cache.misses", labels))
      ->inc();
}

const char* scatter_strategy_name(ScatterStrategy strategy) {
  switch (strategy) {
    case ScatterStrategy::kAuto: return "auto";
    case ScatterStrategy::kPrivatized: return "privatized";
    case ScatterStrategy::kSorted: return "sorted";
  }
  return "?";
}

bool parse_scatter_strategy(const std::string& name, ScatterStrategy* out) {
  if (name == "auto") *out = ScatterStrategy::kAuto;
  else if (name == "privatized") *out = ScatterStrategy::kPrivatized;
  else if (name == "sorted") *out = ScatterStrategy::kSorted;
  else return false;
  return true;
}

index_t privatized_tile_count(index_t nnz) {
  const auto workers = static_cast<index_t>(global_thread_count());
  return detail::parallel_chunk_count(nnz, workers, kParallelGrainDefault);
}

bool privatized_fits(index_t mode_len, index_t rank, index_t nnz) {
  const double tile_bytes = static_cast<double>(mode_len) *
                            static_cast<double>(rank) * simgpu::kWord;
  const auto tiles = static_cast<double>(privatized_tile_count(nnz));
  return tiles * tile_bytes <= kPrivatizationBudgetBytes;
}

ScatterStrategy resolve_scatter_strategy(const ScatterOptions& opts,
                                         index_t mode_len, index_t rank,
                                         index_t nnz) {
  if (opts.strategy != ScatterStrategy::kAuto) return opts.strategy;
  return privatized_fits(mode_len, rank, nnz)
             ? ScatterStrategy::kPrivatized
             : ScatterStrategy::kSorted;
}

namespace detail {

ScatterPlan finish_scatter_plan(std::vector<lco_t> keys,
                                std::vector<index_t> order) {
  CSTF_CHECK(keys.size() == order.size());
  radix_sort_pairs(keys, order);
  ScatterPlan plan;
  plan.order = std::move(order);
  const std::size_t n = keys.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || keys[i] != keys[i - 1]) {
      plan.seg_ptr.push_back(static_cast<index_t>(i));
      plan.seg_row.push_back(static_cast<index_t>(keys[i]));
    }
  }
  plan.seg_ptr.push_back(static_cast<index_t>(n));
  return plan;
}

}  // namespace detail

}  // namespace cstf
