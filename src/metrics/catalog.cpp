#include "metrics/catalog.hpp"

#include <algorithm>

namespace cstf::metrics {

namespace {

// Sorted by name (binary-searched in find_catalog_entry). Keep
// docs/METRICS.md in sync — scripts/check_docs.sh cross-checks the names.
constexpr CatalogEntry kCatalog[] = {
    {"autotune.trials", InstrumentType::kCounter, "",
     "1", "Autotune measurement trials executed."},
    {"autotune.tuning_cache.evictions", InstrumentType::kCounter, "",
     "1", "Entries evicted from the LRU tuning cache."},
    {"autotune.tuning_cache.hits", InstrumentType::kCounter, "",
     "1", "Tuning-cache lookups answered from the cache."},
    {"autotune.tuning_cache.misses", InstrumentType::kCounter, "",
     "1", "Tuning-cache lookups that required a fresh tuning run."},
    {"checkpoint.loads", InstrumentType::kCounter, "result",
     "1", "Checkpoint load attempts by result (ok|error)."},
    {"checkpoint.saves", InstrumentType::kCounter, "result",
     "1", "Checkpoint save attempts by result (ok|error)."},
    {"exec.op.duration", InstrumentType::kHistogram, "kind",
     "seconds", "Executor per-op wall time by op kind."},
    {"exec.plan_cache.hits", InstrumentType::kCounter, "",
     "1", "Execution-plan cache lookups answered from the cache."},
    {"exec.plan_cache.misses", InstrumentType::kCounter, "",
     "1", "Execution-plan cache lookups that rebuilt the plan."},
    {"mttkrp.scatter_cache.hits", InstrumentType::kCounter, "engine",
     "1", "Scatter-plan cache hits by engine (backend|dimtree)."},
    {"mttkrp.scatter_cache.misses", InstrumentType::kCounter, "engine",
     "1", "Scatter-plan cache misses by engine (backend|dimtree)."},
    {"serve.batch.size", InstrumentType::kHistogram, "",
     "1", "Fold-in batch sizes drained by the batcher."},
    {"serve.batcher.queue_depth", InstrumentType::kGauge, "",
     "1", "Fold-in requests currently queued in the batcher."},
    {"serve.fold_in.latency", InstrumentType::kHistogram, "",
     "seconds", "End-to-end fold-in request latency."},
    {"serve.query.latency", InstrumentType::kHistogram, "",
     "seconds", "Query (completion/top-k) latency."},
    {"serve.requests", InstrumentType::kCounter, "outcome",
     "1", "Serve requests by outcome (submitted|served|shed|timed_out|"
          "retried|degraded|failed)."},
    {"simgpu.kernel.atomic_ops", InstrumentType::kCounter, "device",
     "1", "Simulated device atomic operations issued (a count only; the "
          "cost model adds no time for them)."},
    {"simgpu.kernel.bytes", InstrumentType::kCounter, "device",
     "bytes", "Simulated device bytes moved (streamed + reused + random)."},
    {"simgpu.kernel.flops", InstrumentType::kCounter, "device",
     "1", "Simulated device floating-point operations."},
    {"simgpu.kernel.launches", InstrumentType::kCounter, "device",
     "1", "Simulated device kernel launches recorded."},
};

}  // namespace

const CatalogEntry* catalog_entries(std::size_t* count) {
  *count = sizeof(kCatalog) / sizeof(kCatalog[0]);
  return kCatalog;
}

const CatalogEntry* find_catalog_entry(const std::string& name) {
  const CatalogEntry* begin = kCatalog;
  const CatalogEntry* end = kCatalog + sizeof(kCatalog) / sizeof(kCatalog[0]);
  const CatalogEntry* it = std::lower_bound(
      begin, end, name, [](const CatalogEntry& e, const std::string& n) {
        return n.compare(e.name) > 0;
      });
  if (it != end && name == it->name) return it;
  return nullptr;
}

}  // namespace cstf::metrics
