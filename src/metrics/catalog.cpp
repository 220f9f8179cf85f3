#include "metrics/catalog.hpp"

#include <algorithm>

namespace cstf::metrics {

namespace {

// Sorted by name (binary-searched in find_catalog_entry). Keep
// docs/METRICS.md in sync — scripts/check_docs.sh cross-checks the names.
constexpr CatalogEntry kCatalog[] = {
    {"checkpoint.loads", InstrumentType::kCounter, "result",
     "1", "Checkpoint load attempts by result (ok|error)."},
    {"checkpoint.saves", InstrumentType::kCounter, "result",
     "1", "Checkpoint save attempts by result (ok|error)."},
    {"exec.op.duration", InstrumentType::kHistogram, "kind",
     "seconds", "Trainer per-step wall time by step kind."},
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
