// Tests for the factor-match-score metric and its use as a recovery oracle,
// and for the process metrics registry (src/metrics/): instruments,
// snapshot isolation, quantile derivation, and both exposition formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "cstf/framework.hpp"
#include "cstf/metrics.hpp"
#include "metrics/catalog.hpp"
#include "metrics/exposition.hpp"
#include "metrics/registry.hpp"
#include "serve/serve_stats.hpp"
#include "simgpu/trace.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

KTensor random_ktensor(std::vector<index_t> dims, index_t rank,
                       std::uint64_t seed) {
  Rng rng(seed);
  KTensor kt;
  for (index_t dim : dims) {
    Matrix f(dim, rank);
    f.fill_uniform(rng, 0.1, 1.0);
    kt.factors.push_back(std::move(f));
  }
  kt.lambda.assign(static_cast<std::size_t>(rank), 1.0);
  return kt;
}

TEST(Metrics, SelfMatchIsOne) {
  const KTensor kt = random_ktensor({20, 15, 10}, 4, 1);
  EXPECT_NEAR(factor_match_score(kt, kt), 1.0, 1e-12);
}

TEST(Metrics, PermutedComponentsStillMatch) {
  const KTensor kt = random_ktensor({20, 15, 10}, 4, 2);
  KTensor permuted = kt;
  // Reverse the component order in every factor and lambda.
  for (auto& f : permuted.factors) {
    Matrix reordered(f.rows(), f.cols());
    for (index_t r = 0; r < f.cols(); ++r) {
      for (index_t i = 0; i < f.rows(); ++i) {
        reordered(i, r) = f(i, f.cols() - 1 - r);
      }
    }
    f = std::move(reordered);
  }
  std::reverse(permuted.lambda.begin(), permuted.lambda.end());
  EXPECT_NEAR(factor_match_score(kt, permuted), 1.0, 1e-12);
}

TEST(Metrics, ScaleIndifferenceViaLambdaAbsorption) {
  // Scaling a column and absorbing the scale into lambda leaves the model
  // (and its FMS against the original) unchanged.
  const KTensor kt = random_ktensor({12, 9}, 3, 3);
  KTensor scaled = kt;
  for (index_t i = 0; i < scaled.factors[0].rows(); ++i) {
    scaled.factors[0](i, 1) *= 4.0;
  }
  scaled.lambda[1] /= 4.0;
  EXPECT_NEAR(factor_match_score(kt, scaled), 1.0, 1e-9);
}

TEST(Metrics, UnrelatedModelsScoreLow) {
  const KTensor a = random_ktensor({200, 150, 100}, 6, 4);
  KTensor b = random_ktensor({200, 150, 100}, 6, 5);
  // Different lambdas magnify the penalty too.
  for (auto& l : b.lambda) l = 10.0;
  EXPECT_LT(factor_match_score(a, b), 0.6);
}

TEST(Metrics, CongruenceBounds) {
  const KTensor kt = random_ktensor({30, 20}, 3, 6);
  for (index_t r = 0; r < 3; ++r) {
    for (index_t s = 0; s < 3; ++s) {
      const double c = component_congruence(kt, r, kt, s);
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0 + 1e-12);
    }
  }
  EXPECT_NEAR(component_congruence(kt, 1, kt, 1), 1.0, 1e-12);
}

TEST(Metrics, RecoversPlantedFactorsEndToEnd) {
  // The headline use: factorize a fully observed planted tensor and verify
  // the recovered model matches the planted one component-by-component.
  LowRankTensorParams gen;
  gen.dims = {22, 18, 14};
  gen.rank = 3;
  gen.target_nnz = 22 * 18 * 14;
  gen.noise = 0.005;
  gen.seed = 77;
  const LowRankTensor planted = generate_low_rank(gen);

  FrameworkOptions options;
  options.rank = 3;
  options.max_iterations = 60;
  options.fit_tolerance = 1e-7;
  options.scheme = UpdateScheme::kCuAdmm;
  CstfFramework framework(planted.tensor, options);
  const AuntfResult result = framework.run();
  ASSERT_GT(result.final_fit, 0.95);

  KTensor truth;
  truth.factors = planted.factors;
  truth.lambda.assign(3, 1.0);
  EXPECT_GT(factor_match_score(framework.ktensor(), truth), 0.9);
}

// ---------------------------------------------------------------------------
// Process metrics registry (src/metrics/).

TEST(MetricsRegistry, CounterConcurrentIncrementsSumExactly) {
  // 8 threads x 10k increments of +1 must sum to exactly 80000: integral
  // deltas are exact in a double-valued atomic counter up to 2^53. Run
  // under TSan in scripts/check.sh, this also proves the hot path is
  // race-free.
  metrics::MetricsRegistry reg;
  metrics::Counter* c = reg.counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<double>(kThreads * kPerThread));
}

TEST(MetricsRegistry, CounterIgnoresNonPositiveAndRatchets) {
  metrics::Counter c;
  c.inc(5.0);
  c.inc(-3.0);  // ignored: counters never go down
  c.inc(0.0);   // ignored
  EXPECT_EQ(c.value(), 5.0);
  c.sync_to(12.0);
  EXPECT_EQ(c.value(), 12.0);
  c.sync_to(7.0);  // ratchet: lower cumulative value is a no-op
  EXPECT_EQ(c.value(), 12.0);
  c.sync_to(12.0);  // idempotent re-sync (periodic dumps)
  EXPECT_EQ(c.value(), 12.0);
}

TEST(MetricsRegistry, GaugeMovesBothWays) {
  metrics::Gauge g;
  g.set(4.0);
  g.add(2.0);
  g.add(-5.0);
  EXPECT_EQ(g.value(), 1.0);
}

TEST(MetricsRegistry, HistogramBucketBoundariesHandComputed) {
  // Bounds {1, 2, 4}: le-semantics puts v exactly on a bound into that
  // bound's bucket; above the last bound lands in the overflow bucket.
  metrics::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (le: v <= bound)
  h.observe(1.5);   // bucket 1
  h.observe(2.0);   // bucket 1
  h.observe(3.9);   // bucket 2
  h.observe(4.0);   // bucket 2
  h.observe(4.1);   // overflow
  h.observe(100.0); // overflow
  const std::vector<std::int64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(counts[3], 2);
  EXPECT_EQ(h.count(), 8);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.9 + 4.0 + 4.1 + 100.0);
}

TEST(MetricsRegistry, DefaultBoundsShapes) {
  const std::vector<double> lat = metrics::default_latency_bounds();
  ASSERT_EQ(lat.size(), 24u);
  EXPECT_DOUBLE_EQ(lat.front(), 1e-6);
  for (std::size_t i = 1; i < lat.size(); ++i) {
    EXPECT_DOUBLE_EQ(lat[i], 2.0 * lat[i - 1]);
  }
  const std::vector<double> cnt = metrics::default_count_bounds();
  ASSERT_EQ(cnt.size(), 9u);
  EXPECT_DOUBLE_EQ(cnt.front(), 1.0);
  EXPECT_DOUBLE_EQ(cnt.back(), 256.0);
}

TEST(MetricsRegistry, RegistryReturnsSameInstrumentForSameKey) {
  metrics::MetricsRegistry reg;
  metrics::Counter* a = reg.counter("x.y", {{"k", "v"}});
  metrics::Counter* b = reg.counter("x.y", {{"k", "v"}});
  EXPECT_EQ(a, b);
  metrics::Counter* other_label = reg.counter("x.y", {{"k", "w"}});
  EXPECT_NE(a, other_label);
  EXPECT_EQ(reg.size(), 2u);
  // Same key re-requested as a different type throws.
  EXPECT_THROW(reg.gauge("x.y", {{"k", "v"}}), Error);
}

TEST(MetricsRegistry, SnapshotIsIsolatedFromLaterMutation) {
  metrics::MetricsRegistry reg;
  metrics::Counter* c = reg.counter("iso.counter");
  metrics::Histogram* h = reg.histogram("iso.hist", {}, {1.0, 2.0});
  c->inc(3.0);
  h->observe(0.5);
  const metrics::MetricsSnapshot snap = reg.snapshot();
  c->inc(100.0);
  h->observe(0.5);
  h->observe(1.5);
  ASSERT_EQ(snap.instruments.size(), 2u);
  EXPECT_EQ(snap.instruments[0].name, "iso.counter");
  EXPECT_EQ(snap.instruments[0].value, 3.0);
  EXPECT_EQ(snap.instruments[1].name, "iso.hist");
  EXPECT_EQ(snap.instruments[1].histogram.count, 1);
  EXPECT_EQ(snap.instruments[1].histogram.counts[0], 1);
}

TEST(MetricsRegistry, HistogramQuantileEdges) {
  metrics::HistogramData empty;
  empty.bounds = {1.0, 2.0};
  empty.counts = {0, 0, 0};
  EXPECT_EQ(metrics::histogram_quantile(empty, 0.5), 0.0);

  // One observation in the first bucket: every quantile is that bucket's
  // upper bound.
  metrics::HistogramData one = empty;
  one.counts = {1, 0, 0};
  one.count = 1;
  EXPECT_EQ(metrics::histogram_quantile(one, 0.0), 1.0);
  EXPECT_EQ(metrics::histogram_quantile(one, 0.5), 1.0);
  EXPECT_EQ(metrics::histogram_quantile(one, 1.0), 1.0);

  // Overflow rank returns the last finite bound.
  metrics::HistogramData overflow = empty;
  overflow.counts = {0, 0, 3};
  overflow.count = 3;
  EXPECT_EQ(metrics::histogram_quantile(overflow, 0.99), 2.0);
}

TEST(MetricsRegistry, PrometheusExpositionGolden) {
  metrics::MetricsRegistry reg;
  reg.counter("serve.requests", {{"outcome", "served"}})->inc(42.0);
  reg.gauge("serve.batcher.queue_depth")->set(3.0);
  metrics::Histogram* h = reg.histogram("exec.op.duration",
                                        {{"kind", "mttkrp"}}, {0.5, 1.0});
  h->observe(0.25);
  h->observe(0.75);
  h->observe(2.0);
  const std::string text = metrics::to_prometheus(reg.snapshot());
  // Snapshot order is (name, labels): exec.op.duration, then
  // serve.batcher.queue_depth, then serve.requests.
  const std::string expected =
      "# HELP cstf_exec_op_duration Trainer per-step wall time by step kind.\n"
      "# TYPE cstf_exec_op_duration histogram\n"
      "cstf_exec_op_duration_bucket{kind=\"mttkrp\",le=\"0.5\"} 1\n"
      "cstf_exec_op_duration_bucket{kind=\"mttkrp\",le=\"1\"} 2\n"
      "cstf_exec_op_duration_bucket{kind=\"mttkrp\",le=\"+Inf\"} 3\n"
      "cstf_exec_op_duration_sum{kind=\"mttkrp\"} 3\n"
      "cstf_exec_op_duration_count{kind=\"mttkrp\"} 3\n"
      "# HELP cstf_serve_batcher_queue_depth Fold-in requests currently "
      "queued in the batcher.\n"
      "# TYPE cstf_serve_batcher_queue_depth gauge\n"
      "cstf_serve_batcher_queue_depth 3\n"
      "# HELP cstf_serve_requests Serve requests by outcome (submitted|"
      "served|shed|timed_out|retried|degraded|failed).\n"
      "# TYPE cstf_serve_requests counter\n"
      "cstf_serve_requests{outcome=\"served\"} 42\n";
  EXPECT_EQ(text, expected);
}

TEST(MetricsRegistry, JsonExpositionParsesStrict) {
  metrics::MetricsRegistry reg;
  reg.counter("a.count")->inc(7.0);
  reg.histogram("a.lat", {}, {1.0})->observe(0.5);
  const std::string doc = metrics::to_json(reg.snapshot());
  const simgpu::json::Value parsed = simgpu::json::parse(doc);
  const simgpu::json::Value* list = parsed.find("metrics");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), 2u);
  EXPECT_EQ(list->array[0].find("name")->str, "a.count");
  EXPECT_EQ(list->array[0].find("value")->num, 7.0);
  EXPECT_EQ(list->array[1].find("count")->num, 1.0);
  EXPECT_EQ(list->array[1].find("p50")->num, 1.0);
}

TEST(MetricsRegistry, FlattenMatchesJsonSessionExtrasShape) {
  metrics::MetricsRegistry reg;
  reg.counter("c.one", {{"k", "v"}})->inc(2.0);
  reg.histogram("h.lat", {}, {1.0, 2.0})->observe(1.5);
  const auto extras = metrics::flatten(reg.snapshot());
  ASSERT_EQ(extras.size(), 6u);  // 1 counter + count/sum/p50/p95/p99
  EXPECT_EQ(extras[0].first, "c.one{k=v}");
  EXPECT_EQ(extras[0].second, 2.0);
  EXPECT_EQ(extras[1].first, "h.lat.count");
  EXPECT_EQ(extras[1].second, 1.0);
}

TEST(MetricsRegistry, CatalogCoversEveryRegisteredName) {
  // The global registry has been populated by the library constructors and
  // hot paths other tests in this binary exercised; every name the codebase
  // registers must be cataloged (help text is the contract with
  // cstf_info --metrics and docs/METRICS.md).
  metrics::MetricsRegistry::global().counter("serve.requests",
                                             {{"outcome", "served"}});
  const metrics::MetricsSnapshot snap =
      metrics::MetricsRegistry::global().snapshot();
  EXPECT_FALSE(snap.instruments.empty());
  for (const auto& inst : snap.instruments) {
    const metrics::CatalogEntry* e = metrics::find_catalog_entry(inst.name);
    ASSERT_NE(e, nullptr) << "uncataloged metric: " << inst.name;
    EXPECT_EQ(e->type, inst.type) << inst.name;
    EXPECT_FALSE(inst.help.empty()) << inst.name;
  }
  // And the catalog's sort invariant that find_catalog_entry relies on.
  std::size_t count = 0;
  const metrics::CatalogEntry* entries = metrics::catalog_entries(&count);
  for (std::size_t i = 1; i < count; ++i) {
    EXPECT_LT(std::string(entries[i - 1].name), std::string(entries[i].name));
  }
}

TEST(MetricsRegistry, WriteTextAtomicReplacesFile) {
  const std::string path =
      ::testing::TempDir() + "/cstf_metrics_atomic_test.prom";
  metrics::write_text_atomic(path, "first\n");
  metrics::write_text_atomic(path, "second\n");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second\n");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---------------------------------------------------------------------------
// LatencyRecorder quantile edges + histogram-derived equivalence.

TEST(LatencyRecorder, EmptyRecorderQuantilesAreZero) {
  serve::LatencyRecorder rec;
  EXPECT_EQ(rec.quantile(0.0), 0.0);
  EXPECT_EQ(rec.quantile(0.5), 0.0);
  EXPECT_EQ(rec.quantile(1.0), 0.0);
  const serve::LatencySummary s = rec.summary();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.p50_s, 0.0);
  EXPECT_EQ(s.p95_s, 0.0);
  EXPECT_EQ(s.p99_s, 0.0);
  EXPECT_EQ(s.max_s, 0.0);
}

TEST(LatencyRecorder, SingleSampleIsEveryQuantile) {
  serve::LatencyRecorder rec;
  rec.record(0.125);
  EXPECT_EQ(rec.quantile(0.0), 0.125);
  EXPECT_EQ(rec.quantile(0.5), 0.125);
  EXPECT_EQ(rec.quantile(0.99), 0.125);
  EXPECT_EQ(rec.quantile(1.0), 0.125);
  const serve::LatencySummary s = rec.summary();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.p50_s, 0.125);
  EXPECT_EQ(s.p99_s, 0.125);
  EXPECT_EQ(s.max_s, 0.125);
}

TEST(LatencyRecorder, HistogramDerivedQuantileBoundsExact) {
  // An attached registry histogram sees the same samples; its derived
  // quantile is the upper bound of the bucket holding the exact quantile —
  // so exact <= derived <= 2x exact on the power-of-two latency ladder
  // (for samples within the finite bucket range).
  metrics::MetricsRegistry reg;
  metrics::Histogram* h = reg.histogram("test.lat");
  serve::LatencyRecorder rec;
  rec.attach(h);
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    rec.record(1e-5 * (1.0 + 100.0 * rng.uniform()));
  }
  rec.attach(nullptr);
  const metrics::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.instruments.size(), 1u);
  const metrics::HistogramData& hd = snap.instruments[0].histogram;
  EXPECT_EQ(hd.count, 1000);
  for (double q : {0.5, 0.95, 0.99}) {
    const double exact = rec.quantile(q);
    const double derived = metrics::histogram_quantile(hd, q);
    EXPECT_GE(derived, exact) << "q=" << q;
    EXPECT_LE(derived, 2.0 * exact) << "q=" << q;
  }
}

TEST(ServeStats, ExportReliabilityRatchetsOutcomeCounters) {
  serve::ReliabilitySnapshot s;
  s.submitted = 10;
  s.served = 8;
  s.shed = 1;
  s.retries = 3;
  serve::export_reliability(s);
  auto& reg = metrics::MetricsRegistry::global();
  EXPECT_GE(reg.counter("serve.requests", {{"outcome", "submitted"}})->value(),
            10.0);
  EXPECT_GE(reg.counter("serve.requests", {{"outcome", "retried"}})->value(),
            3.0);
  // Re-export of the same snapshot must not double-count.
  const double before =
      reg.counter("serve.requests", {{"outcome", "shed"}})->value();
  serve::export_reliability(s);
  EXPECT_EQ(reg.counter("serve.requests", {{"outcome", "shed"}})->value(),
            before);
}

}  // namespace
}  // namespace cstf
