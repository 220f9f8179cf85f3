// Tests for the tracing/telemetry subsystem: span recording and phase
// nesting, per-kernel aggregation (which must match the Device's own
// counters exactly), the chrome://tracing and bench-JSON exporters, the JSON
// parser, and CSTF_BENCH_JSON-driven emission from a bench JsonSession.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "simgpu/device.hpp"
#include "simgpu/launch.hpp"
#include "simgpu/trace.hpp"

namespace cstf {
namespace {

using simgpu::Tracer;
namespace json = simgpu::json;

simgpu::KernelStats make_stats(double flops, double bytes, int launches = 1) {
  simgpu::KernelStats s;
  s.flops = flops;
  s.bytes_streamed = bytes;
  s.parallel_items = 64.0;
  s.launches = launches;
  return s;
}

TEST(Tracer, RecordsSpansWithPhasePath) {
  Tracer tracer;
  EXPECT_EQ(tracer.current_phase(), "");
  tracer.add_span("bare", make_stats(1, 8), 0.0, 1e-6);
  {
    simgpu::ScopedPhase outer(&tracer, "UPDATE");
    EXPECT_EQ(tracer.current_phase(), "UPDATE");
    tracer.add_span("k1", make_stats(10, 80), 0.0, 1e-6);
    {
      simgpu::ScopedPhase inner(&tracer, "inner");
      EXPECT_EQ(tracer.current_phase(), "UPDATE/inner");
      EXPECT_EQ(tracer.phase_depth(), 2u);
      tracer.add_span("k2", make_stats(20, 160), 0.0, 1e-6);
    }
    EXPECT_EQ(tracer.current_phase(), "UPDATE");
  }
  EXPECT_EQ(tracer.current_phase(), "");
  EXPECT_EQ(tracer.phase_depth(), 0u);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].kernel, "bare");
  EXPECT_EQ(spans[0].phase, "");
  EXPECT_EQ(spans[1].phase, "UPDATE");
  EXPECT_EQ(spans[2].phase, "UPDATE/inner");
  ASSERT_EQ(tracer.phase_spans().size(), 2u);  // inner closed first
  EXPECT_EQ(tracer.phase_spans()[0].phase, "UPDATE/inner");
}

TEST(Tracer, NullTracerScopedPhaseIsNoOp) {
  simgpu::ScopedPhase p(nullptr, "UPDATE");  // must not crash
}

TEST(Tracer, AggregationMatchesDeviceCountersExactly) {
  // The acceptance bar for --profile: the tracer's per-kernel flops/bytes/
  // launches must equal the Device's own per-kernel counters, bit for bit,
  // because both sum with KernelStats::operator+=.
  simgpu::Device dev(simgpu::a100());
  Tracer tracer;
  dev.set_tracer(&tracer);

  dev.record("a", make_stats(3.5, 24.0));
  dev.record("b", make_stats(100.0, 800.0, 2));
  dev.record("a", make_stats(1.25, 16.0));
  dev.record("a", make_stats(0.5, 8.0));

  const auto agg = tracer.per_kernel();
  ASSERT_EQ(agg.size(), dev.per_kernel().size());
  for (const auto& [name, stats] : dev.per_kernel()) {
    ASSERT_TRUE(agg.count(name)) << name;
    const simgpu::KernelStats& t = agg.at(name).stats;
    EXPECT_EQ(t.flops, stats.flops) << name;
    EXPECT_EQ(t.bytes_streamed, stats.bytes_streamed) << name;
    EXPECT_EQ(t.bytes_reused, stats.bytes_reused) << name;
    EXPECT_EQ(t.bytes_random, stats.bytes_random) << name;
    EXPECT_EQ(t.launches, stats.launches) << name;
    EXPECT_EQ(t.parallel_items, stats.parallel_items) << name;
  }
  EXPECT_EQ(agg.at("a").spans, 3);
  EXPECT_EQ(agg.at("b").spans, 1);

  // Per-span modeled time sums to the per-kernel aggregate and the total.
  double modeled = 0.0;
  for (const auto& s : tracer.spans()) modeled += s.modeled_s;
  EXPECT_DOUBLE_EQ(tracer.total_modeled_s(), modeled);

  // Real kernels through simgpu::launch carry wall time into spans.
  tracer.clear();
  dev.reset();
  simgpu::launch(dev, "busy", simgpu::LaunchConfig{1, 32, 0},
                 make_stats(32, 256), [&](const simgpu::KernelCtx&) {});
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GT(spans[0].wall_s, 0.0);
}

TEST(Tracer, AggregationSurvivesDeviceReset) {
  // Auntf::initialize() resets the device after the tracer is attached; the
  // tracer must keep the whole history so bench JSON kernel rows cover
  // everything the traced run recorded.
  simgpu::Device dev(simgpu::a100());
  Tracer tracer;
  dev.set_tracer(&tracer);
  dev.record("k", make_stats(1, 8));
  dev.reset();
  dev.record("k", make_stats(2, 16));
  EXPECT_EQ(tracer.per_kernel().at("k").stats.flops, 3.0);
  EXPECT_EQ(dev.per_kernel().at("k").flops, 2.0);  // device forgot, by design
}

TEST(Tracer, SummaryTableListsKernels) {
  Tracer tracer;
  tracer.add_span("dominant", make_stats(1e9, 1e8), 0.0, 2.0);
  tracer.add_span("minor", make_stats(1e3, 1e2), 0.0, 0.5);
  const std::string table = tracer.summary_table();
  EXPECT_NE(table.find("dominant"), std::string::npos);
  EXPECT_NE(table.find("minor"), std::string::npos);
  // Sorted by modeled time descending: dominant first.
  EXPECT_LT(table.find("dominant"), table.find("minor"));
}

TEST(Json, ParserRoundTrip) {
  const std::string doc =
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\"y"}, "d": true, "e": null})";
  const json::Value v = json::parse(doc);
  ASSERT_EQ(v.type, json::Value::Type::kObject);
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].num, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].num, -300.0);
  EXPECT_EQ(v.find("b")->find("c")->str, "x\"y");
  EXPECT_TRUE(v.find("d")->boolean);
  EXPECT_EQ(v.find("e")->type, json::Value::Type::kNull);
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "nul",
                          "\"unterminated", "1 2", "{\"a\" 1}", "[1 2]"}) {
    EXPECT_THROW(json::parse(bad), Error) << bad;
    EXPECT_FALSE(json::valid(bad)) << bad;
  }
  EXPECT_TRUE(json::valid("{\"a\": [1, 2]}"));
}

TEST(Json, NumberFormattingRoundTrips) {
  for (double v : {0.0, 1.0, -2.5, 1e-300, 3.141592653589793, 1e17}) {
    const json::Value parsed = json::parse(json::number(v));
    EXPECT_DOUBLE_EQ(parsed.num, v);
  }
  // Non-finite values are not representable; they serialize as 0.
  EXPECT_TRUE(json::valid(json::number(1.0 / 0.0)));
}

TEST(Tracer, ChromeTraceJsonIsValidAndComplete) {
  Tracer tracer;
  {
    simgpu::ScopedPhase p(&tracer, "UPDATE");
    tracer.add_span("k1", make_stats(10, 80), 1e-5, 1e-6);
  }
  tracer.add_span("k2", make_stats(20, 160), 0.0, 2e-6);
  const std::string doc = tracer.chrome_trace_json();
  const json::Value v = json::parse(doc);
  const json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int phases = 0, kernels = 0, lane_names = 0, complete = 0;
  for (const json::Value& e : events->array) {
    if (e.find("ph")->str == "M") {  // lane-name metadata (thread_name)
      EXPECT_EQ(e.find("name")->str, "thread_name");
      ++lane_names;
      continue;
    }
    ASSERT_EQ(e.find("ph")->str, "X");
    ++complete;
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    // Phases on tid 0, kernels on tid 1.
    if (e.find("cat")->str == "phase") {
      ++phases;
      EXPECT_EQ(e.find("tid")->num, 0.0);
    }
    if (e.find("cat")->str == "kernel") {
      ++kernels;
      EXPECT_EQ(e.find("tid")->num, 1.0);
    }
  }
  EXPECT_EQ(complete, 3);  // 2 kernel spans + 1 phase
  EXPECT_EQ(phases, 1);
  EXPECT_EQ(kernels, 2);
  EXPECT_EQ(lane_names, 2);  // the phase lane and the kernel lane
}

TEST(Tracer, ChromeKernelSpanCountMatchesDeviceLaunchTotals) {
  simgpu::Device dev(simgpu::a100());
  Tracer tracer;
  dev.set_tracer(&tracer);
  for (int i = 0; i < 3; ++i) {
    simgpu::launch(dev, "k", simgpu::LaunchConfig{1, 8, 0}, make_stats(1, 8),
                   [](const simgpu::KernelCtx&) {});
  }
  simgpu::launch(dev, "j", simgpu::LaunchConfig{2, 4, 0}, make_stats(2, 16),
                 [](const simgpu::KernelCtx&) {});

  std::int64_t launches = 0;
  for (const auto& [name, stats] : dev.per_kernel()) launches += stats.launches;
  ASSERT_EQ(launches, 4);

  const json::Value v = json::parse(tracer.chrome_trace_json());
  int kernel_events = 0;
  for (const json::Value& e : v.find("traceEvents")->array) {
    if (e.find("ph")->str == "X" && e.find("cat")->str == "kernel") {
      ++kernel_events;
    }
  }
  EXPECT_EQ(kernel_events, launches);  // one slice per recorded launch
}

// --- bench JSON session -----------------------------------------------------

struct EnvGuard {
  EnvGuard(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~EnvGuard() { unsetenv(name_); }
  const char* name_;
};

bench::ModeledIteration tiny_modeled_iteration(bench::ModeledIteration* wall) {
  const DatasetSpec& spec = dataset_by_name("Uber");
  DatasetAnalog data = make_analog(spec, /*target_nnz=*/2000);
  BlcoBackend backend(data.tensor);
  AdmmOptions opt;
  opt.prox = Proximity::non_negative();
  opt.inner_iterations = 3;
  AdmmUpdate update(opt);
  return bench::modeled_iteration(data, backend, update, simgpu::a100(),
                                  /*rank=*/6, wall);
}

TEST(BenchUtil, OverlappedTotalPipelinesGramBehindMttkrp) {
  // Per mode, Gram and MTTKRP both start when the previous normalize ends
  // and the update waits for both:
  //   mode 0: max(0.25, 0.5) + 0.125 + 0.0625           = 0.6875
  //   mode 1: 0.6875 + max(0.75, 0.5) + 0.125 + 0.0625  = 1.625
  //   mode 2: 1.625 + max(0.5, 0.5) + 0.25 + 0.125      = 2.5
  // against a serial 3.75 s. Every time is a dyadic fraction, so both sums
  // are exact.
  const std::vector<bench::ModeledIteration> modes = {
      {0.25, 0.5, 0.125, 0.0625},
      {0.75, 0.5, 0.125, 0.0625},
      {0.5, 0.5, 0.25, 0.125}};
  double serial = 0.0;
  for (const bench::ModeledIteration& m : modes) serial += m.total();
  EXPECT_EQ(serial, 3.75);
  EXPECT_EQ(bench::overlapped_total(modes), 2.5);
  EXPECT_EQ(bench::overlapped_total({}), 0.0);
}

TEST(BenchUtil, ModeledIterationRunsTheTrainersProgram) {
  // A bench record lists exactly the kernels one Auntf iteration issues over
  // the same backend, update, rank and seed, gram_hadamard included, with
  // the same launches, flops and bytes; its per-mode split sums to the
  // iteration it returns.
  unsetenv("CSTF_BENCH_JSON");
  unsetenv("CSTF_BENCH_JSON_DIR");
  const DatasetAnalog data = make_analog(dataset_by_name("Uber"), 2000);
  BlcoBackend backend(data.tensor);
  AdmmOptions opt;
  opt.prox = Proximity::non_negative();
  opt.inner_iterations = 3;
  AdmmUpdate update(opt);
  const index_t rank = 6;

  bench::JsonSession session("trainer_program");
  std::vector<bench::ModeledIteration> per_mode;
  const bench::ModeledIteration total = bench::modeled_iteration(
      data, backend, update, simgpu::a100(), rank, nullptr, &per_mode);
  const json::Value doc = json::parse(session.to_json());
  const json::Value& rows =
      *doc.find("records")->array.at(0).find("kernels");

  simgpu::Device dev(simgpu::a100());
  AuntfOptions options;
  options.rank = rank;
  options.max_iterations = 1;
  options.seed = 7;
  options.compute_fit = false;
  Auntf driver(dev, backend, update, options);
  driver.initialize();
  driver.iterate();
  const std::map<std::string, simgpu::KernelStats>& want = dev.per_kernel();
  ASSERT_TRUE(want.count("gram_hadamard"));
  ASSERT_EQ(rows.array.size(), want.size());
  auto kernel = want.begin();
  for (const json::Value& row : rows.array) {
    SCOPED_TRACE(kernel->first);
    EXPECT_EQ(row.find("name")->str, kernel->first);
    EXPECT_EQ(row.find("launches")->num,
              static_cast<double>(kernel->second.launches));
    EXPECT_EQ(row.find("flops")->num, kernel->second.flops);
    EXPECT_EQ(row.find("bytes")->num, kernel->second.total_bytes());
    ++kernel;
  }

  ASSERT_EQ(per_mode.size(), static_cast<std::size_t>(backend.num_modes()));
  for (const bench::ModeledIteration& m : per_mode) EXPECT_GT(m.update, 0.0);
  using It = bench::ModeledIteration;
  for (double It::*phase : {&It::gram, &It::mttkrp, &It::update,
                            &It::normalize}) {
    double sum = 0.0;
    for (const It& m : per_mode) sum += m.*phase;
    EXPECT_NEAR(sum, total.*phase, 1e-12 * total.*phase);
  }
}

TEST(BenchJson, SessionWritesSchemaValidFileWhenEnabled) {
  EnvGuard enable("CSTF_BENCH_JSON", "1");
  EnvGuard dir("CSTF_BENCH_JSON_DIR", ::testing::TempDir().c_str());
  std::string path;
  bench::ModeledIteration wall;
  bench::ModeledIteration modeled;
  {
    bench::JsonSession session("trace_test");
    EXPECT_TRUE(session.enabled());
    EXPECT_EQ(bench::JsonSession::current(), &session);
    modeled = tiny_modeled_iteration(&wall);
    ASSERT_EQ(session.record_count(), 1u);
    path = session.write();
    ASSERT_FALSE(path.empty());
  }
  EXPECT_EQ(bench::JsonSession::current(), nullptr);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());
  EXPECT_EQ(doc.find("bench")->str, "trace_test");
  const json::Value* records = doc.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->array.size(), 1u);
  const json::Value& rec = records->array[0];
  EXPECT_EQ(rec.find("dataset")->str, "Uber");
  EXPECT_EQ(rec.find("machine")->str, "A100");
  EXPECT_DOUBLE_EQ(rec.find("rank")->num, 6.0);

  // Per-phase modeled seconds must sum to the reported iteration total, and
  // match what modeled_iteration returned to the caller.
  const json::Value* phases = rec.find("phases");
  ASSERT_NE(phases, nullptr);
  double sum = 0.0;
  for (const char* name : {"GRAM", "MTTKRP", "UPDATE", "NORMALIZE"}) {
    const json::Value* p = phases->find(name);
    ASSERT_NE(p, nullptr) << name;
    sum += p->find("modeled_s")->num;
    EXPECT_GE(p->find("wall_s")->num, 0.0);
  }
  EXPECT_NEAR(rec.find("total_modeled_s")->num, sum, 1e-12 + 1e-9 * sum);
  EXPECT_NEAR(rec.find("total_modeled_s")->num, modeled.total(),
              1e-9 * modeled.total());

  // Kernel rows exist and carry positive work.
  const json::Value* kernels = rec.find("kernels");
  ASSERT_NE(kernels, nullptr);
  EXPECT_GT(kernels->array.size(), 0u);
  bool saw_mttkrp_work = false;
  for (const json::Value& row : kernels->array) {
    ASSERT_NE(row.find("name"), nullptr);
    if (row.find("flops")->num > 0) saw_mttkrp_work = true;
  }
  EXPECT_TRUE(saw_mttkrp_work);
  std::remove(path.c_str());
}

TEST(BenchJson, DisabledSessionWritesNothing) {
  // Neither env var set: write() is a no-op returning "".
  unsetenv("CSTF_BENCH_JSON");
  unsetenv("CSTF_BENCH_JSON_DIR");
  bench::JsonSession session("trace_test_disabled");
  EXPECT_FALSE(session.enabled());
  tiny_modeled_iteration(nullptr);
  EXPECT_EQ(session.record_count(), 1u);  // records accumulate regardless
  EXPECT_EQ(session.write(), "");
  std::ifstream probe(session.output_path());
  EXPECT_FALSE(probe.good());
}

TEST(BenchJson, ToJsonAlwaysParses) {
  bench::JsonSession session("empty");
  const json::Value doc = json::parse(session.to_json());
  EXPECT_EQ(doc.find("bench")->str, "empty");
  EXPECT_EQ(doc.find("records")->array.size(), 0u);
}

}  // namespace
}  // namespace cstf
