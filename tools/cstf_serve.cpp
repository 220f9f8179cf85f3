// cstf_serve — model serving: load a factorized model, answer batched
// queries, and admit unseen slices by constrained fold-in.
//
//   cstf_serve --model model.cstf [options]
//   cstf_serve --dataset Uber [--rank N] [--iters N] [--save PATH] [options]
//
// With --dataset the tool factorizes the synthetic analog, saves the model
// through the .cstf serializer, and then serves from the *loaded* copy — one
// command exercises the full save/load round trip.
//
// Serving options:
//   --requests N     total client requests in the open-loop workload (200)
//   --clients T      concurrent client threads (4)
//   --query-frac F   fraction of requests that are queries; the rest are
//                    fold-ins (0.5)
//   --topk K         every 4th query is a top-k scoring of this size (5)
//   --batch B        fold-in batcher max batch size, >= 1 (64)
//   --linger S       batcher linger window in seconds (0.002)
//   --per-request    disable Gram caching AND batching: every fold-in
//                    re-factorizes S + rho*I alone (the baseline mode)
//   --device D       a100 | h100 | xeon cost-model target (a100)
//   --seed N         workload (and --dataset factorization) seed (42)
//   --trace FILE     chrome://tracing timeline of the serving kernels
//   --json FILE      machine-readable latency/batch telemetry
//   --metrics-out F  Prometheus text exposition of the process metrics
//                    registry, dumped periodically during the workload and
//                    once at the end (atomic tmp+rename each time)
//
// Reliability options (chaos testing, see DESIGN.md §11):
//   --fault-plan S   inject faults into the serving device, e.g.
//                    "launch:p=0.01,seed=7" (defaults to $CSTF_FAULT_PLAN)
//   --retries N      transient-fault retries per query / fused fold-in,
//                    at most 2147483647 (10)
//   --backoff S      base retry backoff, doubled per attempt up to 2^16x
//                    (0.0002)
//   --deadline S     per-request fold-in deadline; 0 = none (0)
//   --max-queue N    fold-in admission-queue bound; beyond it requests are
//                    shed, not queued (1024)
//
// Output: model provenance, query and fold-in latency summaries
// (p50/p95/p99), the realized batch-size histogram, the worst fold-in ADMM
// residual, reliability counters (shed/timeout/retry/degraded), and the
// modeled device time of the whole workload. Shed and timed-out requests
// are load-management outcomes, not failures; the exit code is nonzero only
// for unhandled errors.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cstf/framework.hpp"
#include "metrics/exposition.hpp"
#include "metrics/registry.hpp"
#include "serve/fold_in.hpp"
#include "serve/model_store.hpp"
#include "serve/query_engine.hpp"
#include "simgpu/fault.hpp"
#include "simgpu/trace.hpp"
#include "tensor/datasets.hpp"

namespace {

using namespace cstf;

[[noreturn]] void usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: cstf_serve (--model FILE.cstf | --dataset NAME)\n"
               "                  [--rank N] [--iters N] [--save PATH]"
               " [--requests N]\n"
               "                  [--clients T] [--query-frac F] [--topk K]"
               " [--batch B]\n"
               "                  [--linger S] [--per-request]"
               " [--device a100|h100|xeon]\n"
               "                  [--fault-plan SPEC] [--retries N]"
               " [--backoff S]\n"
               "                  [--deadline S] [--max-queue N]\n"
               "                  [--seed N] [--trace FILE] [--json FILE]\n"
               "                  [--metrics-out FILE]\n");
  std::exit(2);
}

simgpu::DeviceSpec parse_device(const std::string& spec) {
  if (spec == "a100") return simgpu::a100();
  if (spec == "h100") return simgpu::h100();
  if (spec == "xeon") return simgpu::xeon_8367hc();
  usage(("unknown device: " + spec).c_str());
}

// Strict numeric flag parsing (same discipline as cstf_cli
// --dimtree-budget): the whole token must parse and land in range; trailing
// garbage, overflow, and out-of-range values are rejected instead of
// silently truncating to 0 the way atoi would.
long long parse_count_flag(
    const std::string& arg, const std::string& spec, long long min_value,
    long long max_value = std::numeric_limits<long long>::max()) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(spec.c_str(), &end, 10);
  if (end == spec.c_str() || *end != '\0' || errno == ERANGE ||
      v < min_value || v > max_value) {
    const std::string range =
        max_value == std::numeric_limits<long long>::max()
            ? ">= " + std::to_string(min_value)
            : "in [" + std::to_string(min_value) + ", " +
                  std::to_string(max_value) + "]";
    usage((arg + " must be an integer " + range + ", got: " + spec).c_str());
  }
  return v;
}

double parse_seconds_flag(const std::string& arg, const std::string& spec) {
  char* end = nullptr;
  const double v = std::strtod(spec.c_str(), &end);
  if (end == spec.c_str() || *end != '\0' || !std::isfinite(v) || v < 0.0) {
    usage((arg + " must be a finite non-negative number of seconds, got: " +
           spec)
              .c_str());
  }
  return v;
}

void print_summary(const char* label, const serve::LatencySummary& s) {
  std::printf("%-18s %8lld requests  p50 %9.1f us  p95 %9.1f us  "
              "p99 %9.1f us  max %9.1f us\n",
              label, static_cast<long long>(s.count), s.p50_s * 1e6,
              s.p95_s * 1e6, s.p99_s * 1e6, s.max_s * 1e6);
}

std::string latency_json(const serve::LatencySummary& s) {
  using simgpu::json::number;
  return "{\"count\":" + number(static_cast<double>(s.count)) +
         ",\"mean_s\":" + number(s.mean_s) + ",\"p50_s\":" + number(s.p50_s) +
         ",\"p95_s\":" + number(s.p95_s) + ",\"p99_s\":" + number(s.p99_s) +
         ",\"max_s\":" + number(s.max_s) + "}";
}

/// Background dumper for --metrics-out: rewrites `path` (atomically) every
/// ~250 ms while the workload runs. The final authoritative dump happens on
/// the main thread after export_reliability(), not here.
class PeriodicMetricsDumper {
 public:
  explicit PeriodicMetricsDumper(std::string path) : path_(std::move(path)) {
    thread_ = std::thread([this] { loop(); });
  }

  ~PeriodicMetricsDumper() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      lock.unlock();
      metrics::write_text_atomic(
          path_, metrics::to_prometheus(
                     metrics::MetricsRegistry::global().snapshot()));
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(250),
                   [this] { return stopping_; });
    }
  }

  std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string model_path, dataset, save_path, trace_path, json_path;
  std::string metrics_path;
  index_t rank = 8;
  int iters = 5;
  int requests = 200;
  int clients = 4;
  double query_frac = 0.5;
  int topk = 5;
  std::size_t batch = serve::FoldInBatcher::Options{}.max_batch;
  double linger_s = serve::FoldInBatcher::Options{}.max_linger_s;
  bool per_request = false;
  std::uint64_t seed = 42;
  simgpu::DeviceSpec device_spec = simgpu::a100();
  std::string fault_spec;
  bool fault_spec_given = false;
  int retries = 10;
  double backoff_s = 0.0002;
  double deadline_s = 0.0;
  std::size_t max_queue = 1024;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--model") model_path = value();
    else if (arg == "--dataset") dataset = value();
    else if (arg == "--rank") rank = std::atoll(value().c_str());
    else if (arg == "--iters") iters = std::atoi(value().c_str());
    else if (arg == "--save") save_path = value();
    else if (arg == "--requests") requests = std::atoi(value().c_str());
    else if (arg == "--clients") clients = std::atoi(value().c_str());
    else if (arg == "--query-frac") query_frac = std::atof(value().c_str());
    else if (arg == "--topk") topk = std::atoi(value().c_str());
    else if (arg == "--batch") {
      batch = static_cast<std::size_t>(parse_count_flag(arg, value(), 1));
    }
    else if (arg == "--linger") linger_s = parse_seconds_flag(arg, value());
    else if (arg == "--per-request") per_request = true;
    else if (arg == "--device") device_spec = parse_device(value());
    else if (arg == "--fault-plan") { fault_spec = value(); fault_spec_given = true; }
    else if (arg == "--retries") {
      retries = static_cast<int>(parse_count_flag(
          arg, value(), 0, std::numeric_limits<int>::max()));
    }
    else if (arg == "--backoff") backoff_s = parse_seconds_flag(arg, value());
    else if (arg == "--deadline") deadline_s = parse_seconds_flag(arg, value());
    else if (arg == "--max-queue") {
      max_queue = static_cast<std::size_t>(parse_count_flag(arg, value(), 0));
    }
    else if (arg == "--seed") seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--trace") trace_path = value();
    else if (arg == "--json") json_path = value();
    else if (arg == "--metrics-out") metrics_path = value();
    else if (arg == "--help" || arg == "-h") usage(nullptr);
    else usage(("unknown argument: " + arg).c_str());
  }
  if (model_path.empty() == dataset.empty()) {
    usage("exactly one of --model / --dataset is required");
  }
  if (requests < 1 || clients < 1) usage("--requests/--clients must be >= 1");

  try {
    // --dataset: factorize, persist, and serve from the loaded copy.
    if (model_path.empty()) {
      FrameworkOptions options;
      options.rank = rank;
      options.max_iterations = iters;
      options.seed = seed;
      const DatasetAnalog analog = make_analog(dataset);
      CstfFramework framework(analog.tensor, options);
      const AuntfResult result = framework.run();
      serve::SavedModel saved;
      saved.model = framework.ktensor();
      saved.meta.name = dataset;
      saved.meta.set_constraint(options.prox);
      saved.meta.final_fit = result.final_fit;
      saved.meta.options_digest = serve::digest_options(options);
      saved.meta.seed = options.seed;
      saved.meta.iterations = static_cast<std::uint32_t>(result.iterations);
      model_path = save_path.empty() ? dataset + ".cstf" : save_path;
      serve::save_model(saved, model_path);
      std::printf("factorized %s (fit %.5f) -> %s\n", dataset.c_str(),
                  result.final_fit, model_path.c_str());
    }

    serve::ModelStore store;
    serve::ServableModelPtr model = store.load_and_publish(model_path);
    const int modes = model->num_modes();
    std::printf("serving model '%s': %d modes, rank %lld, constraint %s, "
                "trained fit %.5f (generation %llu)\n",
                model->meta().name.c_str(), modes,
                static_cast<long long>(model->rank()),
                model->meta().prox().name().c_str(), model->meta().final_fit,
                static_cast<unsigned long long>(model->generation()));

    simgpu::Device device(device_spec);
    simgpu::Tracer tracer;
    if (!trace_path.empty()) device.set_tracer(&tracer);

    // Fault injection: the plan outlives the device hookup; training above
    // ran on the framework's own device, so only serving kernels can fail.
    simgpu::FaultPlan fault_plan =
        fault_spec_given ? simgpu::FaultPlan(fault_spec)
                         : simgpu::FaultPlan::from_env();
    std::optional<simgpu::ScopedAllocFaults> alloc_faults;
    if (fault_plan.active()) {
      device.set_fault_plan(&fault_plan);
      alloc_faults.emplace(fault_plan);  // alloc arms hit ScratchPool::acquire
      std::printf("fault injection active (%s)\n",
                  fault_spec_given ? fault_spec.c_str() : "$CSTF_FAULT_PLAN");
    }

    serve::ServeRuntime runtime(device, global_pool());
    serve::QueryEngine queries(runtime);
    serve::FoldInOptions fold_options;
    fold_options.use_cached_gram = !per_request;
    serve::FoldInEngine fold_engine(runtime, fold_options);
    serve::FoldInBatcher::Options batcher_options;
    batcher_options.max_batch = per_request ? 1 : batch;
    batcher_options.max_linger_s = per_request ? 0.0 : linger_s;
    batcher_options.max_queue = max_queue;
    batcher_options.default_deadline_s = deadline_s;
    batcher_options.max_retries = retries;
    batcher_options.retry_backoff_s = backoff_s;

    serve::FoldInBatcher batcher(fold_engine, store, model->meta().name,
                                 batcher_options);

    // Periodic metrics exposition while the workload runs; the final dump
    // below (after export_reliability) is the authoritative one.
    std::optional<PeriodicMetricsDumper> metrics_dumper;
    if (!metrics_path.empty()) metrics_dumper.emplace(metrics_path);

    // Open-loop workload: each client issues its share of requests, holding
    // fold-in futures until the end so concurrent arrivals can coalesce.
    std::atomic<long> failures{0};
    std::atomic<long> query_retries{0};
    std::atomic<long> sheds{0};
    std::atomic<long> timeouts{0};
    std::vector<double> worst_primal(static_cast<std::size_t>(clients), 0.0);
    std::vector<std::thread> workers;
    Timer wall;
    for (int t = 0; t < clients; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(seed + 1000 * static_cast<std::uint64_t>(t + 1));
        // Queries run on the client thread, so the client owns their retry
        // loop (fold-ins retry inside the batcher).
        const auto with_retries = [&](const auto& fn) {
          for (int attempt = 0;; ++attempt) {
            try {
              fn();
              return;
            } catch (const simgpu::FaultError& e) {
              if (!e.transient() || attempt >= retries) throw;
              query_retries.fetch_add(1, std::memory_order_relaxed);
              if (backoff_s > 0.0) {
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    serve::retry_backoff_s(backoff_s, attempt)));
              }
            }
          }
        };
        std::vector<std::future<serve::FoldInResult>> futures;
        const int share = requests / clients + (t < requests % clients ? 1 : 0);
        for (int q = 0; q < share; ++q) {
          try {
            if (rng.uniform() < query_frac) {
              if (q % 4 == 3) {
                std::vector<index_t> fixed(static_cast<std::size_t>(modes));
                for (int m = 0; m < modes; ++m) {
                  fixed[static_cast<std::size_t>(m)] = static_cast<index_t>(
                      rng.uniform_index(
                          static_cast<std::uint64_t>(model->mode_size(m))));
                }
                with_retries([&] {
                  queries.top_k(*model,
                                static_cast<int>(rng.uniform_index(
                                    static_cast<std::uint64_t>(modes))),
                                fixed, topk);
                });
              } else {
                std::vector<index_t> coords;
                for (int b = 0; b < 8; ++b) {
                  for (int m = 0; m < modes; ++m) {
                    coords.push_back(static_cast<index_t>(rng.uniform_index(
                        static_cast<std::uint64_t>(model->mode_size(m)))));
                  }
                }
                with_retries([&] { queries.predict(*model, coords); });
              }
            } else {
              serve::FoldInRequest req;
              req.mode = static_cast<int>(
                  rng.uniform_index(static_cast<std::uint64_t>(modes)));
              const int nnz = 4 + static_cast<int>(rng.uniform_index(8));
              for (int j = 0; j < nnz; ++j) {
                for (int m = 0; m < modes; ++m) {
                  if (m == req.mode) continue;
                  req.coords.push_back(static_cast<index_t>(rng.uniform_index(
                      static_cast<std::uint64_t>(model->mode_size(m)))));
                }
                req.values.push_back(rng.uniform(0.0, 2.0));
              }
              futures.push_back(batcher.submit(std::move(req)));
            }
          } catch (const Error&) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        double worst = 0.0;
        for (auto& f : futures) {
          try {
            const serve::FoldInResult result = f.get();
            if (result.diagnostics.primal_residual > worst) {
              worst = result.diagnostics.primal_residual;
            }
          } catch (const serve::ShedError&) {
            // Load management, not an error: the client's cue to back off.
            sheds.fetch_add(1, std::memory_order_relaxed);
          } catch (const serve::DeadlineError&) {
            timeouts.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::exception&) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        worst_primal[static_cast<std::size_t>(t)] = worst;
      });
    }
    for (std::thread& w : workers) w.join();
    batcher.flush();  // anything still lingering
    const double wall_s = std::max(wall.seconds(), 1e-9);

    double worst = 0.0;
    for (double w : worst_primal) worst = std::max(worst, w);
    const serve::LatencySummary query_lat = queries.latency().summary();
    const serve::LatencySummary fold_lat = batcher.latency().summary();

    const double arrival_rps = batcher.measured_arrival_rate_rps();
    std::printf("\nworkload: %d requests, %d clients, %.3f s wall "
                "(%.0f req/s), %ld failures\n",
                requests, clients, wall_s,
                static_cast<double>(requests) / wall_s,
                failures.load());
    std::printf("measured fold-in arrival rate: %.1f req/s\n", arrival_rps);

    print_summary("query latency", query_lat);
    print_summary("fold-in latency", fold_lat);
    std::printf("fold-in batches: %lld (mean size %.2f)\n",
                static_cast<long long>(batcher.batch_sizes().batches()),
                batcher.batch_sizes().mean_batch_size());
    for (const auto& [size, count] : batcher.batch_sizes().histogram()) {
      std::printf("  batch size %3lld: %lld\n", static_cast<long long>(size),
                  static_cast<long long>(count));
    }
    std::printf("worst fold-in primal residual: %.3e\n", worst);
    const serve::ReliabilitySnapshot rel = batcher.reliability().snapshot();
    // Ratchet the registry to this exact snapshot, then capture the
    // snapshot every metrics surface below (final --metrics-out dump, JSON
    // "metrics" block) is rendered from — the serve.requests counters and
    // the JSON reliability block agree by construction.
    serve::export_reliability(rel);
    const metrics::MetricsSnapshot metrics_snap =
        metrics::MetricsRegistry::global().snapshot();
    if (metrics_dumper.has_value()) {
      metrics_dumper->stop();
      metrics::write_text_atomic(metrics_path,
                                 metrics::to_prometheus(metrics_snap));
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    if (fault_plan.active() || rel.shed + rel.timed_out + rel.retries +
                                       rel.degraded + rel.failed !=
                                   0) {
      std::printf("reliability: %lld injected faults, %ld query retries, "
                  "%lld fold-in retries, %lld shed, %lld timed out, "
                  "%lld degraded, %lld failed\n",
                  static_cast<long long>(fault_plan.injected()),
                  query_retries.load(), static_cast<long long>(rel.retries),
                  static_cast<long long>(rel.shed),
                  static_cast<long long>(rel.timed_out),
                  static_cast<long long>(rel.degraded),
                  static_cast<long long>(rel.failed));
    }
    std::printf("modeled %s time for the serving work: %.6f s\n",
                device_spec.name.c_str(), device.modeled_time_s());

    CSTF_CHECK_MSG(std::isfinite(query_lat.p99_s) &&
                       std::isfinite(fold_lat.p99_s),
                   "non-finite latency quantile");
    CSTF_CHECK_MSG(std::isfinite(worst), "non-finite fold-in residual");

    if (!trace_path.empty()) {
      tracer.write_chrome_trace(trace_path);
      std::printf("trace written to %s\n", trace_path.c_str());
    }
    if (!json_path.empty()) {
      using simgpu::json::number;
      std::string doc = "{\n  \"model\": \"" +
                        simgpu::json::escape(model->meta().name) +
                        "\",\n  \"requests\": " +
                        number(static_cast<double>(requests)) +
                        ",\n  \"wall_s\": " + number(wall_s) +
                        ",\n  \"query_latency\": " + latency_json(query_lat) +
                        ",\n  \"fold_in_latency\": " + latency_json(fold_lat) +
                        ",\n  \"mean_batch_size\": " +
                        number(batcher.batch_sizes().mean_batch_size()) +
                        ",\n  \"arrival_rate_rps\": " + number(arrival_rps) +
                        ",\n  \"worst_primal_residual\": " + number(worst) +
                        ",\n  \"reliability\": {\"injected_faults\":" +
                        number(static_cast<double>(fault_plan.injected())) +
                        ",\"query_retries\":" +
                        number(static_cast<double>(query_retries.load())) +
                        ",\"fold_in_retries\":" +
                        number(static_cast<double>(rel.retries)) +
                        ",\"shed\":" + number(static_cast<double>(rel.shed)) +
                        ",\"timed_out\":" +
                        number(static_cast<double>(rel.timed_out)) +
                        ",\"degraded\":" +
                        number(static_cast<double>(rel.degraded)) +
                        ",\"failed\":" +
                        number(static_cast<double>(rel.failed)) +
                        ",\"failures\":" +
                        number(static_cast<double>(failures.load())) + "}" +
                        ",\n  \"modeled_s\": " +
                        number(device.modeled_time_s()) +
                        ",\n  \"metrics\": " + metrics::to_json(metrics_snap) +
                        "\n}\n";
      std::ofstream out(json_path);
      CSTF_CHECK_MSG(out.good(), "cannot write " << json_path);
      out << doc;
      std::printf("telemetry written to %s\n", json_path.c_str());
    }
    if (failures.load() != 0) return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "cstf_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
