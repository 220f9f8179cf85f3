// perfbench_driver — runs one benchmark workload through the library's
// public API and writes raw measurements (per-iteration times, per-request
// timestamps, spans, counts, check tallies) as JSON for run.py, which
// turns them into metrics. Phases:
//
//   --phase workload  train on a seeded dataset analog, compute the modeled
//                     iteration through decorated layers, then serve the
//                     trained model (serving.cpp); --trace 1 adds the timed
//                     layer calls and the traced iterations
//   --phase train     training iterations only (the single-threaded
//                     baseline run.py launches for parallel.speedup)
//   --phase triad     STREAM triad over large arrays (bandwidth denominator)
//
// The thread-pool size comes from CSTF_THREADS, which run.py pins.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "cstf/framework.hpp"
#include "parallel/thread_pool.hpp"
#include "serving.hpp"
#include "tensor/datasets.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

using cstf::index_t;

struct Args {
  std::map<std::string, std::string> kv;

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  /// A numeric flag the caller must pass.
  double num(const std::string& key) const {
    auto it = kv.find(key);
    if (it == kv.end()) throw std::invalid_argument("missing --" + key);
    std::size_t used = 0;
    const double v = std::stod(it->second, &used);
    if (used != it->second.size()) {
      throw std::invalid_argument("bad value for --" + key + ": " + it->second);
    }
    return v;
  }
  int integer(const std::string& key) const {
    return static_cast<int>(num(key));
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value pairs, got " + flag);
    }
    args.kv[flag.substr(2)] = argv[++i];
  }
  return args;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<double>(v) : 0.0;
}

/// The workload's dataset: the named analog with the workload seed in place
/// of the dataset's fixed generator seed.
cstf::DatasetAnalog make_data(const Args& args) {
  cstf::DatasetSpec spec = cstf::dataset_by_name(args.get("dataset", ""));
  spec.seed = static_cast<std::uint64_t>(args.num("seed"));
  return cstf::make_analog(spec, static_cast<index_t>(args.num("nnz")));
}

cstf::FrameworkOptions framework_options(const Args& args) {
  cstf::FrameworkOptions fo;  // cuADMM, non-negativity, model autotuning
  fo.rank = args.integer("rank");
  fo.max_iterations = args.integer("iters");
  fo.seed = static_cast<std::uint64_t>(args.num("seed"));
  return fo;
}

/// One iteration's layer counts, plus the same work as the device itself
/// totals it (`device`: the change of Device::total() over the iteration),
/// against which run.py checks the attribution.
void write_counts(JsonOut& out, const LayerCounts& c,
                  const cstf::simgpu::KernelStats& device) {
  auto launches = [](const cstf::simgpu::KernelStats& k) {
    return static_cast<double>(k.launches);
  };
  out.begin_object();
  out.num("mttkrp.bytes", c.mttkrp.total_bytes())
      .num("mttkrp.flops", c.mttkrp.flops)
      .num("mttkrp.atomic_ops", c.mttkrp.atomic_ops)
      .num("mttkrp.launches", launches(c.mttkrp))
      .num("mttkrp.modeled_s", c.mttkrp_modeled_s)
      .num("update.bytes", c.update.total_bytes())
      .num("update.flops", c.update.flops)
      .num("update.launches", launches(c.update))
      .num("update.modeled_s", c.update_modeled_s)
      .num("cstf.bytes", c.cstf.total_bytes())
      .num("cstf.flops", c.cstf.flops)
      .num("cstf.launches", launches(c.cstf))
      .num("cstf.modeled_s", c.cstf_modeled_s)
      .num("modeled_iter_s", c.modeled_iter_s())
      .num("misattributed", static_cast<double>(c.misattributed))
      .num("device.bytes", device.total_bytes())
      .num("device.flops", device.flops)
      .num("device.launches", launches(device));
  out.end_object();
}

/// `after - before` for the extensive counters write_counts reads.
cstf::simgpu::KernelStats counter_delta(const cstf::simgpu::KernelStats& before,
                                        const cstf::simgpu::KernelStats& after) {
  cstf::simgpu::KernelStats d;
  d.flops = after.flops - before.flops;
  d.bytes_streamed = after.bytes_streamed - before.bytes_streamed;
  d.bytes_reused = after.bytes_reused - before.bytes_reused;
  d.bytes_random = after.bytes_random - before.bytes_random;
  d.launches = after.launches - before.launches;
  return d;
}

/// Timed training iterations on a constructed framework. Returns the
/// per-iteration host seconds; `fit` receives the last iteration's fit.
std::vector<double> train(cstf::CstfFramework& fw, int iterations,
                          double* fit) {
  cstf::Auntf& driver = fw.driver();
  driver.initialize();
  std::vector<double> iter_s;
  for (int it = 0; it < iterations; ++it) {
    cstf::Timer t;
    *fit = driver.iterate();
    iter_s.push_back(t.seconds());
  }
  return iter_s;
}

int run_train_phase(const Args& args, JsonOut& out) {
  const cstf::DatasetAnalog data = make_data(args);
  cstf::CstfFramework fw(data.tensor, framework_options(args));
  fw.driver().plan();
  double fit = 0.0;
  const std::vector<double> iter_s = train(fw, args.integer("iters"), &fit);
  out.begin_object();
  out.num("threads", static_cast<double>(cstf::global_thread_count()));
  out.nums("iter_s", iter_s);
  out.end_object();
  return 0;
}

int run_triad_phase(const Args& args, JsonOut& out) {
  const auto n = static_cast<std::size_t>(args.num("triad-mb") * 1024.0 *
                                          1024.0 / sizeof(double));
  const int reps = 8;
  const std::size_t threads = cstf::global_thread_count();
  // Left uninitialized here so each worker first-touches its own slice.
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        body(n * t / threads, n * (t + 1) / threads);
      });
    }
    for (std::thread& th : pool) th.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> gbps;
  for (int r = 0; r < reps; ++r) {
    const double scalar = 3.0 + r;
    cstf::Timer t;
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + scalar * c[i];
    });
    gbps.push_back(3.0 * sizeof(double) * static_cast<double>(n) / t.seconds() /
                   1e9);
  }
  // Keep the result observable so the stores cannot be elided.
  volatile double sink = a[n / 2];
  (void)sink;
  out.begin_object();
  out.num("threads", static_cast<double>(threads));
  out.num("array_bytes", static_cast<double>(n * sizeof(double)));
  out.num("llc_bytes", llc_bytes());
  out.nums("gbps", gbps);
  out.end_object();
  return 0;
}

void write_spans(JsonOut& out, const std::vector<Span>& spans) {
  out.begin_array();
  for (const Span& s : spans) {
    out.begin_object();
    out.str("name", s.name).num("mode", s.mode).num("start", s.start_s).num(
        "end", s.end_s);
    out.end_object();
  }
  out.end_array();
}

/// Per-layer counts and the full-scale modeled iteration from a driver that
/// runs the framework's own backend and update method through the
/// decorators; with `trace`, also the wall-clock layer spans and the timed
/// set-up calls. Everything here refers into `fw` and ends with this call.
void layer_pass(const cstf::CstfFramework& fw, const cstf::DatasetAnalog& data,
                const cstf::FrameworkOptions& fo, int iterations, bool trace,
                int setup_reps, JsonOut& out) {
  SpanLog log;
  TracedBackend traced_backend(fw.backend(), log);
  TracedUpdate traced_update(fw.update_method(), log);
  cstf::simgpu::Device dev(fo.device);
  cstf::simgpu::Tracer tracer;
  dev.set_tracer(&tracer);
  cstf::AuntfOptions ao;
  ao.rank = fo.rank;
  ao.max_iterations = fo.max_iterations;
  ao.seed = fo.seed;
  ao.compute_fit = fo.compute_fit;
  ao.tensor_device_bytes = fw.backend().tensor().storage_bytes();
  cstf::Auntf decorated(dev, traced_backend, traced_update, ao);
  decorated.initialize();
  cstf::Timer compile;
  decorated.plan();
  const double plan_compile_s = compile.seconds();
  out.begin_array("counts");
  std::vector<std::vector<Span>> iteration_spans;
  for (int it = 0; it < iterations; ++it) {
    tracer.clear();
    log.clear();
    const cstf::simgpu::KernelStats before = dev.total();
    const double start = log.now();
    decorated.iterate();
    log.add("iteration", -1, start, log.now());
    write_counts(out, account_iteration(tracer.spans(), data, fo.device),
                 counter_delta(before, dev.total()));
    iteration_spans.push_back(log.spans());
  }
  out.end_array();
  if (!trace) return;

  out.begin_object("traced");
  out.begin_array("iterations");
  for (const auto& spans : iteration_spans) write_spans(out, spans);
  out.end_array();
  std::vector<double> blco_s, resolve_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    cstf::Timer t;
    cstf::BlcoBackend backend(data.tensor, fo.blco_block_capacity, fo.scatter);
    blco_s.push_back(t.seconds());
    cstf::Timer r;
    cstf::resolve_mttkrp_mode(data.tensor, fo.rank, fo.scatter, fo.device,
                              fo.dimtree_budget_bytes,
                              backend.tensor().storage_bytes());
    resolve_s.push_back(r.seconds());
  }
  out.nums("blco_build_s", blco_s);
  out.nums("resolve_s", resolve_s);
  out.num("plan_compile_s", plan_compile_s);
  out.end_object();
}

int run_workload_phase(const Args& args, JsonOut& out) {
  const bool trace = args.integer("trace") != 0;
  const int setup_reps = args.integer("setup-reps");
  const int iterations = args.integer("iters");
  const cstf::DatasetAnalog data = make_data(args);
  const cstf::FrameworkOptions fo = framework_options(args);

  out.begin_object();
  out.begin_object("facts");
  out.num("threads", static_cast<double>(cstf::global_thread_count()));
  out.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.num("llc_bytes", llc_bytes());
  out.num("nnz", static_cast<double>(data.tensor.nnz()));
  out.begin_array("dims");
  for (int m = 0; m < data.tensor.num_modes(); ++m) {
    out.num(static_cast<double>(data.tensor.dim(m)));
  }
  out.end_array();

  // ---- Training set-up: framework construction (BLCO build, engine
  // resolution) and the first plan compile. The host's speed drifts over
  // seconds, so the repetitions are spread over the run: a third here (the
  // last one trains), a third before serving and a third at the end.
  std::vector<double> setup_s;
  std::unique_ptr<cstf::CstfFramework> fw;
  const int reps_per_point = (setup_reps + 2) / 3;
  auto set_up = [&] {
    for (int rep = 0; rep < reps_per_point; ++rep) {
      fw.reset();
      cstf::Timer t;
      fw = std::make_unique<cstf::CstfFramework>(data.tensor, fo);
      fw->driver().plan();
      setup_s.push_back(t.seconds());
    }
  };
  set_up();
  out.str("mttkrp_engine", cstf::mttkrp_mode_name(fw->resolved_mttkrp_mode()));
  out.end_object();

  double fit = 0.0;
  const std::vector<double> iter_s = train(*fw, iterations, &fit);
  const cstf::KTensor model = fw->ktensor();
  const double fit_to = model.fit_to(data.tensor);
  bool factors_ok = true;
  for (const cstf::Matrix& f : model.factors) {
    for (index_t i = 0; i < f.size(); ++i) {
      const double v = f.data()[i];
      if (!std::isfinite(v) || v < 0.0) factors_ok = false;
    }
  }
  out.begin_object("train");
  out.nums("iter_s", iter_s);
  out.num("final_fit", fit);
  out.num("fit_to", fit_to);
  out.boolean("factors_ok", factors_ok);
  out.num("plan_cache_misses",
          static_cast<double>(fw->driver().plan_cache().misses()));
  out.num("plan_peak_bytes", fw->driver().plan().peak_bytes());
  out.end_object();

  layer_pass(*fw, data, fo, args.integer("model-iters"), trace,
             setup_reps, out);
  set_up();
  fw.reset();
  // Read before serving: the serving device keeps a timeline record of
  // every launch, so the serving peak follows how many batches the host's
  // timing produced (and jumps when that record reallocates).
  out.num("peak_rss_mb", peak_rss_mb());

  // ---- Serving the trained model.
  ServeConfig sc;
  sc.open_s = args.num("open-s");
  sc.closed_s = args.num("closed-s");
  sc.setup_reps = setup_reps;
  sc.seed = fo.seed;
  sc.trace = trace;
  run_serving(model, fo.prox, sc, out);
  set_up();
  fw.reset();
  out.nums("train_setup_s", setup_s);
  out.end_object();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    const std::string out_path = args.get("out", "");
    if (out_path.empty()) throw std::invalid_argument("--out is required");
    const std::string phase = args.get("phase", "workload");
    perfbench::JsonOut out;
    int rc = 0;
    if (phase == "workload") {
      rc = perfbench::run_workload_phase(args, out);
    } else if (phase == "train") {
      rc = perfbench::run_train_phase(args, out);
    } else if (phase == "triad") {
      rc = perfbench::run_triad_phase(args, out);
    } else {
      throw std::invalid_argument("unknown --phase " + phase);
    }
    if (!out.write(out_path)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
