// Measured host wall-clock per phase — the only numbers in this repository
// that time *this machine* rather than the modeled targets. Useful for
// regression tracking of the real implementations and for sanity-checking
// that the modeled phase *ratios* are not artifacts: the host is a CPU, so
// its measured breakdown should resemble the modeled Xeon shape (UPDATE
// heavy for ADMM on long-mode tensors), not the GPU shape.
//
// The second section times the scatter engine (mttkrp/scatter.hpp) through
// the BLCO kernel training runs, on two synthetic fixtures:
//   scatter_short — mode length 1024, rank 32: privatized fits the scratch
//                   budget, so kAuto picks it; sorted is timed beside it;
//   scatter_long  — mode length 2^18: only sorted fits the budget.
// Each (fixture, strategy) wall time is the best of N repeats, the
// strategies alternating within each repeat, and is checked against
// mttkrp_ref before being trusted.
//
// The third section times the two MTTKRP engines (DESIGN.md §13) head to
// head on a 4-way short-mode fixture: the flat per-mode BLCO kernels against
// the dimension-tree reuse engine, one full AO iteration's MTTKRPs (all
// modes) per measurement. Order 4 is where the chain's reuse has room to pay
// (~9 vs 12 per-nonzero multiplies); the fixture's short modes keep the
// factor gathers cache-resident so the flop saving shows up in host time.
//
// The fourth section pits the autotuner against the cost model (DESIGN.md
// §14): run_tuning_trials picks a configuration for a 3-way fixture, and one
// full AO iteration's MTTKRPs are timed under the tuned and the model-picked
// configurations head to head.
//
// `--smoke` runs only the gated sections and exits nonzero when any gate
// fails: the kAuto pick must stay within 25% of sorted on the short-mode
// scatter fixture (the two tie there; best-of-7 ratios spread 0.88-1.11 on
// a shared 4-core host), dimtree must not lose to flat on the 4-way
// fixture, and the tuned configuration must not lose to the model-picked
// one by more than 5% —
// the perf regression gates scripts/check.sh runs (CSTF_CHECK_SKIP_PERF=1
// skips them there).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "mttkrp/blco_mttkrp.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/generate.hpp"

namespace {

using namespace cstf;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic factor fill (cheap hash; no RNG state to thread through).
void fill_factor(Matrix& m, index_t mode) {
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t i = 0; i < m.rows(); ++i) {
      const auto h = static_cast<std::uint64_t>(i) * 1315423911u +
                     static_cast<std::uint64_t>(j) * 2654435761u +
                     static_cast<std::uint64_t>(mode) * 97u;
      m(i, j) = 0.25 + static_cast<real_t>(h % 1000u) * 1e-3;
    }
  }
}

struct ScatterTimes {
  ScatterStrategy pick = ScatterStrategy::kAuto;  // kAuto's resolution
  double privatized = 0.0;  // best-of-N wall seconds; 0 when over budget
  double sorted = 0.0;

  double pick_s() const {
    return pick == ScatterStrategy::kPrivatized ? privatized : sorted;
  }
};

/// Times mode 0 of `x` through mttkrp_blco under each strategy that fits
/// the default scratch budget. The strategies alternate within each repeat,
/// so host speed drift during the run lands on both alike. The sorted plan
/// is prebuilt and untimed (it is built once per tensor and amortized over
/// the factorization's iterations). Aborts via CSTF_CHECK if a strategy
/// disagrees with the sequential reference.
ScatterTimes time_scatter_strategies(const SparseTensor& x, index_t rank,
                                     int repeats) {
  std::vector<Matrix> factors;
  for (int m = 0; m < x.num_modes(); ++m) {
    factors.emplace_back(x.dim(m), rank);
    fill_factor(factors.back(), m);
  }
  Matrix ref(x.dim(0), rank);
  mttkrp_ref(x, factors, 0, ref);
  const BlcoTensor blco(x);
  const ScatterPlan plan = blco_scatter_plan(blco, 0);
  simgpu::Device dev(simgpu::a100());

  auto time_once = [&](ScatterStrategy strategy, Matrix& out) {
    ScatterOptions opts;
    opts.strategy = strategy;
    const double t0 = now_s();
    mttkrp_blco(dev, blco, factors, 0, out, opts, &plan);
    return now_s() - t0;
  };
  auto check = [&](ScatterStrategy strategy, const Matrix& out) {
    CSTF_CHECK_MSG(max_abs_diff(ref, out) <= 1e-6 * static_cast<real_t>(rank),
                   "scatter strategy "
                       << scatter_strategy_name(strategy)
                       << " disagrees with mttkrp_ref on the bench fixture");
  };

  const ScatterOptions defaults;
  ScatterTimes t;
  t.pick = resolve_scatter_strategy(defaults, x.dim(0), rank, x.nnz());
  const bool priv_fits = privatized_fits(defaults, x.dim(0), rank, x.nnz());
  Matrix priv_out(x.dim(0), rank), sorted_out(x.dim(0), rank);
  t.privatized = priv_fits ? 1e30 : 0.0;
  t.sorted = 1e30;
  for (int rep = 0; rep < repeats; ++rep) {
    if (priv_fits) {
      t.privatized = std::min(
          t.privatized, time_once(ScatterStrategy::kPrivatized, priv_out));
    }
    t.sorted =
        std::min(t.sorted, time_once(ScatterStrategy::kSorted, sorted_out));
  }
  if (priv_fits) check(ScatterStrategy::kPrivatized, priv_out);
  check(ScatterStrategy::kSorted, sorted_out);
  return t;
}

/// Emits one JSON record for a scatter fixture: the wall times live in the
/// kernel rows (one per timed strategy); the phase block carries the kAuto
/// pick's time as MTTKRP wall time and zero modeled time (nothing here is
/// modeled — these are host measurements).
void record_scatter_fixture(const std::string& dataset, index_t rank,
                            double nnz, const ScatterTimes& t) {
  bench::JsonSession* session = bench::JsonSession::current();
  if (session == nullptr) return;
  bench::BenchRecord rec;
  rec.dataset = dataset;
  rec.machine = "host";
  rec.rank = rank;
  rec.wall.mttkrp = t.pick_s();
  const double flops = nnz * static_cast<double>(rank) * 4.0;
  const auto row = [&](const char* name, double wall_s) {
    bench::BenchKernelRow r;
    r.name = name;
    r.spans = 1;
    r.launches = 1;
    r.flops = flops;
    r.wall_s = wall_s;
    return r;
  };
  if (t.privatized > 0.0) {
    rec.kernels.push_back(row("scatter_privatized", t.privatized));
  }
  rec.kernels.push_back(row("scatter_sorted", t.sorted));
  session->add_record(std::move(rec));
}

/// Runs the scatter fixtures; returns false when the smoke gate fails (the
/// kAuto pick more than 25% slower than sorted on the short-mode fixture).
bool run_scatter_section(int repeats) {
  const index_t rank = 32;
  std::printf(
      "\n=== Scatter-engine wall time through mttkrp_blco, best of %d "
      "(mode 0, R=%lld) ===\n\n",
      repeats, static_cast<long long>(rank));
  std::printf("%-14s %10s %10s %12s %12s %12s %12s\n", "Fixture", "mode_len",
              "nnz", "priv[ms]", "sorted[ms]", "auto pick", "auto/sorted");

  const auto run_fixture = [&](const char* name, index_t mode_len,
                               std::uint64_t seed) {
    RandomTensorParams p;
    p.dims = {mode_len, 4096, 4096};
    p.target_nnz = 200000;
    p.seed = seed;
    const SparseTensor x = generate_random(p);
    const ScatterTimes t = time_scatter_strategies(x, rank, repeats);
    char priv[16] = "over budget";
    if (t.privatized > 0.0) {
      std::snprintf(priv, sizeof priv, "%.3f", t.privatized * 1e3);
    }
    std::printf("%-14s %10lld %10lld %12s %12.3f %12s %12.3f\n", name,
                static_cast<long long>(x.dim(0)),
                static_cast<long long>(x.nnz()), priv, t.sorted * 1e3,
                scatter_strategy_name(t.pick), t.pick_s() / t.sorted);
    record_scatter_fixture(name, rank, static_cast<double>(x.nnz()), t);
    return t;
  };
  const ScatterTimes short_t = run_fixture("scatter_short", 1024, 7);
  run_fixture("scatter_long", index_t{1} << 18, 11);

  const bool ok = short_t.pick_s() <= 1.25 * short_t.sorted;
  std::printf(
      "\nGate: kAuto pick (%s) %s sorted on scatter_short (%.3f ms vs "
      "%.3f ms, tolerance 25%%)\n",
      scatter_strategy_name(short_t.pick),
      ok ? "keeps up with" : "LOSES TO", short_t.pick_s() * 1e3,
      short_t.sorted * 1e3);
  return ok;
}

/// Times one full AO iteration's MTTKRPs (all modes, best of N) through a
/// BLCO backend, flat vs dimension-tree. Every mode's output is checked
/// against mttkrp_ref before a time is trusted. Returns false when the
/// smoke gate fails (dimtree slower than flat).
bool run_dimtree_section(int repeats) {
  const index_t rank = 32;
  RandomTensorParams p;
  p.dims = {768, 1024, 1536, 2048};
  p.target_nnz = 150000;
  p.seed = 13;
  const SparseTensor x = generate_random(p);

  std::vector<Matrix> factors;
  for (int m = 0; m < x.num_modes(); ++m) {
    factors.emplace_back(x.dim(m), rank);
    fill_factor(factors.back(), m);
  }
  std::vector<Matrix> refs;
  for (int m = 0; m < x.num_modes(); ++m) {
    refs.emplace_back(x.dim(m), rank);
    mttkrp_ref(x, factors, m, refs.back());
  }

  // One timed measurement = the full iteration's MTTKRP sequence. For the
  // tree backend the lazy chain folds run inside the mode-n calls, so their
  // cost is charged — this is the steady-state per-iteration work, not a
  // warm-cache shortcut.
  auto best_of = [&](const BlcoBackend& backend) {
    simgpu::Device dev(simgpu::a100());
    double best = 1e30;
    for (int rep = 0; rep < repeats; ++rep) {
      double total = 0.0;
      for (int m = 0; m < x.num_modes(); ++m) {
        Matrix out(x.dim(m), rank);
        const double t0 = now_s();
        backend.mttkrp(dev, factors, m, out);
        total += now_s() - t0;
        CSTF_CHECK_MSG(
            max_abs_diff(refs[static_cast<std::size_t>(m)], out) <=
                1e-6 * static_cast<real_t>(rank),
            "mttkrp engine disagrees with mttkrp_ref on mode " << m);
      }
      best = std::min(best, total);
    }
    return best;
  };

  BlcoBackend flat(x);
  BlcoBackend tree(x);
  tree.enable_dimtree(x, rank);
  const double flat_s = best_of(flat);
  const double tree_s = best_of(tree);

  std::printf(
      "\n=== MTTKRP engine wall time, best of %d (4-way %lldx%lldx%lldx%lld, "
      "%lld nnz, all modes, R=%lld) ===\n\n",
      repeats, static_cast<long long>(x.dim(0)),
      static_cast<long long>(x.dim(1)), static_cast<long long>(x.dim(2)),
      static_cast<long long>(x.dim(3)), static_cast<long long>(x.nnz()),
      static_cast<long long>(rank));
  std::printf("%-14s %12s %12s %12s\n", "Engine", "flat[ms]", "dimtree[ms]",
              "flat/tree");
  std::printf("%-14s %12.3f %12.3f %12.3f\n", "blco", flat_s * 1e3,
              tree_s * 1e3, flat_s / tree_s);

  if (bench::JsonSession* session = bench::JsonSession::current()) {
    bench::BenchRecord rec;
    rec.dataset = "dimtree_4way";
    rec.machine = "host";
    rec.rank = rank;
    rec.wall.mttkrp = flat_s;
    rec.extras.emplace_back("mttkrp_flat_wall_s", flat_s);
    rec.extras.emplace_back("mttkrp_dimtree_wall_s", tree_s);
    session->add_record(std::move(rec));
  }

  const bool ok = tree_s <= flat_s;
  std::printf("\nGate: dimtree %s flat on the 4-way fixture (%.3f ms vs "
              "%.3f ms)\n",
              ok ? "does not lose to" : "LOSES TO", tree_s * 1e3,
              flat_s * 1e3);
  return ok;
}

/// Times one AO iteration's MTTKRPs (all modes, best of N) under the cost
/// model's configuration and under the autotuned one. The autotuner defers
/// to the model whenever the measured win is inside its tie-break tolerance,
/// so the tuned configuration losing by more than 5% means the trial harness
/// stopped reflecting the real kernels — that is the gate.
bool run_autotune_section(int repeats) {
  const index_t rank = 32;
  RandomTensorParams p;
  p.dims = {1024, 2048, 4096};
  p.target_nnz = 150000;
  p.seed = 17;
  const SparseTensor x = generate_random(p);

  autotune::TuneInputs in;
  in.tensor = &x;
  in.rank = rank;
  in.spec = simgpu::a100();
  autotune::TuningOptions topts;
  topts.policy = autotune::TuningPolicy::kMeasure;
  const autotune::TuningRecord rec = autotune::run_tuning_trials(in, topts);

  std::vector<Matrix> factors;
  for (int m = 0; m < x.num_modes(); ++m) {
    factors.emplace_back(x.dim(m), rank);
    fill_factor(factors.back(), m);
  }
  std::vector<Matrix> refs;
  for (int m = 0; m < x.num_modes(); ++m) {
    refs.emplace_back(x.dim(m), rank);
    mttkrp_ref(x, factors, m, refs.back());
  }

  auto best_of = [&](const BlcoBackend& backend) {
    simgpu::Device dev(simgpu::a100());
    double best = 1e30;
    for (int rep = 0; rep < repeats; ++rep) {
      double total = 0.0;
      for (int m = 0; m < x.num_modes(); ++m) {
        Matrix out(x.dim(m), rank);
        const double t0 = now_s();
        backend.mttkrp(dev, factors, m, out);
        total += now_s() - t0;
        CSTF_CHECK_MSG(
            max_abs_diff(refs[static_cast<std::size_t>(m)], out) <=
                1e-6 * static_cast<real_t>(rank),
            "tuned mttkrp disagrees with mttkrp_ref on mode " << m);
      }
      best = std::min(best, total);
    }
    return best;
  };

  // Model side: the exact configuration a kModel run would use, kAuto engine
  // resolution included.
  BlcoBackend model_backend(x);
  const MttkrpMode model_mode = resolve_mttkrp_mode(
      x, rank, ScatterOptions{}, simgpu::a100(), kDefaultDimtreeBudgetBytes,
      model_backend.tensor().storage_bytes());
  if (model_mode == MttkrpMode::kDimtree) {
    model_backend.enable_dimtree(x, rank);
  }
  const double model_s = best_of(model_backend);

  // Tuned side: the record's per-mode scatter picks, engine, and chunk knob.
  ScatterOptions tuned_scatter;
  tuned_scatter.per_mode = rec.scatter_per_mode;
  BlcoBackend tuned_backend(x, 4096, tuned_scatter);
  if (rec.mttkrp_mode == MttkrpMode::kDimtree) {
    tuned_backend.enable_dimtree(x, rank, rec.dimtree_budget_bytes);
  }
  const index_t saved_chunks = parallel_chunks_per_worker();
  if (rec.chunks_per_worker > 0) {
    set_parallel_chunks_per_worker(static_cast<index_t>(rec.chunks_per_worker));
  }
  const double tuned_s = best_of(tuned_backend);
  set_parallel_chunks_per_worker(saved_chunks);

  std::printf(
      "\n=== Autotuned vs model-picked MTTKRP config, best of %d "
      "(3-way %lldx%lldx%lld, %lld nnz, R=%lld) ===\n\n",
      repeats, static_cast<long long>(x.dim(0)),
      static_cast<long long>(x.dim(1)), static_cast<long long>(x.dim(2)),
      static_cast<long long>(x.nnz()), static_cast<long long>(rank));
  std::printf("%-14s %12s %12s %12s\n", "Config", "model[ms]", "tuned[ms]",
              "tuned/model");
  std::printf("%-14s %12.3f %12.3f %12.3f\n", "iteration", model_s * 1e3,
              tuned_s * 1e3, tuned_s / model_s);
  std::printf("tuned: engine %s, chunks/worker %u, scatter",
              mttkrp_mode_name(rec.mttkrp_mode), rec.chunks_per_worker);
  for (ScatterStrategy s : rec.scatter_per_mode) {
    std::printf(" %s", scatter_strategy_name(s));
  }
  std::printf("  (model engine %s)\n", mttkrp_mode_name(model_mode));

  if (bench::JsonSession* session = bench::JsonSession::current()) {
    bench::BenchRecord brec;
    brec.dataset = "autotune_3way";
    brec.machine = "host";
    brec.rank = rank;
    brec.wall.mttkrp = tuned_s;
    brec.extras.emplace_back("mttkrp_model_config_wall_s", model_s);
    brec.extras.emplace_back("mttkrp_tuned_config_wall_s", tuned_s);
    brec.extras.emplace_back("tuned_chunks_per_worker",
                             static_cast<double>(rec.chunks_per_worker));
    session->add_record(std::move(brec));
  }

  const bool ok = tuned_s <= 1.05 * model_s;
  std::printf("\nGate: tuned config %s the model-picked config "
              "(%.3f ms vs %.3f ms, tolerance 5%%)\n",
              ok ? "does not lose to" : "LOSES TO", tuned_s * 1e3,
              model_s * 1e3);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  cstf::bench::JsonSession session("host_wallclock");
  using namespace cstf;

  if (!smoke) {
    const index_t rank = 16;
    std::printf(
        "=== Measured host wall-clock per cSTF iteration (this machine, R=%lld) ===\n\n",
        static_cast<long long>(rank));
    std::printf("%-12s %-8s %10s %10s %10s %10s %10s\n", "Tensor", "Engine",
                "GRAM[ms]", "MTTKRP", "UPDATE", "NORM", "total");

    for (const char* name : {"NIPS", "NELL2", "Delicious"}) {
      const DatasetAnalog data = bench::load_dataset(name);
      std::vector<double> mode_scales(
          static_cast<std::size_t>(data.tensor.num_modes()), 1.0);

      {
        BlcoBackend backend(data.tensor);
        auto update = CstfFramework::make_update(
            UpdateScheme::kCuAdmm, Proximity::non_negative(), 10);
        bench::ModeledIteration wall;
        bench::modeled_iteration(backend, *update, simgpu::a100(), rank,
                                 mode_scales, 1.0, &wall);
        std::printf("%-12s %-8s %10.2f %10.2f %10.2f %10.2f %10.2f\n", name,
                    "blco", wall.gram * 1e3, wall.mttkrp * 1e3,
                    wall.update * 1e3, wall.normalize * 1e3,
                    wall.total() * 1e3);
      }
      {
        CsfBackend backend(data.tensor);
        BlockAdmmOptions opt;
        opt.prox = Proximity::non_negative();
        BlockAdmmUpdate update(opt);
        bench::ModeledIteration wall;
        bench::modeled_iteration(backend, update, simgpu::xeon_8367hc(), rank,
                                 mode_scales, 1.0, &wall);
        std::printf("%-12s %-8s %10.2f %10.2f %10.2f %10.2f %10.2f\n", name,
                    "csf", wall.gram * 1e3, wall.mttkrp * 1e3,
                    wall.update * 1e3, wall.normalize * 1e3,
                    wall.total() * 1e3);
      }
    }
    std::printf(
        "\nWall times are for the scaled analogs on this host (CPU execution\n"
        "regardless of the metering target) — compare trends, not magnitudes.\n");
  }

  const bool scatter_ok = run_scatter_section(smoke ? 7 : 3);
  const bool dimtree_ok = run_dimtree_section(smoke ? 7 : 3);
  const bool autotune_ok = run_autotune_section(smoke ? 7 : 3);
  if (smoke && !scatter_ok) {
    std::fprintf(stderr,
                 "bench_host_wallclock --smoke: the kAuto scatter pick is "
                 "more than 25%% slower than sorted on the short-mode "
                 "fixture\n");
    return 1;
  }
  if (smoke && !dimtree_ok) {
    std::fprintf(stderr,
                 "bench_host_wallclock --smoke: dimtree MTTKRP slower than "
                 "flat on the 4-way fixture\n");
    return 1;
  }
  if (smoke && !autotune_ok) {
    std::fprintf(stderr,
                 "bench_host_wallclock --smoke: autotuned config more than "
                 "5%% slower than the model-picked config\n");
    return 1;
  }
  return 0;
}
