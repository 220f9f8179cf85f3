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
// modes) per measurement, the two alternating within each repeat. Order 4
// is where the chain's reuse has room to pay (~9 vs 12 per-nonzero
// multiplies, and fewer factor-row gathers); the fixture's short modes keep
// the factor gathers cache-resident so the saving shows up in host time.
// Both engines form each nonzero's product in registers and add it in one
// pass (DESIGN.md §8), so the gate weighs that reuse against the chain's
// memory traffic, not one inner loop against a slower one. Over ten runs on
// a shared 4-core host the flat/tree ratio read 1.10-1.23 (median 1.14).
//
// The fourth section times one ADMM factor update (10 inner iterations,
// non-negative, 2^17 x 32): cuADMM — operation fusion and pre-inversion,
// which the host runs as one row-tiled, cache-resident pass — against the
// Algorithm-2 chain of BLAS-style calls with pre-inversion, which streams
// the full matrices once per call. The two alternate within each repeat,
// and their H must be bit-identical before a time is trusted.
//
// `--smoke` runs only the gated sections and exits nonzero when any gate
// fails: the kAuto pick must stay within 25% of sorted on the short-mode
// scatter fixture (best-of-7 pick/sorted ratios spread 0.64-0.85 on a
// shared 4-core host), dimtree must not lose to flat on the 4-way
// fixture, and cuADMM must be at least 2x faster than the chain
// (0.11-0.15 s vs 0.39-0.50 s on a shared 4-core host) — the perf
// regression gates scripts/check.sh runs (CSTF_CHECK_SKIP_PERF=1 skips them
// there).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "la/blas.hpp"
#include "mttkrp/blco_mttkrp.hpp"
#include "mttkrp/coo_mttkrp.hpp"
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
  const bool priv_fits = privatized_fits(x.dim(0), rank, x.nnz());
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

/// One timed measurement of the engine section: a full AO iteration's
/// MTTKRP sequence (all modes) through `backend`, each output
/// checked against its mttkrp_ref result before the time is trusted. For a
/// dimension-tree backend the lazy chain folds run inside the mode-n calls,
/// so their cost is charged — this is the steady-state per-iteration work,
/// not a warm-cache shortcut.
double time_iteration_mttkrps(const BlcoBackend& backend, simgpu::Device& dev,
                              const std::vector<Matrix>& factors,
                              const std::vector<Matrix>& refs) {
  double total = 0.0;
  for (std::size_t m = 0; m < factors.size(); ++m) {
    Matrix out(refs[m].rows(), refs[m].cols());
    const double t0 = now_s();
    backend.mttkrp(dev, factors, static_cast<int>(m), out);
    total += now_s() - t0;
    CSTF_CHECK_MSG(max_abs_diff(refs[m], out) <=
                       1e-6 * static_cast<real_t>(out.cols()),
                   "mttkrp disagrees with mttkrp_ref on mode " << m);
  }
  return total;
}

/// Times one full AO iteration's MTTKRPs (all modes, best of N) through a
/// BLCO backend, flat vs dimension-tree, the two alternating within each
/// repeat so host speed drift lands on both alike. Returns false when the
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

  BlcoBackend flat(x);
  BlcoBackend tree(x);
  CSTF_CHECK_MSG(tree.enable_dimtree(x, rank),
                 "the fixture's chain must fit the default dimtree budget");
  simgpu::Device flat_dev(simgpu::a100());
  simgpu::Device tree_dev(simgpu::a100());
  double flat_s = 1e30;
  double tree_s = 1e30;
  for (int rep = 0; rep < repeats; ++rep) {
    flat_s = std::min(flat_s,
                      time_iteration_mttkrps(flat, flat_dev, factors, refs));
    tree_s = std::min(tree_s,
                      time_iteration_mttkrps(tree, tree_dev, factors, refs));
  }

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

/// Times one ADMM update (best of N) under cuADMM and under the
/// pre-inverted Algorithm-2 chain, alternating within each repeat. Each
/// variant keeps its ModeState across repeats, as a trainer does, with the
/// dual reset outside the timed call so every call does the same work.
/// Aborts via CSTF_CHECK if the two H disagree in any bit. Returns false when
/// the smoke gate fails (cuADMM less than 2x faster than the chain).
bool run_admm_section(int repeats) {
  const index_t rows = index_t{1} << 17;
  const index_t rank = 32;
  Matrix g(2 * rank, rank);
  fill_factor(g, 0);
  Matrix s(rank, rank);
  la::gram(g, s);
  Matrix m(rows, rank);
  fill_factor(m, 1);
  for (index_t i = 0; i < m.size(); ++i) m.data()[i] -= 0.75;  // mixed signs
  Matrix h0(rows, rank);
  fill_factor(h0, 2);

  struct Variant {
    const char* name;
    bool fusion;
    Matrix h;
    ModeState state;
    double best = 1e30;
  };
  Variant variants[2] = {{"admm_cuadmm", true, {}, {}},
                         {"admm_chain_pi", false, {}, {}}};
  for (int rep = 0; rep < repeats; ++rep) {
    for (Variant& v : variants) {
      AdmmOptions opt;
      opt.prox = Proximity::non_negative();
      opt.operation_fusion = v.fusion;
      opt.preinversion = true;
      const AdmmUpdate admm(opt);
      simgpu::Device dev(simgpu::a100());
      v.h = h0;
      if (!v.state.dual.empty()) v.state.dual.set_all(0.0);
      const double t0 = now_s();
      admm.update(dev, s, m, v.h, v.state);
      v.best = std::min(v.best, now_s() - t0);
    }
  }
  CSTF_CHECK_MSG(std::equal(variants[0].h.data(),
                            variants[0].h.data() + variants[0].h.size(),
                            variants[1].h.data(),
                            [](real_t a, real_t b) {
                              return std::memcmp(&a, &b, sizeof a) == 0;
                            }),
                 "cuADMM and the Algorithm-2 chain disagree on the bench "
                 "fixture");
  const double cuadmm_s = variants[0].best;
  const double chain_s = variants[1].best;

  std::printf(
      "\n=== ADMM update wall time, best of %d (%lld x %lld, non-negative, "
      "10 inner iterations) ===\n\n",
      repeats, static_cast<long long>(rows), static_cast<long long>(rank));
  std::printf("%-14s %12s %12s %12s\n", "Update", "cuadmm[ms]", "chain[ms]",
              "chain/cuadmm");
  std::printf("%-14s %12.3f %12.3f %12.3f\n", "admm_nonneg", cuadmm_s * 1e3,
              chain_s * 1e3, chain_s / cuadmm_s);

  if (bench::JsonSession* session = bench::JsonSession::current()) {
    bench::BenchRecord rec;
    rec.dataset = "admm_update";
    rec.machine = "host";
    rec.rank = rank;
    rec.wall.update = cuadmm_s;
    // Ten inner iterations of the pre-inverted DGEMM (2 I R^2 flops each).
    const double flops = 10.0 * 2.0 * static_cast<double>(rows) *
                         static_cast<double>(rank) * static_cast<double>(rank);
    for (const Variant& v : variants) {
      bench::BenchKernelRow row;
      row.name = v.name;
      row.spans = 1;
      row.launches = 1;
      row.flops = flops;
      row.wall_s = v.best;
      rec.kernels.push_back(row);
    }
    session->add_record(std::move(rec));
  }

  const bool ok = 2.0 * cuadmm_s <= chain_s;
  std::printf("\nGate: cuADMM %s 2x faster than the chain (%.3f ms vs "
              "%.3f ms)\n",
              ok ? "is at least" : "is NOT", cuadmm_s * 1e3, chain_s * 1e3);
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
  const bool admm_ok = run_admm_section(smoke ? 7 : 3);
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
  if (smoke && !admm_ok) {
    std::fprintf(stderr,
                 "bench_host_wallclock --smoke: cuADMM less than 2x faster "
                 "than the Algorithm-2 chain on the ADMM fixture\n");
    return 1;
  }
  return 0;
}
