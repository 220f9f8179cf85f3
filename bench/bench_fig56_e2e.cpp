// Reproduces Figures 5 and 6: end-to-end per-iteration speedup of the GPU
// cSTF framework (BLCO + cuADMM) over SPLATT (CSF + blocked AO-ADMM on the
// 26-core Xeon), rank 32, across the 10 Table-2 tensors plus the geometric
// mean. Compiled twice: bench_fig5_e2e_a100 and bench_fig6_e2e_h100.
//
// Expected shape: every speedup >= ~1x; larger for long-mode tensors
// (Flickr/Delicious/NELL1/Amazon); small tensors (NIPS/Uber/Chicago) see the
// least benefit; H100 >= A100; geomean ~5-7x.
//
// A second table compares the two MTTKRP engines (flat per-mode kernels vs
// the dimension-tree reuse engine, DESIGN.md §13) on the 4-way tensors and
// gates the build: over the tensors the full-scale resolver routes to
// dimtree, the modeled MTTKRP speedup geomean must be >= 1.3x.
#include <cstdio>

#include "bench_util.hpp"
#include "common/error.hpp"

int main() {
#ifdef CSTF_BENCH_H100
  cstf::bench::JsonSession session("fig6_e2e_h100");
#else
  cstf::bench::JsonSession session("fig5_e2e_a100");
#endif
  using namespace cstf;
#ifdef CSTF_BENCH_H100
  const auto spec = simgpu::h100();
  const char* fig = "Figure 6";
#else
  const auto spec = simgpu::a100();
  const char* fig = "Figure 5";
#endif
  const index_t rank = 32;
  std::printf("=== %s: end-to-end per-iteration speedup vs SPLATT (%s model, R=%lld) ===\n\n",
              fig, spec.name.c_str(), static_cast<long long>(rank));
  std::printf("%-12s %14s %14s %10s %14s %10s\n", "Tensor", "SPLATT [s]",
              (spec.name + " [s]").c_str(), "Speedup", "GPU ovl [s]",
              "ovl Spdup");

  struct TreeRow {
    std::string name;
    double flat_s = 0.0;
    double tree_s = 0.0;
    double chain_bytes = 0.0;
    MttkrpMode pick = MttkrpMode::kFlat;
  };
  std::vector<TreeRow> tree_rows;

  std::vector<double> speedups;
  std::vector<double> ovl_speedups;
  for (const auto& name : bench::dataset_names()) {
    const DatasetAnalog data = bench::load_dataset(name);
    const auto cpu = bench::splatt_iteration(data, rank);
    std::vector<bench::ModeledIteration> per_mode;
    const auto gpu = bench::gpu_iteration(data, spec, UpdateScheme::kCuAdmm,
                                          rank, MttkrpMode::kFlat,
                                          /*wall=*/nullptr, &per_mode);
    const double ovl = bench::overlapped_total(per_mode);
    const double speedup = cpu.total() / gpu.total();
    speedups.push_back(speedup);
    ovl_speedups.push_back(cpu.total() / ovl);
    std::printf("%-12s %14.5f %14.5f %9.2fx %14.5f %9.2fx\n", name.c_str(),
                cpu.total(), gpu.total(), speedup, ovl, ovl_speedups.back());
    // Flat vs dimension-tree MTTKRP on the 4-way tensors (second table
    // below). The dimtree run adds its own JSON record; both engines'
    // modeled MTTKRP seconds ride along as extras on it.
    if (data.tensor.num_modes() >= 4) {
      const auto tree = bench::gpu_iteration(
          data, spec, UpdateScheme::kCuAdmm, rank, MttkrpMode::kDimtree);
      session.annotate_last("mttkrp_flat_s", gpu.mttkrp);
      session.annotate_last("mttkrp_dimtree_s", tree.mttkrp);
      TreeRow row;
      row.name = name;
      row.flat_s = gpu.mttkrp;
      row.tree_s = tree.mttkrp;
      row.chain_bytes = dimtree_chain_bytes(data.tensor.nnz(), rank);
      row.pick = bench::full_scale_mttkrp_mode(data, spec, rank);
      tree_rows.push_back(std::move(row));
    }
  }
  std::printf("%-12s %14s %14s %9.2fx %14s %9.2fx\n", "GeoMean", "", "",
              bench::geomean(speedups), "", bench::geomean(ovl_speedups));
  // --- Flat vs dimension-tree MTTKRP (DESIGN.md §13) ---------------------
  std::printf(
      "\n=== Flat vs dimension-tree MTTKRP (4-way tensors, %s, R=%lld) ===\n\n",
      spec.name.c_str(), static_cast<long long>(rank));
  std::printf("%-12s %14s %14s %10s %12s %8s\n", "Tensor", "flat [s]",
              "dimtree [s]", "Speedup", "chain [MB]", "auto");
  std::vector<double> gated;
  for (const TreeRow& row : tree_rows) {
    std::printf("%-12s %14.5f %14.5f %9.2fx %12.2f %8s\n", row.name.c_str(),
                row.flat_s, row.tree_s, row.flat_s / row.tree_s,
                row.chain_bytes / (1024.0 * 1024.0),
                mttkrp_mode_name(row.pick));
    if (row.pick == MttkrpMode::kDimtree) {
      // The resolver only returns kDimtree when the chain fits the budget
      // (the chain it would actually allocate, i.e. at in-memory size).
      CSTF_CHECK_MSG(row.chain_bytes <= kDefaultDimtreeBudgetBytes,
                     "resolver picked dimtree for " << row.name
                     << " with an over-budget chain");
      gated.push_back(row.flat_s / row.tree_s);
    }
  }
  CSTF_CHECK_MSG(!gated.empty(),
                 "resolve_mttkrp_mode picked flat for every 4-way tensor — "
                 "the dimtree engine never wins, which defeats its purpose");
  const double tree_geomean = bench::geomean(gated);
  // The A100 run carries the headline claim (>= 1.3x, DESIGN.md §13). The
  // H100's fatter HBM narrows the gather-bound gap the tree exploits and
  // its resolver drops Chicago (small nnz: flat streams it almost for
  // free), so that figure gates at 1.2x purely as a regression guard.
#ifdef CSTF_BENCH_H100
  const double tree_gate = 1.2;
#else
  const double tree_gate = 1.3;
#endif
  std::printf("%-12s %14s %14s %9.2fx\n", "GeoMean*", "", "", tree_geomean);
  std::printf(
      "\n(*) over the tensors the full-scale resolver routes to dimtree.\n"
      "Gate: that geomean must be >= %.2fx — the bench aborts otherwise.\n",
      tree_gate);
  CSTF_CHECK_MSG(tree_geomean >= tree_gate,
                 "dimtree modeled MTTKRP speedup geomean "
                     << tree_geomean << "x < " << tree_gate
                     << "x over the resolver-selected 4-way tensors");

  std::printf(
      "\nPaper reference: geomean 5.10x (max 41.59x) on A100; 7.01x\n"
      "(max 58.05x) on H100. Shape to verify: long-mode tensors gain most;\n"
      "small tensors least. \"GPU ovl\" overlaps each mode's Gram work\n"
      "with its MTTKRP (per mode, t = max(t + gram, t + mttkrp) + update +\n"
      "normalize) — a small, free win on top.\n");
  return 0;
}
