// Section 5.1 rank sweep: the paper evaluates ranks {16, 32, 64}; this bench
// reports the end-to-end GPU-vs-SPLATT speedup at each rank for a small,
// a medium, and two large tensors, on both GPU models.
//
// The right-hand columns compare the two MTTKRP engines (DESIGN.md §13) on
// the A100: the flat per-mode BLCO kernels against the dimension-tree reuse
// engine, as full-scale modeled MTTKRP seconds per outer iteration. "auto"
// is what resolve_mttkrp_mode would pick for the full-size tensor (the
// framework's kAuto decision). The JSON record for each dimtree run carries
// the flat/dimtree modeled and host-wallclock MTTKRP seconds as extras.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  cstf::bench::JsonSession session("rank_sweep");
  using namespace cstf;
  std::printf("=== Rank sweep {16, 32, 64}: end-to-end speedup vs SPLATT ===\n\n");
  std::printf("%-12s %-8s %10s %10s %14s %14s %10s %8s\n", "Tensor", "Rank",
              "A100", "H100", "mttkrp-flat[s]", "mttkrp-tree[s]", "tree-spd",
              "auto");
  for (const char* name : {"NIPS", "NELL2", "Delicious", "Amazon"}) {
    const DatasetAnalog data = bench::load_dataset(name);
    for (index_t rank : {16, 32, 64}) {
      const auto cpu = bench::splatt_iteration(data, rank);
      bench::ModeledIteration flat_wall, tree_wall;
      const auto a100 = bench::gpu_iteration(
          data, simgpu::a100(), UpdateScheme::kCuAdmm, rank, MttkrpMode::kFlat,
          &flat_wall);
      const auto h100 =
          bench::gpu_iteration(data, simgpu::h100(), UpdateScheme::kCuAdmm, rank);
      const auto tree = bench::gpu_iteration(
          data, simgpu::a100(), UpdateScheme::kCuAdmm, rank,
          MttkrpMode::kDimtree, &tree_wall);
      session.annotate_last("mttkrp_flat_s", a100.mttkrp);
      session.annotate_last("mttkrp_dimtree_s", tree.mttkrp);
      session.annotate_last("mttkrp_flat_wall_s", flat_wall.mttkrp);
      session.annotate_last("mttkrp_dimtree_wall_s", tree_wall.mttkrp);
      const MttkrpMode pick =
          bench::full_scale_mttkrp_mode(data, simgpu::a100(), rank);
      std::printf("%-12s %-8lld %9.2fx %9.2fx %14.4f %14.4f %9.2fx %8s\n",
                  name, static_cast<long long>(rank),
                  cpu.total() / a100.total(), cpu.total() / h100.total(),
                  a100.mttkrp, tree.mttkrp, a100.mttkrp / tree.mttkrp,
                  mttkrp_mode_name(pick));
    }
  }
  std::printf(
      "\nShape to verify: speedups persist across ranks; higher rank raises\n"
      "arithmetic intensity (Eq. 5), helping the bandwidth-rich GPUs. The\n"
      "tree-vs-flat ratio falls as the rank grows: every byte of the chain\n"
      "scales with R, while the flat kernels' compressed-tensor stream does\n"
      "not.\n");
  return 0;
}
