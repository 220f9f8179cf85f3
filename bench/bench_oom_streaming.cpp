// Out-of-memory streamed MTTKRP: the execution mode the BLCO substrate paper
// (Nguyen et al., ICS'22) exists for. When the tensor plus factors exceed
// device memory, BLCO blocks are staged over the host link in batches,
// double-buffered against compute. This bench models MTTKRP time at full
// dataset scale for a sweep of device-memory budgets.
//
// Expected shape: resident (budget >= tensor) time is flat; as the budget
// shrinks the staging link becomes the roof, degrading smoothly — not a
// cliff — because transfer overlaps compute.
#include <cstdio>

#include "bench_util.hpp"
#include "mttkrp/blco_mttkrp.hpp"

int main() {
  cstf::bench::JsonSession session("oom_streaming");
  using namespace cstf;
  const index_t rank = 32;
  const auto spec = simgpu::a100();
  std::printf("=== Out-of-memory streamed MTTKRP (A100 + PCIe staging, R=%lld) ===\n\n",
              static_cast<long long>(rank));
  std::printf("%-12s %-16s %10s %14s %14s\n", "Tensor", "Budget", "batches",
              "serial [ms]", "overlap [ms]");

  for (const char* name : {"Delicious", "Amazon"}) {
    const DatasetAnalog data = bench::load_dataset(name);
    Rng rng(9);
    std::vector<Matrix> factors;
    for (int m = 0; m < data.tensor.num_modes(); ++m) {
      Matrix f(data.tensor.dim(m), rank);
      f.fill_uniform(rng, 0.0, 1.0);
      factors.push_back(std::move(f));
    }
    const BlcoTensor blco(data.tensor, 1024);
    const double full = blco.storage_bytes();
    const char* labels[4] = {"resident", "1/2 tensor", "1/4 tensor",
                             "1/8 tensor"};
    const double budgets[4] = {2.0 * full, full / 2.0, full / 4.0, full / 8.0};
    // Per budget: the fully serial copy-then-compute sum and the
    // double-buffered staging makespan (the same when resident).
    const auto run_budget = [&](const simgpu::DeviceSpec& s, double budget,
                                const char* label) {
      simgpu::Device dev(s);
      Matrix out(data.tensor.dim(0), rank);
      StagedRecords staged;
      const index_t batches =
          mttkrp_blco_streamed(dev, blco, factors, 0, out, budget, &staged);
      const double serial =
          perfmodel::modeled_time_scaled(dev, data.nnz_scale()) * 1e3;
      const double overlap =
          batches > 1
              ? staged_makespan_s(staged, s, data.nnz_scale()) * 1e3
              : serial;
      std::printf("%-12s %-16s %10lld %14.3f %14.3f\n", name, label,
                  static_cast<long long>(batches), serial, overlap);
    };
    for (int i = 0; i < 4; ++i) run_budget(spec, budgets[i], labels[i]);
    // Degraded link (contended PCIe at 2 GB/s): where staging finally binds.
    {
      simgpu::DeviceSpec slow = spec;
      slow.host_link_bandwidth = 2e9;
      run_budget(slow, full / 8.0, "1/8 + slow link");
    }
  }
  std::printf(
      "\nShape to verify (the BLCO substrate paper's headline): staging is\n"
      "hidden behind the gather-bound kernel at PCIe speeds — the overlap\n"
      "column stays within 8%% of the resident row, less with smaller\n"
      "batches (the first transfer is exposed, and each batch pays its own\n"
      "scatter-tile reduce). Only a badly degraded link (last row) makes\n"
      "the host transfer the roof.\n"
      "\"serial [ms]\" stages every batch before its compute with no overlap;\n"
      "\"overlap [ms]\" is the double-buffered staging makespan (a batch's\n"
      "transfer waits for the compute of the batch two back, whose buffer it\n"
      "reuses): the longer of the two lanes plus pipeline fill.\n");
  return 0;
}
