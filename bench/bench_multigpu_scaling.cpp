// Multi-GPU MTTKRP scaling (the paper's future-work extension, simulated):
// per-mode MTTKRP time on 1/2/4/8 A100s with ring all-reduce of the partial
// outputs over NVLink, for a small, a medium, and two large tensors.
//
// Expected shape: near-linear scaling where the per-device work dominates
// (large nnz, short output mode); the all-reduce of long-mode outputs
// (Flickr mode 2: 28.2M x 32 doubles = 7.2 GB) caps speedup.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "multigpu/multi_gpu.hpp"

int main() {
  cstf::bench::JsonSession session("multigpu_scaling");
  using namespace cstf;
  const index_t rank = 32;
  std::printf("=== Multi-GPU MTTKRP scaling (A100 + NVLink ring, R=%lld) ===\n\n",
              static_cast<long long>(rank));
  std::printf("%-12s %-6s %12s %12s %12s %12s %12s %8s %8s\n", "Tensor",
              "Mode", "1 GPU [s]", "2 GPUs", "4 GPUs", "8 GPUs", "8 ovl",
              "chunks", "parity");

  for (const char* name : {"NIPS", "NELL2", "Delicious", "Amazon"}) {
    const DatasetAnalog data = bench::load_dataset(name);
    Rng rng(3);
    std::vector<Matrix> factors;
    for (int m = 0; m < data.tensor.num_modes(); ++m) {
      Matrix f(data.tensor.dim(m), rank);
      f.fill_uniform(rng, 0.0, 1.0);
      factors.push_back(std::move(f));
    }
    for (int mode = 0; mode < data.tensor.num_modes(); ++mode) {
      double base = 0.0;
      std::printf("%-12s %-6d", name, mode + 1);
      for (int devices : {1, 2, 4, 8}) {
        MultiGpuOptions opt;
        opt.num_devices = devices;
        MultiGpuCstf engine(data.tensor, opt);
        Matrix out(data.tensor.dim(mode), rank);
        engine.mttkrp(factors, mode, out);
        const double t = engine.modeled_mttkrp_time(
            mode, rank, data.nnz_scale(), data.dim_scale(mode));
        if (devices == 1) {
          base = t;
          std::printf(" %12.5f", t);
        } else {
          std::printf(" %10.2fx ", base / t);
        }
        if (devices == 8) {
          // Chunked comm/compute overlap: all-reduce pieces pipeline behind
          // the remaining shard compute.
          int chunks = 0;
          const double ovl = engine.modeled_mttkrp_time_overlapped(
              mode, rank, data.nnz_scale(), data.dim_scale(mode), 0, &chunks);
          // Parity gate: the all-reduce recurrence at 1 chunk degenerates to
          // the serial model (slowest shard + all-reduce) exactly.
          const double one_chunk = engine.modeled_mttkrp_time_overlapped(
              mode, rank, data.nnz_scale(), data.dim_scale(mode), 1);
          CSTF_CHECK_MSG(std::abs(one_chunk - t) <= 1e-12 * std::abs(t),
                         "1-chunk all-reduce recurrence " << one_chunk
                         << " != serial model " << t << " on "
                         << name << " mode " << mode);
          std::printf(" %10.2fx  %7d %7.4fx", base / ovl, chunks,
                      one_chunk / t);
          if (session.enabled()) {
            bench::BenchRecord rec;
            rec.dataset = name;
            rec.machine = engine.options().device.name;
            rec.rank = rank;
            rec.phases.mttkrp = t;  // serial 8-GPU reference
            rec.extras = {{"mode", static_cast<double>(mode)},
                          {"devices", 8.0},
                          {"serial_s", t},
                          {"one_chunk_s", one_chunk},
                          {"overlap_s", ovl},
                          {"chunks", static_cast<double>(chunks)}};
            session.add_record(std::move(rec));
          }
        }
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nColumns 2-4 are speedups over 1 GPU (serial: slowest shard +\n"
      "all-reduce). \"8 ovl\" overlaps chunked all-reduce with compute on 8\n"
      "GPUs — at least the serial 8-GPU speedup, and strictly better where\n"
      "the all-reduce tail was exposed (long output modes). \"parity\" checks\n"
      "the all-reduce recurrence at 1 chunk against the serial model, which\n"
      "it must reproduce exactly (1.0000; the bench aborts otherwise).\n");
  return 0;
}
