// cstf_info — inspect a sparse tensor and report the statistics that drive
// cSTF performance (the quantities the paper's analysis reasons about).
//
//   cstf_info --input data.tns
//   cstf_info --dataset NELL2
//
// Reports dimensions, nonzeros, density, per-mode fiber statistics (distinct
// indices, average nonzeros per used index — the MTTKRP reuse factor), the
// update/MTTKRP work ratio of Eq. 3, and the storage cost of each supported
// format.
//
// With --plan, additionally builds the trainer for the tensor (at --rank,
// optionally --mttkrp auto|flat|dimtree) and prints its device footprint:
// one row per buffer (resident buffers marked `*`) and the peak
// CstfFramework::device_footprint_bytes() reports (DESIGN.md §12). When the
// dimension-tree engine is in effect the table is followed by the chosen
// tree: node shapes, reuse factor, and intermediate bytes against the
// budget (DESIGN.md §13).
//
// With --metrics (standalone, no tensor needed), prints the process metrics
// catalog: every instrument the codebase registers, with type, labels,
// unit, and help text (the same catalog docs/METRICS.md documents).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "cstf/framework.hpp"
#include "formats/alto.hpp"
#include "formats/blco.hpp"
#include "formats/csf.hpp"
#include "metrics/catalog.hpp"
#include "mttkrp/scatter.hpp"
#include "tensor/datasets.hpp"
#include "tensor/io.hpp"
#include "flag_parse.hpp"

namespace {

using namespace cstf;

[[noreturn]] void usage(const char* message = nullptr) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: cstf_info (--input FILE.tns | --dataset NAME) "
               "[--rank N] [--plan] "
               "[--mttkrp auto|flat|dimtree]\n"
               "       cstf_info --metrics\n");
  std::exit(2);
}

void print_metrics_catalog() {
  std::size_t count = 0;
  const metrics::CatalogEntry* entries = metrics::catalog_entries(&count);
  std::printf("%-32s %-10s %-8s %-8s %s\n", "name", "type", "labels", "unit",
              "help");
  for (std::size_t i = 0; i < count; ++i) {
    const metrics::CatalogEntry& e = entries[i];
    std::printf("%-32s %-10s %-8s %-8s %s\n", e.name,
                metrics::instrument_type_name(e.type),
                e.label_keys[0] != '\0' ? e.label_keys : "-", e.unit, e.help);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string input, dataset;
  index_t rank = 32;
  bool show_plan = false;
  bool show_metrics = false;
  MttkrpMode mttkrp_mode = MttkrpMode::kAuto;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--input") input = value();
    else if (arg == "--dataset") dataset = value();
    else if (arg == "--rank") {
      rank = tools::parse_count_flag(usage, arg, value(), 1,
                                     std::numeric_limits<index_t>::max());
    }
    else if (arg == "--plan") show_plan = true;
    else if (arg == "--metrics") show_metrics = true;
    else if (arg == "--mttkrp") {
      if (!parse_mttkrp_mode(value(), &mttkrp_mode)) usage();
    }
    else usage();
  }
  if (show_metrics && input.empty() && dataset.empty()) {
    print_metrics_catalog();
    return 0;
  }
  if (input.empty() == dataset.empty()) usage();

  try {
    const SparseTensor t =
        input.empty() ? make_analog(dataset).tensor : read_tns_file(input);
    std::printf("tensor     : %s\n", t.shape_string().c_str());
    std::printf("density    : %.3e\n", t.density());
    std::printf("||X||_F    : %.6e\n\n", std::sqrt(t.frobenius_norm_sq()));

    std::printf("%-6s %12s %14s %16s %18s %11s\n", "mode", "length",
                "distinct", "nnz/used-idx", "update/mttkrp work", "scatter");
    const ScatterOptions scatter_opts;  // defaults: kAuto resolution
    double sum_dims = 0.0;
    for (int m = 0; m < t.num_modes(); ++m) {
      std::vector<bool> seen(static_cast<std::size_t>(t.dim(m)), false);
      index_t distinct = 0;
      for (index_t v : t.indices(m)) {
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = true;
          ++distinct;
        }
      }
      sum_dims += static_cast<double>(t.dim(m));
      // Eq. 3 per-mode update flops (19IR + 2IR^2, 10 inner iterations)
      // against the per-mode MTTKRP flops (~nnz * R * modes).
      const double update_w =
          10.0 * (19.0 * static_cast<double>(t.dim(m)) * static_cast<double>(rank) +
                  2.0 * static_cast<double>(t.dim(m)) * static_cast<double>(rank * rank));
      const double mttkrp_w = static_cast<double>(t.nnz()) *
                              static_cast<double>(rank) *
                              static_cast<double>(t.num_modes());
      // The strategy kAuto would pick for this mode.
      const ScatterStrategy picked =
          resolve_scatter_strategy(scatter_opts, t.dim(m), rank, t.nnz());
      std::printf("%-6d %12lld %14lld %16.2f %18.3f %11s\n", m,
                  static_cast<long long>(t.dim(m)),
                  static_cast<long long>(distinct),
                  static_cast<double>(t.nnz()) /
                      static_cast<double>(std::max<index_t>(distinct, 1)),
                  update_w / mttkrp_w, scatter_strategy_name(picked));
    }
    std::printf("\nsum of mode lengths: %.3e (x R = factor elements: %.3e)\n",
                sum_dims, sum_dims * static_cast<double>(rank));
    std::printf("the paper's sparse-TF regime: factor elements comparable to "
                "nnz (%.3e)\n\n", static_cast<double>(t.nnz()));

    const double coo_bytes =
        static_cast<double>(t.nnz()) *
        (static_cast<double>(t.num_modes()) * sizeof(index_t) + sizeof(real_t));
    const CsfTensor csf(t, 0);
    const AltoTensor alto(t);
    const BlcoTensor blco(t);
    std::printf("%-8s %14s %12s\n", "format", "bytes", "vs COO");
    std::printf("%-8s %14.0f %11.2fx\n", "COO", coo_bytes, 1.0);
    std::printf("%-8s %14.0f %11.2fx\n", "CSF", csf.storage_bytes(),
                csf.storage_bytes() / coo_bytes);
    std::printf("%-8s %14.0f %11.2fx\n", "ALTO", alto.storage_bytes(),
                alto.storage_bytes() / coo_bytes);
    std::printf("%-8s %14.0f %11.2fx  (bit layout: %d bits/coordinate)\n",
                "BLCO", blco.storage_bytes(),
                blco.storage_bytes() / coo_bytes,
                blco.encoding().total_bits());

    if (show_plan) {
      FrameworkOptions opts;
      opts.rank = rank;
      opts.mttkrp_mode = mttkrp_mode;
      CstfFramework framework(t, opts);
      std::printf("\ndevice footprint (rank %lld, mttkrp %s%s):\n%s",
                  static_cast<long long>(rank),
                  mttkrp_mode_name(framework.resolved_mttkrp_mode()),
                  mttkrp_mode == MttkrpMode::kAuto ? ", auto-resolved" : "",
                  framework.driver().footprint().describe().c_str());
      if (const DimTreeEngine* tree = framework.backend().dimtree()) {
        std::printf("\n%s", describe_dimtree(*tree).c_str());
      } else {
        std::printf("\nmttkrp engine: flat per-mode kernels "
                    "(no dimension tree; rerun with --mttkrp dimtree to "
                    "force one)\n");
      }
      // Cache telemetry: the scatter plan cache (one resolve per (mode,
      // shape)). The dimtree engine keeps its own scatter-plan cache for the
      // chain kernels.
      const ScatterPlanCache& scatter_plans = framework.backend().scatter_plans();
      std::printf("\nscatter plan cache: %lld hits, %lld misses\n",
                  static_cast<long long>(scatter_plans.hits()),
                  static_cast<long long>(scatter_plans.misses()));
      if (const DimTreeEngine* tree = framework.backend().dimtree()) {
        std::printf("dimtree scatter plan cache: %lld hits, %lld misses\n",
                    static_cast<long long>(tree->scatter_plans().hits()),
                    static_cast<long long>(tree->scatter_plans().misses()));
      }
    }
    if (show_metrics) {
      std::printf("\n");
      print_metrics_catalog();
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "cstf_info: %s\n", e.what());
    return 1;
  }
  return 0;
}
