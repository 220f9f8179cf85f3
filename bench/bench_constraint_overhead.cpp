// The cost of constraints: per-iteration modeled time of unconstrained
// CP-ALS vs non-negative cSTF with cuADMM (10 inner iterations), on the GPU
// model — quantifying the paper's premise that adding constraints creates a
// new bottleneck in the update phase.
#include <cstdio>

#include "bench_util.hpp"
#include "updates/als.hpp"

int main() {
  cstf::bench::JsonSession session("constraint_overhead");
  using namespace cstf;
  const auto spec = simgpu::a100();
  const index_t rank = 32;
  std::printf("=== Constraint overhead: unconstrained ALS vs cuADMM "
              "(A100 model, R=%lld) ===\n\n",
              static_cast<long long>(rank));
  std::printf("%-12s %12s %12s %12s %16s\n", "Tensor", "ALS [s]",
              "cuADMM [s]", "overhead", "update share");

  std::vector<double> overheads;
  for (const auto& name : bench::dataset_names()) {
    const DatasetAnalog data = bench::load_dataset(name);
    BlcoBackend backend(data.tensor);
    AlsUpdate als;
    const auto t_als =
        bench::modeled_iteration(data, backend, als, spec, rank);
    auto cuadmm = CstfFramework::make_update(UpdateScheme::kCuAdmm,
                                             Proximity::non_negative(), 10);
    const auto t_admm =
        bench::modeled_iteration(data, backend, *cuadmm, spec, rank);
    const double overhead = t_admm.total() / t_als.total();
    overheads.push_back(overhead);
    std::printf("%-12s %12.5f %12.5f %11.2fx %15.1f%%\n", name.c_str(),
                t_als.total(), t_admm.total(), overhead,
                100.0 * t_admm.update / t_admm.total());
  }
  std::printf("%-12s %12s %12s %11.2fx\n", "GeoMean", "", "",
              bench::geomean(overheads));
  std::printf(
      "\nShape to verify: constraints cost more where mode lengths are long\n"
      "(the 10-inner-iteration ADMM re-touches the factor repeatedly), the\n"
      "premise behind optimizing the update phase at all.\n");
  return 0;
}
