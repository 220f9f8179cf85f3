// Placement decision model (the paper's §7 future work, implemented):
// for each dataset, per-mode per-phase costs are modeled on both machines
// and scheduler::choose_placement picks the optimal device per phase,
// accounting for host-link transfers at device switches.
//
// Expected outcome: large long-mode tensors place everything on the GPU
// (transfers never pay for themselves); tensors whose CPU update is
// competitive (Uber, Chicago — cf. the sub-1x ADMM speedups in Figure 7) get
// hybrid or CPU-leaning plans.
#include <cstdio>

#include "bench_util.hpp"
#include "scheduler/placement.hpp"

int main() {
  cstf::bench::JsonSession session("scheduler");
  using namespace cstf;
  const auto gpu_spec = simgpu::a100();
  const index_t rank = 32;
  std::printf("=== Placement decision model (A100 + Xeon, R=%lld) ===\n\n",
              static_cast<long long>(rank));
  std::printf("%-12s %-9s %12s %12s %12s  %s\n", "Tensor", "Plan",
              "chosen [s]", "all-GPU [s]", "all-CPU [s]", "phase placement");

  for (const auto& name : bench::dataset_names()) {
    const DatasetAnalog data = bench::load_dataset(name);

    // Per-mode, per-phase costs on each machine.
    std::vector<bench::ModeledIteration> gpu_modes, cpu_modes;
    {
      BlcoBackend backend(data.tensor);
      auto update = CstfFramework::make_update(UpdateScheme::kCuAdmm,
                                               Proximity::non_negative(), 10);
      bench::modeled_iteration(data, backend, *update, gpu_spec, rank,
                               nullptr, &gpu_modes);
    }
    {
      CsfBackend backend(data.tensor);
      BlockAdmmOptions opt;
      opt.prox = Proximity::non_negative();
      BlockAdmmUpdate update(opt);
      bench::modeled_iteration(data, backend, update, simgpu::xeon_8367hc(),
                               rank, nullptr, &cpu_modes);
    }

    // Phase chain with link-boundary sizes. The tensor itself is resident on
    // both sides (uploaded once, amortized); the per-phase live data is the
    // mode's factor/MTTKRP matrix.
    std::vector<scheduler::PhaseCost> phases;
    double total_gpu = 0.0, total_cpu = 0.0;
    for (int n = 0; n < data.tensor.num_modes(); ++n) {
      const double matrix_bytes =
          static_cast<double>(data.spec.full_dims[static_cast<std::size_t>(n)]) *
          static_cast<double>(rank) * simgpu::kWord;
      const auto& g = gpu_modes[static_cast<std::size_t>(n)];
      const auto& c = cpu_modes[static_cast<std::size_t>(n)];
      const std::string mode = "m" + std::to_string(n);
      phases.push_back({mode + "/mttkrp", c.gram + c.mttkrp, g.gram + g.mttkrp,
                        matrix_bytes});
      phases.push_back({mode + "/update", c.update, g.update, matrix_bytes});
      phases.push_back({mode + "/norm", c.normalize, g.normalize, matrix_bytes});
      total_gpu += g.total();
      total_cpu += c.total();
    }

    const scheduler::PlacementPlan plan =
        scheduler::choose_placement(phases, gpu_spec);
    std::string placements;
    for (const auto& step : plan.steps) {
      placements += step.target == scheduler::Target::kGpu ? 'G' : 'C';
    }
    std::printf("%-12s %-9s %12.5f %12.5f %12.5f  %s\n", name.c_str(),
                plan.hybrid() ? "hybrid"
                : plan.all_on(scheduler::Target::kGpu) ? "all-GPU" : "all-CPU",
                plan.total_seconds, total_gpu, total_cpu, placements.c_str());
  }
  std::printf(
      "\nPer-phase letters: G = GPU, C = CPU, in (mttkrp, update, normalize)\n"
      "order per mode. The chosen plan is never worse than either pure\n"
      "placement by construction.\n");
  return 0;
}
