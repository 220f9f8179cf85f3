// cstf_cli — command-line constrained sparse tensor factorization.
//
//   cstf_cli --input data.tns [options]
//   cstf_cli --dataset Delicious [options]          (synthetic Table-2 analog)
//
// Options:
//   --rank N            factorization rank (default 16)
//   --iters N           max outer iterations (default 20)
//   --tol X             fit tolerance for early stop (default 1e-4)
//   --scheme S          cuadmm | admm | mu | hals | als | bpp (default cuadmm)
//   --constraint C      nonneg | none | l1:<w> | l1nn:<w> | box:<lo>,<hi> |
//                       simplex | smooth:<w> (default nonneg)
//   --device D          a100 | h100 | xeon (cost-model target, default a100)
//   --scatter S         auto | privatized | sorted — MTTKRP output
//                       accumulation strategy (default auto; sorted makes
//                       the dimtree engine bit-identical to the reference;
//                       see DESIGN.md §8)
//   --mttkrp M          auto | flat | dimtree — MTTKRP engine: flat per-mode
//                       kernels or the dimension-tree reuse engine; auto
//                       models both and picks per tensor (DESIGN.md §13)
//   --dimtree-budget B  byte cap on the dimension tree's chain intermediate
//                       (default 256 MiB; over budget the run is flat)
//   --seed N            RNG seed for the factor initialization (default 42)
//   --output PREFIX     write factors to PREFIX.mode<k>.txt and lambda to
//                       PREFIX.lambda.txt
//   --checkpoint-every N  write a crash-consistent CSTFCKPT training
//                       checkpoint every N outer iterations (requires
//                       --checkpoint-path)
//   --checkpoint-path P where the periodic training checkpoint goes
//   --resume PATH       resume training from a CSTFCKPT checkpoint; with the
//                       same options the resumed run is bit-identical to an
//                       uninterrupted one
//   --save PATH         save a versioned, checksummed .cstf serving model
//                       (factors + constraint + provenance; loadable by
//                       cstf_serve and cstf::serve::load_model)
//   --model-name NAME   store key recorded in the .cstf model (default: the
//                       dataset name or input path)
//   --profile           print a per-kernel summary (spans, launches, flops,
//                       bytes, roofline-modeled and measured wall time)
//   --trace FILE        write a chrome://tracing JSON timeline of every
//                       kernel launch and phase (open in chrome://tracing or
//                       https://ui.perfetto.dev)
//   --metrics-out FILE  dump the process metrics registry (kernel totals,
//                       cache hit/miss counters, op-duration histograms) in
//                       Prometheus text format after the run
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "cstf/framework.hpp"
#include "metrics/exposition.hpp"
#include "metrics/registry.hpp"
#include "serve/model_io.hpp"
#include "simgpu/trace.hpp"
#include "tensor/datasets.hpp"
#include "tensor/io.hpp"
#include "flag_parse.hpp"

namespace {

using namespace cstf;

[[noreturn]] void usage(const char* message) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: cstf_cli (--input FILE.tns | --dataset NAME) [--rank N]"
               " [--iters N]\n"
               "                [--tol X]"
               " [--scheme cuadmm|admm|mu|hals|als|bpp]\n"
               "                [--constraint nonneg|none|l1:W|l1nn:W|"
               "box:LO,HI|simplex|smooth:W]\n"
               "                [--device a100|h100|xeon]"
               " [--scatter auto|privatized|sorted]\n"
               "                [--mttkrp auto|flat|dimtree]"
               " [--dimtree-budget BYTES]\n"
               "                [--seed N] [--output PREFIX]\n"
               "                [--checkpoint-every N --checkpoint-path P]"
               " [--resume P]\n"
               "                [--save PATH] [--model-name NAME]\n"
               "                [--profile] [--trace FILE]"
               " [--metrics-out FILE]\n");
  std::exit(2);
}

Proximity parse_constraint(const std::string& spec) {
  if (spec == "nonneg") return Proximity::non_negative();
  if (spec == "none") return Proximity::identity();
  if (spec == "simplex") return Proximity::simplex();
  const auto weight = [&](std::size_t prefix) {
    return tools::parse_real_flag(usage, "--constraint weight",
                                  spec.substr(prefix), 0.0);
  };
  if (spec.rfind("l1nn:", 0) == 0) return Proximity::l1_non_negative(weight(5));
  if (spec.rfind("l1:", 0) == 0) return Proximity::l1(weight(3));
  if (spec.rfind("smooth:", 0) == 0) return Proximity::smooth(weight(7));
  if (spec.rfind("box:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const auto comma = rest.find(',');
    if (comma == std::string::npos) usage("box constraint needs box:LO,HI");
    const double lo = tools::parse_real_flag(usage, "--constraint box LO",
                                             rest.substr(0, comma));
    return Proximity::box(lo, tools::parse_real_flag(
                                  usage, "--constraint box HI",
                                  rest.substr(comma + 1), lo));
  }
  usage(("unknown constraint: " + spec).c_str());
}

UpdateScheme parse_scheme(const std::string& spec) {
  if (spec == "cuadmm") return UpdateScheme::kCuAdmm;
  if (spec == "admm") return UpdateScheme::kAdmm;
  if (spec == "mu") return UpdateScheme::kMu;
  if (spec == "hals") return UpdateScheme::kHals;
  if (spec == "als") return UpdateScheme::kAls;
  if (spec == "bpp") return UpdateScheme::kBpp;
  usage(("unknown scheme: " + spec).c_str());
}

simgpu::DeviceSpec parse_device(const std::string& spec) {
  if (spec == "a100") return simgpu::a100();
  if (spec == "h100") return simgpu::h100();
  if (spec == "xeon") return simgpu::xeon_8367hc();
  usage(("unknown device: " + spec).c_str());
}

void write_matrix(const Matrix& m, const std::string& path) {
  std::ofstream out(path);
  CSTF_CHECK_MSG(out.good(), "cannot write " << path);
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t j = 0; j < m.cols(); ++j) {
      out << m(i, j) << (j + 1 < m.cols() ? '\t' : '\n');
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string input, dataset, output, trace_path;
  std::string save_path, model_name, metrics_path;
  bool profile = false;
  FrameworkOptions options;
  options.rank = 16;
  options.max_iterations = 20;
  options.fit_tolerance = 1e-4;

  constexpr int kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    auto count = [&](long long min_value, long long max_value) {
      return tools::parse_count_flag(usage, arg, value(), min_value,
                                     max_value);
    };
    if (arg == "--input") input = value();
    else if (arg == "--dataset") dataset = value();
    else if (arg == "--rank") {
      options.rank = count(1, std::numeric_limits<index_t>::max());
    }
    else if (arg == "--iters") {
      options.max_iterations = static_cast<int>(count(1, kIntMax));
    }
    else if (arg == "--tol") {
      options.fit_tolerance = tools::parse_real_flag(usage, arg, value(), 0.0);
    }
    else if (arg == "--scheme") options.scheme = parse_scheme(value());
    else if (arg == "--constraint") options.prox = parse_constraint(value());
    else if (arg == "--device") options.device = parse_device(value());
    else if (arg == "--scatter") {
      const std::string spec = value();
      if (!parse_scatter_strategy(spec, &options.scatter.strategy)) {
        usage(("unknown scatter strategy: " + spec).c_str());
      }
    }
    else if (arg == "--mttkrp") {
      const std::string spec = value();
      if (!parse_mttkrp_mode(spec, &options.mttkrp_mode)) {
        usage(("unknown mttkrp mode: " + spec).c_str());
      }
    }
    else if (arg == "--dimtree-budget") {
      options.dimtree_budget_bytes =
          tools::parse_bytes_flag(usage, arg, value());
    }
    else if (arg == "--seed") {
      options.seed = tools::parse_seed_flag(usage, arg, value());
    }
    else if (arg == "--output") output = value();
    else if (arg == "--checkpoint-every") {
      options.checkpoint_every = static_cast<int>(count(0, kIntMax));
    }
    else if (arg == "--checkpoint-path") options.checkpoint_path = value();
    else if (arg == "--resume") options.resume_from = value();
    else if (arg == "--save") save_path = value();
    else if (arg == "--model-name") model_name = value();
    else if (arg == "--profile") profile = true;
    else if (arg == "--trace") trace_path = value();
    else if (arg.rfind("--trace=", 0) == 0) trace_path = arg.substr(8);
    else if (arg == "--metrics-out") metrics_path = value();
    else if (arg == "--help" || arg == "-h") usage(nullptr);
    else usage(("unknown argument: " + arg).c_str());
  }
  if (input.empty() == dataset.empty()) {
    usage("exactly one of --input / --dataset is required");
  }
  if (options.checkpoint_every > 0 && options.checkpoint_path.empty()) {
    usage("--checkpoint-every requires --checkpoint-path");
  }

  try {
    const SparseTensor tensor =
        input.empty() ? make_analog(dataset).tensor : read_tns_file(input);
    std::printf("tensor: %s\n", tensor.shape_string().c_str());
    std::printf("constraint: %s, rank %lld, device %s, scatter %s\n",
                options.prox.name().c_str(),
                static_cast<long long>(options.rank),
                options.device.name.c_str(),
                scatter_strategy_name(options.scatter.strategy));

    if (!options.resume_from.empty()) {
      std::printf("resuming from checkpoint %s\n", options.resume_from.c_str());
    }
    if (options.checkpoint_every > 0) {
      std::printf("checkpointing to %s every %d iteration(s)\n",
                  options.checkpoint_path.c_str(), options.checkpoint_every);
    }

    CstfFramework framework(tensor, options);
    std::printf("mttkrp engine: %s%s\n",
                mttkrp_mode_name(framework.resolved_mttkrp_mode()),
                options.mttkrp_mode == MttkrpMode::kAuto
                    ? " (auto-resolved)" : "");
    simgpu::Tracer tracer;
    if (profile || !trace_path.empty()) {
      framework.device().set_tracer(&tracer);
    }
    const AuntfResult result = framework.run();
    std::printf("\n%d iteration(s), final fit %.5f%s\n", result.iterations,
                result.final_fit, result.converged ? " (converged)" : "");
    std::printf("modeled %s execution time: %.4f s\n",
                options.device.name.c_str(),
                framework.device().modeled_time_s());
    std::printf("phase breakdown (host wall time):\n");
    for (const auto& [phase, sec] : framework.driver().phases().totals()) {
      std::printf("  %-10s %9.4f s\n", phase.c_str(), sec);
    }
    if (profile) {
      std::printf("\nper-kernel profile (modeled %s, measured host):\n%s",
                  options.device.name.c_str(),
                  tracer.summary_table().c_str());
    }
    if (!trace_path.empty()) {
      tracer.write_chrome_trace(trace_path);
      std::printf("trace written to %s\n", trace_path.c_str());
    }

    if (!output.empty()) {
      const KTensor model = framework.ktensor();
      for (int m = 0; m < model.num_modes(); ++m) {
        write_matrix(model.factors[static_cast<std::size_t>(m)],
                     output + ".mode" + std::to_string(m) + ".txt");
      }
      std::ofstream lam(output + ".lambda.txt");
      for (real_t l : model.lambda) lam << l << '\n';
      std::printf("factors written to %s.mode*.txt\n", output.c_str());
    }
    if (!save_path.empty()) {
      serve::SavedModel saved;
      saved.model = framework.ktensor();
      saved.meta.name =
          model_name.empty() ? (dataset.empty() ? input : dataset)
                             : model_name;
      saved.meta.set_constraint(options.prox);
      saved.meta.final_fit = result.final_fit;
      saved.meta.options_digest = serve::digest_options(options);
      saved.meta.seed = options.seed;
      saved.meta.iterations = static_cast<std::uint32_t>(result.iterations);
      serve::save_model(saved, save_path);
      std::printf("serving model '%s' written to %s\n",
                  saved.meta.name.c_str(), save_path.c_str());
    }
    if (!metrics_path.empty()) {
      metrics::write_text_atomic(
          metrics_path, metrics::to_prometheus(
                            metrics::MetricsRegistry::global().snapshot()));
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "cstf_cli: %s\n", e.what());
    return 1;
  }
  return 0;
}
