#include "gcp/poisson_ntf.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/random.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "simgpu/launch.hpp"

namespace cstf {

namespace {

// Refreshes the model values at the tensor's nonzeros.
void evaluate_model(const SparseTensor& x, const std::vector<Matrix>& factors,
                    std::vector<real_t>& out) {
  const int modes = x.num_modes();
  const index_t rank = factors[0].cols();
  out.resize(static_cast<std::size_t>(x.nnz()));
  parallel_for_blocked(0, x.nnz(), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      real_t acc = 0.0;
      for (index_t r = 0; r < rank; ++r) {
        real_t prod = 1.0;
        for (int m = 0; m < modes; ++m) {
          prod *= factors[static_cast<std::size_t>(m)](
              x.indices(m)[static_cast<std::size_t>(i)], r);
        }
        acc += prod;
      }
      out[static_cast<std::size_t>(i)] = acc;
    }
  });
}

// Per-column sums of `f`, each over the rows in ascending order.
std::vector<real_t> column_sums(const Matrix& f) {
  std::vector<real_t> sums(static_cast<std::size_t>(f.cols()), 0.0);
  for (index_t i = 0; i < f.rows(); ++i) {
    const real_t* row = f.row(i);
    for (index_t r = 0; r < f.cols(); ++r) sums[static_cast<std::size_t>(r)] += row[r];
  }
  return sums;
}

}  // namespace

PoissonNtf::PoissonNtf(const SparseTensor& tensor, PoissonNtfOptions options)
    : tensor_(tensor), options_(options), device_(options.device) {
  CSTF_CHECK(options_.rank >= 1 && options_.max_iterations >= 1);
  CSTF_CHECK_MSG(options_.epsilon > 0.0 && std::isfinite(options_.epsilon),
                 "Poisson NTF: epsilon must be a positive finite loss floor "
                 "(got " << options_.epsilon << ")");
  for (real_t v : tensor_.values()) {
    CSTF_CHECK_MSG(v >= 0.0, "Poisson NTF requires non-negative counts");
  }
  Rng rng(options_.seed);
  for (int m = 0; m < tensor_.num_modes(); ++m) {
    Matrix f(tensor_.dim(m), options_.rank);
    f.fill_uniform(rng, 0.1, 1.0);  // strictly positive start
    factors_.push_back(std::move(f));
  }
}

void PoissonNtf::set_factors(std::vector<Matrix> factors) {
  CSTF_CHECK_MSG(
      static_cast<int>(factors.size()) == tensor_.num_modes(),
      "set_factors: " << factors.size() << " factors for a "
                      << tensor_.num_modes() << "-mode tensor");
  for (int m = 0; m < tensor_.num_modes(); ++m) {
    const Matrix& f = factors[static_cast<std::size_t>(m)];
    CSTF_CHECK_MSG(f.rows() == tensor_.dim(m) && f.cols() == options_.rank,
                   "set_factors: mode " << m << " factor is " << f.rows()
                                        << "x" << f.cols() << ", expected "
                                        << tensor_.dim(m) << "x"
                                        << options_.rank);
    for (index_t e = 0; e < f.size(); ++e) {
      const real_t v = f.data()[e];
      CSTF_CHECK_MSG(v >= 0.0 && std::isfinite(v),
                     "set_factors: negative or non-finite entry in mode "
                         << m);
    }
  }
  factors_ = std::move(factors);
}

real_t PoissonNtf::objective() const {
  const index_t rank = options_.rank;
  // Model mass over all cells: sum_r prod_m colsum_m(r).
  std::vector<std::vector<real_t>> colsums;
  for (const Matrix& f : factors_) colsums.push_back(column_sums(f));
  real_t mass = 0.0;
  for (index_t r = 0; r < rank; ++r) {
    real_t prod = 1.0;
    for (const std::vector<real_t>& sums : colsums) {
      prod *= sums[static_cast<std::size_t>(r)];
    }
    mass += prod;
  }
  // - sum_nnz x * log(x_hat).
  std::vector<real_t> model;
  evaluate_model(tensor_, factors_, model);
  const real_t eps = options_.epsilon;
  const real_t log_term = parallel_sum(0, tensor_.nnz(), [&](index_t i) {
    return tensor_.values()[static_cast<std::size_t>(i)] *
           std::log(std::max(model[static_cast<std::size_t>(i)], eps));
  });
  return mass - log_term;
}

void PoissonNtf::sweep_mode(int mode) {
  const int modes = tensor_.num_modes();
  const index_t rank = options_.rank;
  Matrix& h = factors_[static_cast<std::size_t>(mode)];
  const real_t eps = options_.epsilon;

  evaluate_model(tensor_, factors_, model_at_nnz_);

  // Phi = MTTKRP of the ratio tensor (x / x_hat), through the scatter
  // engine like CooBackend, so Phi is bit-reproducible run to run.
  const ScatterStrategy strategy = resolve_scatter_strategy(
      ScatterOptions{}, h.rows(), rank, tensor_.nnz());
  const ScatterPlan* plan = nullptr;
  if (strategy == ScatterStrategy::kSorted) {
    plan = &plans_.get(mode, [&] { return coo_scatter_plan(tensor_, mode); });
  }
  {
    simgpu::KernelStats stats;
    const auto nnz = static_cast<double>(tensor_.nnz());
    stats.flops = nnz * static_cast<double>(rank * (modes + 2));
    stats.bytes_random =
        nnz * static_cast<double>(rank * modes) * simgpu::kWord;
    stats.bytes_streamed = nnz * (static_cast<double>(modes) * sizeof(index_t) +
                                  2.0 * sizeof(real_t));
    stats.parallel_items = nnz;
    apply_scatter_stats(stats, strategy, h.rows(), rank, nnz);
    device_.record("poisson_ratio_mttkrp", stats);
  }
  Matrix phi(h.rows(), rank);
  const real_t* values = tensor_.values().data();
  const real_t* model = model_at_nnz_.data();
  const index_t* out_rows = tensor_.indices(mode).data();
  const RowGather gather(factors_, mode);
  const index_t* coords[kMaxModes];
  for (int g = 0; g < gather.count; ++g) {
    coords[g] = tensor_.indices(gather.mode[g]).data();
  }
  with_gather_count(gather.count, [&](auto count) {
    constexpr int G = decltype(count)::value;
    scatter_accumulate(
        strategy, phi, tensor_.nnz(),
        [&](index_t i, const auto& acc) {
          const auto at = static_cast<std::size_t>(i);
          const real_t ratio = values[at] / std::max(model[at], eps);
          gather.add<G>(acc(out_rows[at]), rank,
                        [ratio](index_t) { return ratio; },
                        [&](int g) { return coords[g][at]; });
        },
        plan);
  });

  // d(r) = prod_{k != mode} colsum_k(r).
  std::vector<real_t> denom(static_cast<std::size_t>(rank), 1.0);
  for (int m = 0; m < modes; ++m) {
    if (m == mode) continue;
    const std::vector<real_t> sums =
        column_sums(factors_[static_cast<std::size_t>(m)]);
    for (index_t r = 0; r < rank; ++r) {
      denom[static_cast<std::size_t>(r)] *= sums[static_cast<std::size_t>(r)];
    }
  }

  // Multiplicative update.
  {
    simgpu::KernelStats stats;
    stats.flops = 2.0 * static_cast<double>(h.size());
    stats.bytes_streamed = 3.0 * static_cast<double>(h.size()) * simgpu::kWord;
    stats.parallel_items = static_cast<double>(h.size());
    device_.record("poisson_mu_update", stats);
  }
  for (real_t& d : denom) d = std::max(d, eps);
  parallel_for_blocked(0, h.rows(), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      real_t* hi_row = h.row(i);
      const real_t* phi_row = phi.row(i);
      for (index_t r = 0; r < rank; ++r) {
        hi_row[r] = std::max(
            hi_row[r] * phi_row[r] / denom[static_cast<std::size_t>(r)],
            real_t{0});
      }
    }
  });
}

PoissonNtfResult PoissonNtf::run() {
  PoissonNtfResult result;
  real_t prev = objective();
  for (int it = 0; it < options_.max_iterations; ++it) {
    for (int m = 0; m < tensor_.num_modes(); ++m) sweep_mode(m);
    const real_t now = objective();
    result.objective_history.push_back(now);
    result.final_objective = now;
    result.iterations = it + 1;
    if (options_.tolerance > 0.0 && prev != 0.0 &&
        std::abs(prev - now) / std::abs(prev) < options_.tolerance) {
      result.converged = true;
      break;
    }
    prev = now;
  }
  return result;
}

KTensor PoissonNtf::ktensor() const {
  KTensor kt;
  kt.factors = factors_;
  kt.lambda.assign(static_cast<std::size_t>(options_.rank), 1.0);
  return kt;
}

}  // namespace cstf
