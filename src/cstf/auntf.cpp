#include "cstf/auntf.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/random.hpp"
#include "la/blas.hpp"
#include "la/elementwise.hpp"
#include "metrics/registry.hpp"
#include "simgpu/dblas.hpp"
#include "simgpu/launch.hpp"

namespace cstf {

namespace {

/// S = Hadamard over m != mode of grams[m]; an R^2 device kernel.
void hadamard_of_grams(simgpu::Device& dev, const std::vector<Matrix>& grams,
                       int mode, Matrix& s) {
  const index_t r = s.rows();
  s.set_all(1.0);
  simgpu::KernelStats stats;
  stats.flops = static_cast<double>(r * r) * static_cast<double>(grams.size());
  stats.bytes_streamed = static_cast<double>(r * r) * simgpu::kWord *
                         static_cast<double>(grams.size() + 1);
  stats.parallel_items = static_cast<double>(r * r);
  dev.record("gram_hadamard", stats);
  for (int m = 0; m < static_cast<int>(grams.size()); ++m) {
    if (m == mode) continue;
    la::hadamard_inplace(s, grams[static_cast<std::size_t>(m)]);
  }
}

/// Normalizes H's columns by their 2-norms, absorbing them into lambda.
void normalize_device(simgpu::Device& dev, Matrix& h,
                      std::vector<real_t>& lambda) {
  simgpu::KernelStats stats;
  const double n = static_cast<double>(h.size());
  stats.flops = 3.0 * n;
  stats.bytes_streamed = 2.0 * n * simgpu::kWord;  // one read + one write pass
  stats.parallel_items = static_cast<double>(h.cols());
  stats.launches = 2;  // norm reduction + scale
  dev.record("normalize", stats);
  la::column_norms(h, lambda.data());
  la::scale_columns_inv(h, lambda.data());
}

/// The steps of one AO iteration; each is one `kind` of the
/// exec.op.duration histogram.
enum class Step {
  kMttkrp,
  kDimTreeExtend,
  kGram,
  kHadamard,
  kUpdate,
  kNormalize,
  kFit,
};

metrics::Histogram* step_duration(Step step) {
  static const auto histograms = [] {
    constexpr const char* kKinds[] = {"mttkrp",    "dimtree-extend", "gram",
                                      "hadamard",  "update",
                                      "normalize", "fit"};
    std::array<metrics::Histogram*, std::size(kKinds)> h{};
    for (std::size_t k = 0; k < h.size(); ++k) {
      h[k] = metrics::MetricsRegistry::global().histogram(
          "exec.op.duration", {{"kind", kKinds[k]}});
    }
    return h;
  }();
  return histograms[static_cast<std::size_t>(step)];
}

}  // namespace

Auntf::Auntf(simgpu::Device& dev, const MttkrpBackend& backend,
             const UpdateMethod& update, AuntfOptions options)
    : Auntf(dev, backend,
            std::vector<const UpdateMethod*>(
                static_cast<std::size_t>(backend.num_modes()), &update),
            std::move(options)) {}

Auntf::Auntf(simgpu::Device& dev, const MttkrpBackend& backend,
             std::vector<const UpdateMethod*> updates, AuntfOptions options)
    : dev_(dev),
      backend_(backend),
      updates_(std::move(updates)),
      options_(options) {
  CSTF_CHECK(options_.rank >= 1);
  CSTF_CHECK(options_.max_iterations >= 1);
  CSTF_CHECK_MSG(static_cast<int>(updates_.size()) == backend_.num_modes(),
                 "need one update method per mode");
  for (const UpdateMethod* u : updates_) CSTF_CHECK(u != nullptr);
}

void Auntf::initialize() {
  const int modes = backend_.num_modes();
  rng_ = Rng(options_.seed);
  factors_.clear();
  grams_.clear();
  states_.assign(static_cast<std::size_t>(modes), ModeState{});
  lambda_.assign(static_cast<std::size_t>(options_.rank), 1.0);
  for (int m = 0; m < modes; ++m) {
    Matrix f(backend_.dim(m), options_.rank);
    f.fill_uniform(rng_, 0.0, 1.0);
    factors_.push_back(std::move(f));
    Matrix g(options_.rank, options_.rank);
    la::gram(factors_.back(), g);
    grams_.push_back(std::move(g));
  }
  completed_iterations_ = 0;
  converged_ = false;
  prev_fit_ = 0.0;
  has_prev_fit_ = false;
  fit_history_.clear();
  phases_.clear();
  modeled_phase_.clear();
  dev_.reset();
  // Fresh factors: any chain the reuse engine carried is stale.
  if (DimTreeEngine* tree = backend_.dimtree()) tree->invalidate();
  initialized_ = true;
}

DeviceFootprint Auntf::footprint() const {
  std::vector<index_t> mode_rows;
  for (int m = 0; m < backend_.num_modes(); ++m) {
    mode_rows.push_back(backend_.dim(m));
  }
  const double tensor_bytes =
      options_.tensor_device_bytes > 0.0
          ? options_.tensor_device_bytes
          : static_cast<double>(backend_.nnz()) *
                (static_cast<double>(backend_.num_modes()) * sizeof(index_t) +
                 sizeof(real_t));
  std::optional<double> chain_bytes;
  const DimTreeEngine* tree = backend_.dimtree();
  if (tree != nullptr && tree->chain_fits()) chain_bytes = tree->chain_bytes();
  return DeviceFootprint(tensor_bytes, mode_rows, options_.rank, chain_bytes);
}

real_t Auntf::iterate() {
  CSTF_CHECK_MSG(initialized_, "call initialize() before iterate()");
  const index_t rank = options_.rank;
  if (ws_.s.rows() != rank || ws_.s.cols() != rank) ws_.s.resize(rank, rank);
  if (ws_.gram_unnorm.rows() != rank || ws_.gram_unnorm.cols() != rank) {
    ws_.gram_unnorm.resize(rank, rank);
  }

  // Each step runs inside its tracer phase (none for nullptr). A phased
  // step adds its wall time, and the modeled time since the previous phased
  // step, to its phase: the unphased fit capture rolls into NORMALIZE, and
  // the fit steps stay out of the four-phase split.
  double modeled_mark = dev_.modeled_time_s();
  const auto step = [&](Step kind, const char* phase, const auto& body) {
    Timer timer;
    {
      simgpu::ScopedPhase scope(phase != nullptr ? dev_.tracer() : nullptr,
                                phase != nullptr ? phase : "");
      body();
    }
    const double wall_s = timer.seconds();
    step_duration(kind)->observe(wall_s);
    if (phase == nullptr || kind == Step::kFit) return;
    phases_.add(phase, wall_s);
    const double now = dev_.modeled_time_s();
    modeled_phase_[phase] += now - modeled_mark;
    modeled_mark = now;
  };

  // Read once per iteration, so a budget change takes effect at the next.
  DimTreeEngine* tree = backend_.dimtree();
  const bool extend_chain = tree != nullptr && tree->chain_fits();
  const int last = backend_.num_modes() - 1;
  for (int n = 0; n <= last; ++n) {
    const auto mode = static_cast<std::size_t>(n);
    step(Step::kHadamard, phase::kGram,
         [&] { hadamard_of_grams(dev_, grams_, n, ws_.s); });
    step(Step::kMttkrp, phase::kMttkrp, [&] {
      // m_out is one workspace shared by every mode. Size it to *this* mode
      // before each call (resize discards and re-zeroes) and validate after:
      // a shape left over from a larger mode would hand the update stale
      // trailing rows, a hazard that stays latent while modes happen to run
      // in a monotone size order.
      const index_t rows = backend_.dim(n);
      if (ws_.m_out.rows() != rows || ws_.m_out.cols() != rank) {
        ws_.m_out.resize(rows, rank);
      }
      backend_.mttkrp(dev_, factors_, n, ws_.m_out);
      CSTF_CHECK_MSG(ws_.m_out.rows() == rows && ws_.m_out.cols() == rank,
                     "mttkrp workspace shape drifted for mode " << n);
    });
    step(Step::kUpdate, phase::kUpdate, [&] {
      updates_[mode]->update(dev_, ws_.s, ws_.m_out, factors_[mode],
                             states_[mode]);
      // If the chain folded this factor, the whole chain is stale (the
      // in-place buffer cannot shed one level). In the in-order sweep this
      // is a no-op — level == n here, and the extend step folds the fresh
      // contents right after normalization.
      if (tree != nullptr) tree->note_factor_updated(n);
    });
    if (n == last && options_.compute_fit) {
      // Fit needs the unnormalized Gram of the final mode and its MTTKRP
      // result; capture both before normalization rescales H.
      step(Step::kFit, nullptr, [&] {
        simgpu::dsyrk_gram(dev_, factors_[mode], ws_.gram_unnorm);
        ws_.last_m = ws_.m_out;
      });
    }
    step(Step::kNormalize, phase::kNormalize,
         [&] { normalize_device(dev_, factors_[mode], lambda_); });
    if (extend_chain && n < last) {
      // Fold the freshly-normalized factor into the chain so derive(n+1)
      // reuses it. MTTKRP phase: the fold is part of the reuse engine's
      // MTTKRP cost, and metering it there keeps the flat-vs-tree phase
      // comparison honest.
      step(Step::kDimTreeExtend, phase::kMttkrp,
           [&] { tree->extend_to(dev_, factors_, n + 1); });
    }
    step(Step::kGram, phase::kGram,
         [&] { simgpu::dsyrk_gram(dev_, factors_[mode], grams_[mode]); });
  }

  real_t fit = std::numeric_limits<real_t>::quiet_NaN();
  if (options_.compute_fit) {
    step(Step::kFit, "FIT", [&] { fit = fit_from_workspace(); });
  }
  return fit;
}

real_t Auntf::fit_from_workspace() {
  const int modes = backend_.num_modes();
  const index_t rank = options_.rank;
  const int last = modes - 1;

  // ||X_hat||^2 = sum_{r,s} [gram_unnorm(last) .* prod_{m != last} G_m]_{rs}.
  Matrix had(rank, rank);
  hadamard_of_grams(dev_, grams_, last, had);
  la::hadamard_inplace(had, ws_.gram_unnorm);
  real_t model_sq = 0.0;
  for (index_t j = 0; j < rank; ++j) {
    for (index_t i = 0; i < rank; ++i) model_sq += had(i, j);
  }

  // <X, X_hat> = sum_{i,r} M_last(i,r) * H_last_unnorm(i,r); the factor is
  // already normalized, so fold lambda back per column.
  const Matrix& h_last = factors_[static_cast<std::size_t>(last)];
  simgpu::KernelStats stats;
  stats.flops = 2.0 * static_cast<double>(ws_.last_m.size());
  stats.bytes_streamed =
      2.0 * static_cast<double>(ws_.last_m.size()) * simgpu::kWord;
  stats.parallel_items = static_cast<double>(ws_.last_m.size());
  dev_.record("fit_inner_product", stats);
  real_t inner = 0.0;
  for (index_t r = 0; r < rank; ++r) {
    inner += lambda_[static_cast<std::size_t>(r)] *
             la::dot(h_last.rows(), h_last.col(r), ws_.last_m.col(r));
  }

  const real_t x_sq = backend_.norm_sq();
  const real_t residual_sq =
      std::max<real_t>(0.0, x_sq - 2.0 * inner + model_sq);
  if (x_sq <= 0.0) return 1.0;
  return 1.0 - std::sqrt(residual_sq) / std::sqrt(x_sq);
}

AuntfResult Auntf::run() {
  if (!initialized_) initialize();
  // The loop state lives in members (not locals) so a checkpoint taken by
  // the on_iteration hook captures it and import_state() resumes mid-run
  // bit-identically — including the early-stop bookkeeping.
  while (completed_iterations_ < options_.max_iterations && !converged_) {
    const real_t fit = iterate();
    ++completed_iterations_;
    if (options_.compute_fit) {
      fit_history_.push_back(fit);
      if (has_prev_fit_ && options_.fit_tolerance > 0.0 &&
          std::abs(fit - prev_fit_) < options_.fit_tolerance) {
        converged_ = true;
      }
      prev_fit_ = fit;
      has_prev_fit_ = true;
    }
    if (options_.on_iteration) options_.on_iteration(*this, completed_iterations_);
  }
  AuntfResult result;
  result.iterations = completed_iterations_;
  result.converged = converged_;
  result.fit_history = fit_history_;
  result.final_fit = fit_history_.empty() ? 0.0 : fit_history_.back();
  return result;
}

TrainerState Auntf::export_state() const {
  TrainerState state;
  state.completed_iterations = completed_iterations_;
  state.converged = converged_;
  state.prev_fit = prev_fit_;
  state.has_prev_fit = has_prev_fit_;
  state.fit_history = fit_history_;
  state.lambda = lambda_;
  state.factors = factors_;
  state.rng = rng_.state();
  state.duals.reserve(states_.size());
  for (const ModeState& ms : states_) state.duals.push_back(ms.dual);
  // Per-mode rho = trace(Hadamard of the other modes' Grams)/R, the value
  // the next ADMM update will derive (informational: rho is recomputed from
  // the Grams each update, so it is a consequence of the factors, but
  // recording it lets an operator audit a checkpoint without replaying).
  const index_t rank = options_.rank;
  for (std::size_t m = 0; m < factors_.size(); ++m) {
    real_t trace = 0.0;
    for (index_t r = 0; r < rank; ++r) {
      real_t prod = 1.0;
      for (std::size_t k = 0; k < grams_.size(); ++k) {
        if (k == m) continue;
        prod *= grams_[k](r, r);
      }
      trace += prod;
    }
    real_t rho = trace / static_cast<real_t>(rank);
    if (rho <= 0.0) rho = 1.0;
    state.rho.push_back(rho);
  }
  return state;
}

void Auntf::import_state(const TrainerState& state) {
  const int modes = backend_.num_modes();
  CSTF_CHECK_MSG(static_cast<int>(state.factors.size()) == modes,
                 "trainer state has " << state.factors.size()
                                      << " factors, tensor has " << modes
                                      << " modes");
  CSTF_CHECK_MSG(static_cast<index_t>(state.lambda.size()) == options_.rank,
                 "trainer state rank " << state.lambda.size()
                                       << " != configured rank "
                                       << options_.rank);
  for (int m = 0; m < modes; ++m) {
    const Matrix& f = state.factors[static_cast<std::size_t>(m)];
    CSTF_CHECK_MSG(f.rows() == backend_.dim(m) && f.cols() == options_.rank,
                   "trainer state factor " << m << " shape mismatch");
  }
  CSTF_CHECK_MSG(state.duals.empty() ||
                     static_cast<int>(state.duals.size()) == modes,
                 "trainer state dual count mismatch");

  factors_ = state.factors;
  lambda_ = state.lambda;
  states_.assign(static_cast<std::size_t>(modes), ModeState{});
  if (!state.duals.empty()) {
    for (int m = 0; m < modes; ++m) {
      states_[static_cast<std::size_t>(m)].dual =
          state.duals[static_cast<std::size_t>(m)];
    }
  }
  // Grams are derived state: recompute from the restored factors with the
  // same la::gram the in-loop dsyrk_gram recompute calls, so the restored
  // caches are bit-identical to what an uninterrupted run would hold here.
  grams_.clear();
  for (int m = 0; m < modes; ++m) {
    Matrix g(options_.rank, options_.rank);
    la::gram(factors_[static_cast<std::size_t>(m)], g);
    grams_.push_back(std::move(g));
  }
  rng_.set_state(state.rng);
  completed_iterations_ = state.completed_iterations;
  converged_ = state.converged;
  prev_fit_ = state.prev_fit;
  has_prev_fit_ = state.has_prev_fit;
  fit_history_ = state.fit_history;
  phases_.clear();
  modeled_phase_.clear();
  dev_.reset();
  if (DimTreeEngine* tree = backend_.dimtree()) tree->invalidate();
  initialized_ = true;
}

KTensor Auntf::ktensor() const {
  KTensor kt;
  kt.factors = factors_;
  kt.lambda = lambda_;
  return kt;
}

}  // namespace cstf
