#include "cstf/framework.hpp"

#include "common/error.hpp"
#include "cstf/checkpoint.hpp"

namespace cstf {

std::unique_ptr<UpdateMethod> CstfFramework::make_update(
    UpdateScheme scheme, const Proximity& prox, int admm_inner_iterations) {
  switch (scheme) {
    case UpdateScheme::kCuAdmm: {
      AdmmOptions o;
      o.prox = prox;
      o.inner_iterations = admm_inner_iterations;
      o.operation_fusion = true;
      o.preinversion = true;
      return std::make_unique<AdmmUpdate>(o);
    }
    case UpdateScheme::kAdmm: {
      AdmmOptions o;
      o.prox = prox;
      o.inner_iterations = admm_inner_iterations;
      o.operation_fusion = false;
      o.preinversion = false;
      return std::make_unique<AdmmUpdate>(o);
    }
    case UpdateScheme::kMu:
      return std::make_unique<MuUpdate>();
    case UpdateScheme::kHals:
      return std::make_unique<HalsUpdate>();
    case UpdateScheme::kAls:
      return std::make_unique<AlsUpdate>();
    case UpdateScheme::kBpp:
      return std::make_unique<BppUpdate>();
  }
  throw Error("unknown update scheme");
}

CstfFramework::CstfFramework(const SparseTensor& tensor,
                             FrameworkOptions options)
    : options_(std::move(options)),
      device_(options_.device),
      backend_(tensor, options_.blco_block_capacity, options_.scatter),
      update_(make_update(options_.scheme, options_.prox,
                          options_.admm_inner_iterations)) {
  resolved_mttkrp_ = options_.mttkrp_mode;
  if (resolved_mttkrp_ == MttkrpMode::kAuto) {
    resolved_mttkrp_ = resolve_mttkrp_mode(
        tensor, options_.rank, options_.scatter, options_.device,
        options_.dimtree_budget_bytes, backend_.tensor().storage_bytes());
  }
  if (resolved_mttkrp_ == MttkrpMode::kDimtree) {
    backend_.enable_dimtree(tensor, options_.rank,
                            options_.dimtree_budget_bytes);
  }

  AuntfOptions auntf;
  auntf.rank = options_.rank;
  auntf.max_iterations = options_.max_iterations;
  auntf.fit_tolerance = options_.fit_tolerance;
  auntf.compute_fit = options_.compute_fit;
  auntf.seed = options_.seed;
  auntf.tensor_device_bytes = backend_.tensor().storage_bytes();
  if (options_.checkpoint_every > 0) {
    CSTF_CHECK_MSG(!options_.checkpoint_path.empty(),
                   "checkpoint_every > 0 requires checkpoint_path");
    auntf.on_iteration = [this](const Auntf&, int completed) {
      if (completed % options_.checkpoint_every == 0) {
        write_checkpoint(options_.checkpoint_path);
      }
    };
  }
  driver_ = std::make_unique<Auntf>(device_, backend_, *update_, auntf);
}

void CstfFramework::write_checkpoint(const std::string& path) const {
  TrainingCheckpoint checkpoint;
  checkpoint.state = driver_->export_state();
  checkpoint.options_digest = digest_training_options(options_);
  checkpoint.seed = options_.seed;
  save_checkpoint(checkpoint, path);
}

void CstfFramework::resume_from_checkpoint(const std::string& path) {
  TrainingCheckpoint checkpoint = load_checkpoint(path);
  const std::uint64_t expected = digest_training_options(options_);
  if (checkpoint.options_digest != expected) {
    throw_model_io(ModelIoStatus::kOptionsMismatch,
                   path + ": checkpoint was written under different training "
                          "options (digest mismatch); resume must only change "
                          "max_iterations / convergence knobs");
  }
  try {
    driver_->import_state(checkpoint.state);
  } catch (const Error& e) {
    // Structural mismatch the digest cannot see (e.g. a different tensor
    // with the same options): surface it as a typed load failure.
    throw_model_io(ModelIoStatus::kInvalidModel, e.what());
  }
  resumed_ = true;
}

AuntfResult CstfFramework::run() {
  if (!options_.resume_from.empty() && !resumed_) {
    resume_from_checkpoint(options_.resume_from);
  }
  AuntfResult result = driver_->run();
  // Exit-path sanity: a NaN that slipped into a factor (bad input data, a
  // broken kernel) would otherwise silently poison fit numbers and any model
  // saved for serving.
  driver_->ktensor().validate();
  return result;
}

double CstfFramework::device_footprint_bytes() const {
  return driver_->footprint().peak_bytes();
}

}  // namespace cstf
