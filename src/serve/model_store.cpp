#include "serve/model_store.hpp"

#include <utility>

#include "la/blas.hpp"
#include "la/elementwise.hpp"

namespace cstf::serve {

ServableModel::ServableModel(SavedModel saved, std::uint64_t generation)
    : saved_(std::move(saved)), generation_(generation) {
  saved_.model.validate();
  const KTensor& model = saved_.model;
  const int modes = model.num_modes();
  const index_t rank = model.rank();

  grams_.resize(static_cast<std::size_t>(modes));
  for (int m = 0; m < modes; ++m) {
    grams_[static_cast<std::size_t>(m)].resize(rank, rank);
    la::gram(model.factors[static_cast<std::size_t>(m)],
             grams_[static_cast<std::size_t>(m)]);
  }

  systems_.resize(static_cast<std::size_t>(modes));
  fold_in_grams_.reserve(static_cast<std::size_t>(modes));
  for (int m = 0; m < modes; ++m) {
    Matrix& s = systems_[static_cast<std::size_t>(m)];
    s.resize(rank, rank);
    s.set_all(1.0);
    for (int n = 0; n < modes; ++n) {
      if (n == m) continue;
      la::hadamard_inplace(s, grams_[static_cast<std::size_t>(n)]);
    }
    for (index_t c = 0; c < rank; ++c) {
      for (index_t r = 0; r < rank; ++r) {
        s(r, c) *= model.lambda[static_cast<std::size_t>(r)] *
                   model.lambda[static_cast<std::size_t>(c)];
      }
    }
    fold_in_grams_.push_back(prepare_admm_gram(s, /*preinvert=*/true));
  }
}

index_t ServableModel::mode_size(int mode) const {
  CSTF_CHECK(mode >= 0 && mode < num_modes());
  return saved_.model.factors[static_cast<std::size_t>(mode)].rows();
}

const Matrix& ServableModel::gram(int mode) const {
  CSTF_CHECK(mode >= 0 && mode < num_modes());
  return grams_[static_cast<std::size_t>(mode)];
}

const Matrix& ServableModel::fold_in_system(int mode) const {
  CSTF_CHECK(mode >= 0 && mode < num_modes());
  return systems_[static_cast<std::size_t>(mode)];
}

const AdmmGram& ServableModel::fold_in_gram(int mode) const {
  CSTF_CHECK(mode >= 0 && mode < num_modes());
  return fold_in_grams_[static_cast<std::size_t>(mode)];
}

ServableModelPtr ModelStore::publish(SavedModel saved) {
  std::uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = ++generation_;
  }
  // Cache construction (Grams + Cholesky + inverse) happens outside the
  // lock: a publish never stalls concurrent get() calls.
  auto snapshot =
      std::make_shared<const ServableModel>(std::move(saved), generation);
  {
    std::lock_guard<std::mutex> lock(mu_);
    models_[snapshot->meta().name] = snapshot;
  }
  return snapshot;
}

ServableModelPtr ModelStore::load_and_publish(const std::string& path) {
  return publish(load_model(path));
}

ServableModelPtr ModelStore::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

bool ModelStore::erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.erase(name) > 0;
}

std::vector<std::string> ModelStore::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, model] : models_) out.push_back(name);
  return out;
}

std::size_t ModelStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

std::uint64_t ModelStore::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

}  // namespace cstf::serve
