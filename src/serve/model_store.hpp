// In-memory model registry with refcounted hot-swap.
//
// A ServableModel is an *immutable* snapshot of a loaded model plus every
// cache the serving engines need: per-mode Gram matrices, the lambda-scaled
// Hadamard-of-Grams system matrix of each mode's fold-in subproblem, and that
// system's pre-factorized, pre-inverted AdmmGram. All caches are
// built eagerly at publish time, so a hot-swap is a single shared_ptr
// exchange: in-flight requests finish against the snapshot they already
// hold, new requests pick up the fresh snapshot — and because the Gram
// caches live *inside* the snapshot, swapping the model invalidates them
// by construction. There is no cache to flush and no torn read to guard.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/model_io.hpp"
#include "updates/admm.hpp"

namespace cstf::serve {

/// One published model snapshot. Immutable after construction; safe to read
/// from any number of threads concurrently.
class ServableModel {
 public:
  /// Validates the model and builds all serving caches. The fold-in
  /// AdmmGrams carry the explicit inverse (the paper's pre-inversion
  /// optimization, amortized here across every fold-in request served from
  /// this snapshot).
  ServableModel(SavedModel saved, std::uint64_t generation);

  const KTensor& model() const { return saved_.model; }
  const ModelMetadata& meta() const { return saved_.meta; }

  /// Monotonic publish counter of the owning store; two snapshots of the
  /// same name always differ in generation, which tests use to observe a
  /// hot-swap.
  std::uint64_t generation() const { return generation_; }

  int num_modes() const { return saved_.model.num_modes(); }
  index_t rank() const { return saved_.model.rank(); }
  index_t mode_size(int mode) const;

  /// Gram matrix H_m^T H_m of mode `mode`'s factor (R x R).
  const Matrix& gram(int mode) const;

  /// The fold-in normal-equations matrix of mode `mode`:
  ///   S_m = (lambda lambda^T) .* hadamard_{n != mode} gram(n).
  /// lambda is folded into the system (rather than into the factors) so a
  /// folded-in row lives on the same scale as the stored factor rows.
  const Matrix& fold_in_system(int mode) const;

  /// The pre-factorized fold-in system: Cholesky of S_m + rho*I and its
  /// explicit inverse. Built once here; reused by every fold-in against this
  /// snapshot.
  const AdmmGram& fold_in_gram(int mode) const;

 private:
  SavedModel saved_;
  std::uint64_t generation_;
  std::vector<Matrix> grams_;
  std::vector<Matrix> systems_;
  std::vector<AdmmGram> fold_in_grams_;
};

using ServableModelPtr = std::shared_ptr<const ServableModel>;

/// Named model registry. publish() is the only mutation; readers get
/// refcounted snapshots and never block behind a swap (the lock covers only
/// the map exchange, never cache construction or I/O).
class ModelStore {
 public:
  /// Builds a snapshot (outside the lock) and swaps it in under the model's
  /// name. Returns the published snapshot.
  ServableModelPtr publish(SavedModel saved);

  /// load_model(path) + publish(). Typed ModelIoError propagates unchanged.
  ServableModelPtr load_and_publish(const std::string& path);

  /// Current snapshot for `name`, or nullptr when absent.
  ServableModelPtr get(const std::string& name) const;

  /// Removes `name`; in-flight holders of the snapshot are unaffected.
  bool erase(const std::string& name);

  std::vector<std::string> names() const;
  std::size_t size() const;

  /// Total publishes across all names (the generation stamped on snapshots).
  std::uint64_t generation() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t generation_ = 0;
  std::map<std::string, ServableModelPtr> models_;
};

}  // namespace cstf::serve
