// Versioned, checksummed persistence of a factorized model (.cstf files).
//
// The factorization side of this library already had a bare KTensor
// checkpoint (cstf/ktensor.hpp); serving needs more: the constraint the
// model was trained under (fold-in must solve the *same* constrained
// subproblem), provenance metadata to audit what is in production, and
// enough integrity checking that a truncated or bit-flipped file is rejected
// with a typed error instead of deserializing into garbage.
//
// File layout (all integers little-endian as written by the host, 64-bit):
//
//   magic    "CSTFSRV\n"                     8 bytes
//   version  u32 (kModelFormatVersion)
//   header   u64 num_modes, u64 rank, u64 rows[num_modes]
//   meta     u32 prox kind, f64 prox params a/b, f64 final_fit,
//            u64 options_digest, u64 seed, u32 iterations,
//            u32 name length + bytes
//   payload  f64 lambda[rank], f64 factors (column-major, mode order)
//   footer   u64 FNV-1a checksum of every byte from magic through payload
//
// Writes are crash-consistent: the file is written to "<path>.tmp" and
// renamed into place only after a successful close, so a reader never
// observes a half-written model and a crash mid-save leaves any previous
// model intact.
#pragma once

#include <cstdint>
#include <string>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "cstf/framework.hpp"
#include "cstf/ktensor.hpp"
#include "updates/prox.hpp"

namespace cstf::serve {

// v2: the options digest dropped the determinism flag and the scatter
// strategies were renumbered.
inline constexpr std::uint32_t kModelFormatVersion = 2;

// The typed status/error and the FNV-1a checksum live in common/binio.hpp
// (shared with the trainer-side CSTFCKPT checkpoint format); re-exported
// here so serving callers keep their historical spelling.
using cstf::fnv1a64;
using cstf::model_io_status_name;
using cstf::ModelIoError;
using cstf::ModelIoStatus;

/// Provenance + constraint metadata stored alongside the factors.
struct ModelMetadata {
  std::string name;  // store key / human label

  /// The constraint the model was trained under — fold-in replays it.
  ProxKind constraint = ProxKind::kNonNegative;
  real_t constraint_a = 0.0;
  real_t constraint_b = 0.0;

  real_t final_fit = 0.0;
  std::uint64_t options_digest = 0;  // digest_options() of the training run
  std::uint64_t seed = 0;
  std::uint32_t iterations = 0;

  Proximity prox() const {
    return Proximity::from_kind(constraint, constraint_a, constraint_b);
  }

  /// Captures the constraint triple from a configured operator.
  void set_constraint(const Proximity& p) {
    constraint = p.kind();
    constraint_a = p.param_a();
    constraint_b = p.param_b();
  }
};

/// A model plus its metadata — the unit of persistence and serving.
struct SavedModel {
  KTensor model;
  ModelMetadata meta;
};

/// Stable digest of the options that shaped a factorization (rank, scheme,
/// constraint, iterations, seed, scatter config) — recorded in the model file
/// so an operator can tell whether a serving model matches a config.
std::uint64_t digest_options(const FrameworkOptions& options);

/// Saves atomically (tmp + rename). Throws ModelIoError(kWriteFailed /
/// kOpenFailed); validates the model first (kInvalidModel).
void save_model(const SavedModel& saved, const std::string& path);

/// Loads and fully validates a model file; throws ModelIoError with the
/// matching status on any defect. Never returns a partially-initialized
/// model.
SavedModel load_model(const std::string& path);

}  // namespace cstf::serve
