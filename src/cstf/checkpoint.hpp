// Crash-consistent training checkpoints (CSTFCKPT files).
//
// A checkpoint snapshots the full cross-iteration state of an AUNTF run —
// factors, lambda, the per-mode ADMM dual variables (the AO-ADMM literature's
// warm start; resume without them is NOT the same algorithm), per-mode rho,
// the driver RNG state, the iteration counter and fit history — so a run
// killed at iteration k and resumed produces factors bit-identical to an
// uninterrupted run.
//
// File layout (same discipline as the .cstf serving format, common/binio.hpp):
//
//   magic    "CSTFCKPT"                     8 bytes
//   version  u32 (kCheckpointFormatVersion)
//   header   u64 options_digest (digest_training_options), u64 seed,
//            u64 rng[4], u32 completed_iterations, u8 converged,
//            u8 has_prev_fit, f64 prev_fit,
//            u64 fit_history length + f64s,
//            u64 num_modes, u64 rank, u64 rows[num_modes]
//   payload  f64 lambda[rank], per mode f64 factor (column-major),
//            per mode u8 has_dual + f64 dual (column-major),
//            per mode f64 rho
//   footer   u64 FNV-1a checksum of every byte from magic through payload
//
// Writes are crash-consistent (tmp + rename): a crash mid-save leaves the
// previous checkpoint intact, and a reader never observes a torn file. Loads
// are fully validated and raise typed ModelIoError (truncated, bit-flipped,
// wrong version, implausible header, options mismatch).
#pragma once

#include <cstdint>
#include <string>

#include "common/binio.hpp"
#include "cstf/auntf.hpp"
#include "cstf/framework.hpp"

namespace cstf {

inline constexpr std::uint32_t kCheckpointFormatVersion = 5;

/// A training snapshot plus the provenance needed to refuse a mismatched
/// resume.
struct TrainingCheckpoint {
  TrainerState state;

  /// digest_training_options() of the run that wrote the checkpoint; resume
  /// validates it against the resuming configuration.
  std::uint64_t options_digest = 0;
  std::uint64_t seed = 0;
};

/// Digest of the FrameworkOptions fields that shape the per-iteration
/// numerics (rank, seed, scheme, constraint, inner iterations, scatter
/// config). Deliberately EXCLUDES max_iterations and the convergence /
/// checkpoint knobs: training 40 iterations, then resuming with
/// max_iterations = 100, is the intended use, and neither changes any
/// iteration's arithmetic.
std::uint64_t digest_training_options(const FrameworkOptions& options);

/// Saves atomically (tmp + rename, trailing checksum). Throws
/// ModelIoError(kOpenFailed / kWriteFailed).
void save_checkpoint(const TrainingCheckpoint& checkpoint,
                     const std::string& path);

/// Loads and fully validates a checkpoint; throws ModelIoError with the
/// matching status on any defect. Never returns partial state.
TrainingCheckpoint load_checkpoint(const std::string& path);

}  // namespace cstf
