#include "cstf/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/digest.hpp"
#include "metrics/registry.hpp"

namespace cstf {

namespace {

constexpr char kMagic[8] = {'C', 'S', 'T', 'F', 'C', 'K', 'P', 'T'};
constexpr std::uint64_t kMaxRank = 1u << 20;
constexpr std::uint64_t kMaxRows = 1ull << 40;
constexpr std::uint64_t kMaxHistory = 1u << 24;

}  // namespace

std::uint64_t digest_training_options(const FrameworkOptions& options) {
  // Field order is part of the digest definition; bump
  // kCheckpointFormatVersion if it changes (v2 added mttkrp_mode, v3 added
  // dimtree_budget_bytes, v4 added the autotuning policy / per-mode picks /
  // chunk knob, v5 dropped the determinism flag and renumbered the scatter
  // strategies, v6 dropped the v4 fields again). Convergence and checkpoint
  // cadence knobs (max_iterations, fit_tolerance, checkpoint_*) are
  // deliberately excluded: a resumed run may legitimately extend or
  // re-schedule a training job without invalidating its checkpoints.
  DigestBuilder d;
  d.u64(static_cast<std::uint64_t>(options.rank))
      .u64(options.seed)
      .u64(static_cast<std::uint64_t>(options.scheme))
      .u64(static_cast<std::uint64_t>(options.prox.kind()))
      .f64(options.prox.param_a())
      .f64(options.prox.param_b())
      .u64(static_cast<std::uint64_t>(options.admm_inner_iterations))
      .u64(static_cast<std::uint64_t>(options.blco_block_capacity))
      .u64(static_cast<std::uint64_t>(options.scatter.strategy))
      .u64(static_cast<std::uint64_t>(options.mttkrp_mode))
      // Under kAuto the budget decides which engine resolve_mttkrp_mode
      // picks, and flat vs dimtree agree only to fp tolerance — so the
      // budget shapes the numerics and must pin the digest.
      .f64(options.dimtree_budget_bytes)
      .boolean(options.compute_fit);
  return d.value();
}

namespace {

// checkpoint.saves/loads{result=ok|error}: counts the attempt outcome and
// lets the exception propagate unchanged.
void count_checkpoint_outcome(const char* op, bool ok) {
  metrics::MetricsRegistry::global()
      .counter(std::string("checkpoint.") + op,
               {{"result", ok ? "ok" : "error"}})
      ->inc();
}

void save_checkpoint_impl(const TrainingCheckpoint& checkpoint,
                          const std::string& path) {
  const TrainerState& state = checkpoint.state;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw_model_io(ModelIoStatus::kOpenFailed, "cannot create " + tmp);
    }
    HashingWriter w(out);
    w.write(kMagic, sizeof(kMagic));
    w.write_pod(kCheckpointFormatVersion);
    w.write_pod(checkpoint.options_digest);
    w.write_pod(checkpoint.seed);
    for (std::uint64_t word : state.rng) w.write_pod(word);
    w.write_pod(static_cast<std::uint32_t>(state.completed_iterations));
    w.write_pod(static_cast<std::uint8_t>(state.converged ? 1 : 0));
    w.write_pod(static_cast<std::uint8_t>(state.has_prev_fit ? 1 : 0));
    w.write_pod(static_cast<double>(state.prev_fit));
    w.write_pod(static_cast<std::uint64_t>(state.fit_history.size()));
    for (real_t fit : state.fit_history) w.write_pod(static_cast<double>(fit));
    w.write_pod(static_cast<std::uint64_t>(state.factors.size()));
    w.write_pod(static_cast<std::uint64_t>(state.lambda.size()));
    for (const Matrix& f : state.factors) {
      w.write_pod(static_cast<std::uint64_t>(f.rows()));
    }
    w.write(state.lambda.data(), state.lambda.size() * sizeof(real_t));
    for (const Matrix& f : state.factors) write_column_major(w, f);
    for (std::size_t m = 0; m < state.factors.size(); ++m) {
      const bool has_dual = m < state.duals.size() && !state.duals[m].empty();
      w.write_pod(static_cast<std::uint8_t>(has_dual ? 1 : 0));
      if (has_dual) write_column_major(w, state.duals[m]);
    }
    for (std::size_t m = 0; m < state.factors.size(); ++m) {
      const double rho = m < state.rho.size() ? state.rho[m] : 0.0;
      w.write_pod(rho);
    }
    const std::uint64_t checksum = w.digest();
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    out.close();
    if (!out.good()) {
      std::remove(tmp.c_str());
      throw_model_io(ModelIoStatus::kWriteFailed, "write failed for " + tmp);
    }
  }
  commit_tmp_file(tmp, path);
}

TrainingCheckpoint load_checkpoint_impl(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw_model_io(ModelIoStatus::kOpenFailed, "cannot open " + path);
  }
  HashingReader r(in, path);

  char magic[sizeof(kMagic)];
  r.read(magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw_model_io(ModelIoStatus::kBadMagic,
                   path + " is not a CSTFCKPT checkpoint file");
  }
  const auto version = r.read_pod<std::uint32_t>("version");
  if (version != kCheckpointFormatVersion) {
    throw_model_io(ModelIoStatus::kBadVersion,
                   path + ": format version " + std::to_string(version) +
                       " (expected " +
                       std::to_string(kCheckpointFormatVersion) + ")");
  }

  TrainingCheckpoint checkpoint;
  TrainerState& state = checkpoint.state;
  checkpoint.options_digest = r.read_pod<std::uint64_t>("options digest");
  checkpoint.seed = r.read_pod<std::uint64_t>("seed");
  for (std::uint64_t& word : state.rng) {
    word = r.read_pod<std::uint64_t>("rng state");
  }
  state.completed_iterations =
      static_cast<int>(r.read_pod<std::uint32_t>("iteration counter"));
  state.converged = r.read_pod<std::uint8_t>("converged flag") != 0;
  state.has_prev_fit = r.read_pod<std::uint8_t>("prev-fit flag") != 0;
  state.prev_fit = static_cast<real_t>(r.read_pod<double>("previous fit"));
  const auto history = r.read_pod<std::uint64_t>("fit history length");
  if (history > kMaxHistory) {
    throw_model_io(ModelIoStatus::kCorruptHeader,
                   path + ": implausible fit history length " +
                       std::to_string(history));
  }
  r.require_reals(history, "fit history");
  state.fit_history.resize(static_cast<std::size_t>(history));
  for (real_t& fit : state.fit_history) {
    fit = static_cast<real_t>(r.read_pod<double>("fit history"));
  }

  const auto modes = r.read_pod<std::uint64_t>("mode count");
  const auto rank = r.read_pod<std::uint64_t>("rank");
  if (modes < 1 || modes > static_cast<std::uint64_t>(kMaxModes)) {
    throw_model_io(ModelIoStatus::kCorruptHeader,
                   path + ": implausible mode count " + std::to_string(modes));
  }
  if (rank < 1 || rank > kMaxRank) {
    throw_model_io(ModelIoStatus::kCorruptHeader,
                   path + ": implausible rank " + std::to_string(rank));
  }
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(modes));
  for (auto& v : rows) {
    v = r.read_pod<std::uint64_t>("factor height");
    if (v < 1 || v > kMaxRows) {
      throw_model_io(ModelIoStatus::kCorruptHeader,
                     path + ": implausible factor height " +
                         std::to_string(v));
    }
  }

  // The declared lambda and factors must fit in the file before any is
  // allocated (each height * rank <= 2^60, so the sum of <= 8 fits); each
  // dual is checked the same way once its flag says it is present.
  std::uint64_t payload = rank;
  for (std::uint64_t height : rows) payload += height * rank;
  r.require_reals(payload, "lambda and factor data");
  state.lambda.resize(static_cast<std::size_t>(rank));
  r.read(state.lambda.data(), state.lambda.size() * sizeof(real_t), "lambda");
  for (std::uint64_t m = 0; m < modes; ++m) {
    Matrix f(static_cast<index_t>(rows[static_cast<std::size_t>(m)]),
             static_cast<index_t>(rank));
    read_column_major(r, f, "factor data");
    state.factors.push_back(std::move(f));
  }
  for (std::uint64_t m = 0; m < modes; ++m) {
    const bool has_dual = r.read_pod<std::uint8_t>("dual flag") != 0;
    Matrix dual;
    if (has_dual) {
      const std::uint64_t height = rows[static_cast<std::size_t>(m)];
      r.require_reals(height * rank, "dual data");
      dual.resize(static_cast<index_t>(height), static_cast<index_t>(rank));
      read_column_major(r, dual, "dual data");
    }
    state.duals.push_back(std::move(dual));
  }
  for (std::uint64_t m = 0; m < modes; ++m) {
    state.rho.push_back(static_cast<real_t>(r.read_pod<double>("rho")));
  }

  const std::uint64_t expected = r.digest();
  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(stored)) {
    throw_model_io(ModelIoStatus::kTruncated,
                   path + ": truncated reading checksum");
  }
  if (stored != expected) {
    throw_model_io(ModelIoStatus::kChecksumMismatch,
                   path + ": checksum mismatch (file is corrupt)");
  }

  // Finite-value validation: a checkpoint that deserialized cleanly but
  // carries NaN/Inf factors would poison the resumed run.
  for (const Matrix& f : state.factors) {
    if (!std::all_of(f.data(), f.data() + f.size(),
                     [](real_t v) { return std::isfinite(v); })) {
      throw_model_io(ModelIoStatus::kInvalidModel,
                     path + ": non-finite factor entry");
    }
  }
  for (real_t l : state.lambda) {
    if (!std::isfinite(l)) {
      throw_model_io(ModelIoStatus::kInvalidModel,
                     path + ": non-finite lambda entry");
    }
  }
  return checkpoint;
}

}  // namespace

void save_checkpoint(const TrainingCheckpoint& checkpoint,
                     const std::string& path) {
  try {
    save_checkpoint_impl(checkpoint, path);
  } catch (...) {
    count_checkpoint_outcome("saves", false);
    throw;
  }
  count_checkpoint_outcome("saves", true);
}

TrainingCheckpoint load_checkpoint(const std::string& path) {
  try {
    TrainingCheckpoint checkpoint = load_checkpoint_impl(path);
    count_checkpoint_outcome("loads", true);
    return checkpoint;
  } catch (...) {
    count_checkpoint_outcome("loads", false);
    throw;
  }
}

}  // namespace cstf
