#include "mttkrp/dimtree.hpp"

#include <cstdio>
#include <cstring>

#include "common/timer.hpp"
#include "perfmodel/admm_model.hpp"
#include "simgpu/launch.hpp"

namespace cstf {

const char* mttkrp_mode_name(MttkrpMode mode) {
  switch (mode) {
    case MttkrpMode::kAuto: return "auto";
    case MttkrpMode::kFlat: return "flat";
    case MttkrpMode::kDimtree: return "dimtree";
  }
  return "?";
}

bool parse_mttkrp_mode(const std::string& name, MttkrpMode* out) {
  if (name == "auto") { *out = MttkrpMode::kAuto; return true; }
  if (name == "flat") { *out = MttkrpMode::kFlat; return true; }
  if (name == "dimtree") { *out = MttkrpMode::kDimtree; return true; }
  return false;
}

namespace {

// The per-kernel stat builders are free functions over the tensor shape so
// resolve_mttkrp_mode can model a tensor without paying the engine's
// coordinate copy.

double raw_coo_bytes(const std::vector<index_t>& dims, index_t nnz) {
  return static_cast<double>(nnz) *
         static_cast<double>(dims.size() + 1) * simgpu::kWord;
}

// One flat from-raw MTTKRP for `mode` — mirrors blco_mttkrp_stats: the
// resident tensor streamed once, (N-1) factor-row gathers plus the scatter
// read-modify-write as random traffic against the live-factor working set.
simgpu::KernelStats flat_mode_stats(const std::vector<index_t>& dims,
                                    index_t nnz, index_t rank,
                                    double flat_stream_bytes, int mode,
                                    ScatterStrategy strategy) {
  const auto modes = static_cast<int>(dims.size());
  const auto n = static_cast<double>(nnz);
  const auto r = static_cast<double>(rank);
  simgpu::KernelStats s;
  s.flops = n * r * static_cast<double>(modes + 1);
  s.bytes_streamed = flat_stream_bytes > 0.0
                         ? flat_stream_bytes
                         : raw_coo_bytes(dims, nnz);
  s.bytes_random = n * r * simgpu::kWord * static_cast<double>(modes - 1) +
                   n * r * simgpu::kWord * 2.0;
  double factor_bytes = 0.0;
  for (int m = 0; m < modes; ++m) {
    factor_bytes += static_cast<double>(dims[static_cast<std::size_t>(m)]) *
                    r * simgpu::kWord;
  }
  s.working_set_bytes = factor_bytes;  // other factors + the output tile
  s.parallel_items = n;
  s.compute_efficiency = 0.5;
  apply_scatter_stats(s, strategy, dims[static_cast<std::size_t>(mode)], rank,
                      n);
  return s;
}

// extend(k): fold factor k into the chain. Level 0 builds the chain from the
// raw values (write-only pass over P); later levels rewrite P in place. The
// only random traffic is the H_k row gather, against a working set of that
// one factor — the isolation that makes extends cheap on cache-resident
// factors.
simgpu::KernelStats extend_level_stats(const std::vector<index_t>& dims,
                                       index_t nnz, index_t rank, int k) {
  const auto n = static_cast<double>(nnz);
  const auto r = static_cast<double>(rank);
  simgpu::KernelStats s;
  s.flops = n * r * (k == 0 ? 2.0 : 1.0);
  s.bytes_streamed =
      (k == 0 ? 1.0 : 2.0) * n * r * simgpu::kWord + n * simgpu::kWord;
  s.bytes_random = n * r * simgpu::kWord;
  s.working_set_bytes =
      static_cast<double>(dims[static_cast<std::size_t>(k)]) * r *
      simgpu::kWord;
  s.parallel_items = n;
  s.compute_efficiency = 0.5;
  return s;
}

// derive(mode), mode >= 1: stream the chain, gather only the suffix factors
// H_{mode+1..N-1}, scatter. The working set shrinks with the mode — the last
// mode's derive gathers nothing but the output tile.
simgpu::KernelStats derive_mode_stats(const std::vector<index_t>& dims,
                                      index_t nnz, index_t rank, int mode,
                                      ScatterStrategy strategy) {
  const auto modes = static_cast<int>(dims.size());
  const int suffix = modes - 1 - mode;
  const auto n = static_cast<double>(nnz);
  const auto r = static_cast<double>(rank);
  simgpu::KernelStats s;
  s.flops = n * r * static_cast<double>(suffix + 1);
  s.bytes_streamed = n * r * simgpu::kWord +
                     n * simgpu::kWord * static_cast<double>(modes - mode);
  s.bytes_random = n * r * simgpu::kWord * static_cast<double>(suffix + 2);
  double ws = static_cast<double>(dims[static_cast<std::size_t>(mode)]) * r *
              simgpu::kWord;  // the output tile
  for (int m = mode + 1; m < modes; ++m) {
    ws += static_cast<double>(dims[static_cast<std::size_t>(m)]) * r *
          simgpu::kWord;
  }
  s.working_set_bytes = ws;
  s.parallel_items = n;
  s.compute_efficiency = 0.5;
  apply_scatter_stats(s, strategy, dims[static_cast<std::size_t>(mode)], rank,
                      n);
  return s;
}

std::vector<simgpu::KernelStats> tree_sequence_stats(
    const std::vector<index_t>& dims, index_t nnz, index_t rank,
    double flat_stream_bytes, const ScatterOptions& opts) {
  const auto modes = static_cast<int>(dims.size());
  std::vector<simgpu::KernelStats> seq;
  seq.push_back(flat_mode_stats(
      dims, nnz, rank, flat_stream_bytes, 0,
      resolve_scatter_strategy(opts, dims[0], rank, nnz)));
  for (int m = 1; m < modes; ++m) {
    seq.push_back(extend_level_stats(dims, nnz, rank, m - 1));
    seq.push_back(derive_mode_stats(
        dims, nnz, rank, m,
        resolve_scatter_strategy(
            opts, dims[static_cast<std::size_t>(m)], rank, nnz)));
  }
  return seq;
}

std::vector<simgpu::KernelStats> flat_sequence_stats(
    const std::vector<index_t>& dims, index_t nnz, index_t rank,
    double flat_stream_bytes, const ScatterOptions& opts) {
  const auto modes = static_cast<int>(dims.size());
  std::vector<simgpu::KernelStats> seq;
  for (int m = 0; m < modes; ++m) {
    seq.push_back(flat_mode_stats(
        dims, nnz, rank, flat_stream_bytes, m,
        resolve_scatter_strategy(
            opts, dims[static_cast<std::size_t>(m)], rank, nnz)));
  }
  return seq;
}

// Sampled content hash: the shape, the first and last entries, and up to
// kFingerprintProbes strided probes in between. check_fingerprints runs on
// every chain-derived MTTKRP, so the backstop must stay O(1) per folded
// level — a full hash over a long-mode factor (exactly the shapes the
// resolver sends to dimtree) would erode the reuse win the extend/derive
// stats model. The price is that the silent-mutation net is probabilistic
// for entries between probes; invalidate() remains the contract.
constexpr std::size_t kFingerprintProbes = 64;

std::uint64_t content_hash(const Matrix& f) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  const auto mix_entry = [&](std::size_t i, const real_t* p) {
    std::uint64_t bits;
    std::memcpy(&bits, &p[i], sizeof bits);
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(f.rows()));
  mix(static_cast<std::uint64_t>(f.cols()));
  const real_t* p = f.data();
  const auto count = static_cast<std::size_t>(f.size());
  if (count == 0) return h;
  const std::size_t stride =
      count > kFingerprintProbes ? count / kFingerprintProbes : 1;
  for (std::size_t i = 0; i < count; i += stride) mix_entry(i, p);
  mix_entry(count - 1, p);
  return h;
}

// The grid of a dimtree_extend launch over `nnz` chain rows.
simgpu::LaunchConfig extend_config(index_t nnz) {
  constexpr index_t kThreads = 128;
  return simgpu::LaunchConfig{
      .grid_dim = simgpu::blocks_for(nnz, kThreads), .block_dim = kThreads};
}

}  // namespace

bool DimTreeEngine::Fingerprint::matches(const Matrix& f) const {
  return data == f.data() && hash == content_hash(f);
}

DimTreeEngine::DimTreeEngine(const SparseTensor& x, index_t rank)
    : dims_(x.dims()), values_(x.values()), nnz_(x.nnz()), rank_(rank) {
  CSTF_CHECK(x.num_modes() >= 2);
  CSTF_CHECK(rank >= 1);
  idx_.reserve(static_cast<std::size_t>(x.num_modes()));
  for (int m = 0; m < x.num_modes(); ++m) idx_.push_back(x.indices(m));
  fps_.resize(static_cast<std::size_t>(x.num_modes()));
  flat_stream_bytes_ = raw_coo_bytes(dims_, nnz_);
}

void DimTreeEngine::invalidate() { level_ = 0; }

void DimTreeEngine::ensure_chain() {
  if (chain_ != nullptr) return;
  lease_ = ScratchPool::global().acquire(
      1, static_cast<std::size_t>(nnz_ * rank_));
  chain_ = lease_.tile(0);
  level_ = 0;
}

void DimTreeEngine::check_fingerprints(const std::vector<Matrix>& factors) {
  // The chain is folded in place, so the buffer physically holds only
  // P_{level_}. A stale factor anywhere in the folded prefix therefore
  // invalidates the whole chain: truncating to an intermediate k > 0 and
  // re-folding would multiply the fresh factor into a product that still
  // contains its old value. Only level 0 is re-enterable (fold(0)
  // overwrites).
  for (int k = 0; k < level_; ++k) {
    if (!fps_[static_cast<std::size_t>(k)].matches(
            factors[static_cast<std::size_t>(k)])) {
      level_ = 0;
      return;
    }
  }
}

void DimTreeEngine::fold(simgpu::Device& dev,
                         const std::vector<Matrix>& factors, int k) {
  const simgpu::KernelStats stats = extend_level_stats(dims_, nnz_, rank_, k);
  if (k == 0) {
    // P_1 = v ⊙ H_0 is never stored (see mttkrp): record the fold only.
    simgpu::record_launch(dev, "dimtree_extend", extend_config(nnz_), stats);
    note_folded(factors, k);
    return;
  }
  const index_t rank = rank_;
  const index_t nnz = nnz_;
  const real_t* vals = values_.data();
  real_t* chain = chain_;
  const real_t* h0_rows = factors[0].data();
  const index_t* h0_at = idx_[0].data();
  const real_t* factor = factors[static_cast<std::size_t>(k)].data();
  const index_t* coords = idx_[static_cast<std::size_t>(k)].data();
  simgpu::launch(dev, "dimtree_extend", extend_config(nnz_), stats,
                 [&](const simgpu::KernelCtx& ctx) {
    for (index_t i = ctx.global_thread_id(); i < nnz;
         i += ctx.total_threads()) {
      real_t* p = chain + static_cast<std::size_t>(i * rank);
      const real_t* h = factor + coords[i] * rank;
      if (k == 1) {  // P_2 = (v ⊙ H_0) ⊙ H_1, from the raw nonzero
        const real_t v = vals[static_cast<std::size_t>(i)];
        const real_t* h0 = h0_rows + h0_at[i] * rank;
        for (index_t r = 0; r < rank; ++r) {
          p[static_cast<std::size_t>(r)] = v * h0[r] * h[r];
        }
      } else {
        for (index_t r = 0; r < rank; ++r) {
          p[static_cast<std::size_t>(r)] *= h[r];
        }
      }
    }
  });
  note_folded(factors, k);
}

void DimTreeEngine::note_folded(const std::vector<Matrix>& factors, int k) {
  const Matrix& folded = factors[static_cast<std::size_t>(k)];
  fps_[static_cast<std::size_t>(k)] =
      Fingerprint{folded.data(), content_hash(folded)};
  level_ = k + 1;
}

bool DimTreeEngine::extend_to(simgpu::Device& dev,
                              const std::vector<Matrix>& factors,
                              int target_level) {
  // Only levels 2..N-2 are stored, so a tensor of order <= 3 never
  // allocates the buffer.
  if (num_modes() >= 4) ensure_chain();
  check_fingerprints(factors);
  if (level_ > target_level) level_ = 0;  // cannot unfold; rebuild
  while (level_ < target_level - 1) {
    fold(dev, factors, level_);
  }
  return level_ < target_level;
}

ScatterStrategy DimTreeEngine::mttkrp(simgpu::Device& dev,
                                      const std::vector<Matrix>& factors,
                                      int mode, Matrix& out,
                                      const ScatterOptions& opts) {
  const int modes = num_modes();
  CSTF_CHECK(mode >= 0 && mode < modes);
  CSTF_CHECK(static_cast<int>(factors.size()) == modes);
  CSTF_CHECK(out.rows() == dim(mode) && out.cols() == rank_);
  for (const Matrix& f : factors) CSTF_CHECK(f.cols() == rank_);

  const ScatterStrategy strategy =
      resolve_scatter_strategy(opts, dim(mode), rank_, nnz_);
  const ScatterPlan* plan =
      strategy == ScatterStrategy::kSorted ? &plan_for(mode) : nullptr;
  const index_t rank = rank_;
  const index_t* out_rows = idx_[static_cast<std::size_t>(mode)].data();

  if (mode > 0) {
    const bool fold_last = extend_to(dev, factors, mode);
    // The last missing level, k = mode - 1, is folded inside the derive:
    // each chain row is multiplied by its H_k row as the derive reads it,
    // stored back, and seeds the suffix product — one pass over the chain
    // where a separate fold would make two. The fold is recorded first,
    // as its own launch would have been; its host time is the derive's.
    // Two levels are never stored. P_1 = v ⊙ H_0 costs one gathered row
    // to form again, less than writing and rereading a chain row, so
    // whatever needs it forms it from the raw nonzero. P_{N-1} has one
    // reader, mode N-1's derive, which multiplies P_{N-2} by H_{N-2} on
    // the fly. The buffer holds P_level only for 2 <= level <= N-2.
    const int k = mode - 1;
    const bool stored = mode >= 2 && mode <= modes - 2;
    if (fold_last) {
      simgpu::record_launch(dev, "dimtree_extend", extend_config(nnz_),
                            extend_level_stats(dims_, nnz_, rank_, k));
    }
    Timer wall;
    real_t* chain = chain_;
    const RowGather suffix(factors, mode, mode + 1);
    const index_t* coords[kMaxModes];
    for (int g = 0; g < suffix.count; ++g) {
      coords[g] = idx_[static_cast<std::size_t>(suffix.mode[g])].data();
    }
    // seed_of(at) gives the suffix product's seed for nonzero `at`: its
    // row of P_mode, read from the chain, formed, or formed and stored.
    const auto derive = [&](const auto& seed_of) {
      with_gather_count(suffix.count, [&](auto count) {
        constexpr int G = decltype(count)::value;
        scatter_accumulate(
            strategy, out, nnz_,
            [&](index_t i, const auto& acc) {
              const auto at = static_cast<std::size_t>(i);
              suffix.add<G>(acc(out_rows[at]), rank, seed_of(at),
                            [&](int g) { return coords[g][at]; });
            },
            plan);
      });
    };
    const auto chain_row = [chain, rank](std::size_t at) {
      return chain + at * static_cast<std::size_t>(rank);
    };
    const real_t* fold_rows = factors[static_cast<std::size_t>(k)].data();
    const index_t* fold_at = idx_[static_cast<std::size_t>(k)].data();
    const real_t* h0_rows = factors[0].data();
    const index_t* h0_at = idx_[0].data();
    const real_t* values = values_.data();
    if (stored && !fold_last) {
      derive([&](std::size_t at) {
        const real_t* p = chain_row(at);
        return [p](index_t r) { return p[r]; };
      });
    } else if (k == 0) {  // P_1 = v ⊙ H_0
      derive([&](std::size_t at) {
        const real_t v = values[at];
        const real_t* h = fold_rows + fold_at[at] * rank;
        return [h, v](index_t r) { return v * h[r]; };
      });
    } else if (k == 1 && stored) {  // P_2 = (v ⊙ H_0) ⊙ H_1, stored
      derive([&](std::size_t at) {
        real_t* p = chain_row(at);
        const real_t v = values[at];
        const real_t* h0 = h0_rows + h0_at[at] * rank;
        const real_t* h = fold_rows + fold_at[at] * rank;
        return [p, h0, h, v](index_t r) { return p[r] = v * h0[r] * h[r]; };
      });
    } else if (k == 1) {  // a 3-way tensor's top level, P_2
      derive([&](std::size_t at) {
        const real_t v = values[at];
        const real_t* h0 = h0_rows + h0_at[at] * rank;
        const real_t* h = fold_rows + fold_at[at] * rank;
        return [h0, h, v](index_t r) { return v * h0[r] * h[r]; };
      });
    } else if (stored) {
      derive([&](std::size_t at) {
        real_t* p = chain_row(at);
        const real_t* h = fold_rows + fold_at[at] * rank;
        return [p, h](index_t r) { return p[r] *= h[r]; };
      });
    } else {  // the top level, P_{N-1} = P_{N-2} ⊙ H_{N-2}
      derive([&](std::size_t at) {
        const real_t* p = chain_row(at);
        const real_t* h = fold_rows + fold_at[at] * rank;
        return [p, h](index_t r) { return p[r] * h[r]; };
      });
    }
    if (fold_last) note_folded(factors, k);
    dev.record("dimtree_derive",
               derive_mode_stats(dims_, nnz_, rank_, mode, strategy),
               wall.seconds());
  } else {
    // Mode 0 has no prefix to reuse: the flat from-raw computation, in the
    // reference's ascending product order. It also starts a sweep: factor 0,
    // which every folded level holds, is updated next, so the chain is
    // dropped and mode 1 rebuilds it. On a 2-way tensor nothing else would:
    // the chain ends a sweep at level 1, the level mode 1 asks for.
    Timer wall;
    level_ = 0;
    const RowGather others(factors, mode);
    const index_t* coords[kMaxModes];
    for (int g = 0; g < others.count; ++g) {
      coords[g] = idx_[static_cast<std::size_t>(others.mode[g])].data();
    }
    const real_t* values = values_.data();
    with_gather_count(others.count, [&](auto count) {
      constexpr int G = decltype(count)::value;
      scatter_accumulate(
          strategy, out, nnz_,
          [&](index_t i, const auto& acc) {
            const auto at = static_cast<std::size_t>(i);
            const real_t v = values[at];
            others.add<G>(acc(out_rows[at]), rank, [v](index_t) { return v; },
                          [&](int g) { return coords[g][at]; });
          },
          plan);
    });
    dev.record("dimtree_flat",
               flat_mode_stats(dims_, nnz_, rank_, flat_stream_bytes_, mode,
                               strategy),
               wall.seconds());
  }
  return strategy;
}

const ScatterPlan& DimTreeEngine::plan_for(int mode) {
  return plans_.get(mode, [&] {
    const index_t* rows = idx_[static_cast<std::size_t>(mode)].data();
    return build_scatter_plan(nnz_, [&](index_t i) {
      return rows[static_cast<std::size_t>(i)];
    });
  });
}

double DimTreeEngine::flat_iteration_flops() const {
  const auto modes = static_cast<double>(num_modes());
  return static_cast<double>(nnz_) * static_cast<double>(rank_) * modes *
         (modes + 1.0);
}

double DimTreeEngine::tree_iteration_flops() const {
  const auto modes = num_modes();
  double per_nnz_rank = static_cast<double>(modes + 1);  // mode-0 flat derive
  per_nnz_rank += 2.0;                                   // extend(0)
  per_nnz_rank += static_cast<double>(modes - 2);        // extend(1..N-2)
  for (int m = 1; m < modes; ++m) {
    per_nnz_rank += static_cast<double>(modes - m);      // derive(m)
  }
  return static_cast<double>(nnz_) * static_cast<double>(rank_) * per_nnz_rank;
}

std::vector<simgpu::KernelStats> DimTreeEngine::tree_iteration_stats(
    const ScatterOptions& opts) const {
  return tree_sequence_stats(dims_, nnz_, rank_, flat_stream_bytes_, opts);
}

std::vector<simgpu::KernelStats> DimTreeEngine::flat_iteration_stats(
    const ScatterOptions& opts) const {
  return flat_sequence_stats(dims_, nnz_, rank_, flat_stream_bytes_, opts);
}

MttkrpMode resolve_mttkrp_mode(const SparseTensor& x, index_t rank,
                               const ScatterOptions& scatter,
                               const simgpu::DeviceSpec& spec,
                               double budget_bytes,
                               double flat_stream_bytes, double nnz_scale) {
  if (!dimtree_fits_budget(x.nnz(), rank, budget_bytes)) {
    return MttkrpMode::kFlat;
  }
  const double flat_s = perfmodel::modeled_sequence_scaled(
      flat_sequence_stats(x.dims(), x.nnz(), rank, flat_stream_bytes,
                          scatter),
      nnz_scale, spec);
  const double tree_s = perfmodel::modeled_sequence_scaled(
      tree_sequence_stats(x.dims(), x.nnz(), rank, flat_stream_bytes,
                          scatter),
      nnz_scale, spec);
  return tree_s < flat_s ? MttkrpMode::kDimtree : MttkrpMode::kFlat;
}

std::string describe_dimtree(const DimTreeEngine& engine) {
  const int modes = engine.num_modes();
  char line[160];
  std::string out = "dimension tree (prefix chain):\n";
  for (int m = 0; m < modes; ++m) {
    std::snprintf(line, sizeof line, "  leaf H%d: %lld x %lld\n", m,
                  static_cast<long long>(engine.dim(m)),
                  static_cast<long long>(engine.rank()));
    out += line;
  }
  const double mib = engine.chain_bytes() / (1024.0 * 1024.0);
  for (int k = 1; k < modes; ++k) {
    char parent[16];
    if (k == 1) {
      std::snprintf(parent, sizeof parent, "X");
    } else {
      std::snprintf(parent, sizeof parent, "P%d", k - 1);
    }
    std::snprintf(line, sizeof line,
                  "  node P%d = %s * H%d: %lld x %lld (%.1f MiB, derives "
                  "mode %d)\n",
                  k, parent, k - 1, static_cast<long long>(engine.nnz()),
                  static_cast<long long>(engine.rank()), mib, k);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "  reuse factor: %.2fx fewer multiplies than flat\n",
                engine.reuse_factor());
  out += line;
  std::snprintf(line, sizeof line, "  intermediate bytes: %.1f MiB\n", mib);
  out += line;
  return out;
}

}  // namespace cstf
