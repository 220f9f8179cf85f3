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
      resolve_scatter_strategy_for_mode(opts, 0, dims[0], rank, nnz)));
  for (int m = 1; m < modes; ++m) {
    seq.push_back(extend_level_stats(dims, nnz, rank, m - 1));
    seq.push_back(derive_mode_stats(
        dims, nnz, rank, m,
        resolve_scatter_strategy_for_mode(
            opts, m, dims[static_cast<std::size_t>(m)], rank, nnz)));
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
        resolve_scatter_strategy_for_mode(
            opts, m, dims[static_cast<std::size_t>(m)], rank, nnz)));
  }
  return seq;
}

// Sampled content hash: the shape, the first and last entries, and up to
// kFingerprintProbes strided probes in between. check_fingerprints runs on
// every chain-derived MTTKRP, so the backstop must stay O(1) per folded
// level — a full hash over a long-mode factor (exactly the shapes the
// resolver sends to dimtree) would erode the reuse win the extend/derive
// stats model. The price is that the silent-mutation net is probabilistic
// for entries between probes; note_factor_updated remains the contract.
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

}  // namespace

bool DimTreeEngine::Fingerprint::matches(const Matrix& f) const {
  return data == f.data() && hash == content_hash(f);
}

DimTreeEngine::DimTreeEngine(const SparseTensor& x, index_t rank,
                             double budget_bytes)
    : dims_(x.dims()),
      values_(x.values()),
      nnz_(x.nnz()),
      rank_(rank),
      budget_bytes_(budget_bytes) {
  CSTF_CHECK(x.num_modes() >= 2);
  CSTF_CHECK(rank >= 1);
  idx_.reserve(static_cast<std::size_t>(x.num_modes()));
  for (int m = 0; m < x.num_modes(); ++m) idx_.push_back(x.indices(m));
  fps_.resize(static_cast<std::size_t>(x.num_modes()));
  flat_stream_bytes_ = raw_coo_bytes(dims_, nnz_);
}

void DimTreeEngine::set_budget_bytes(double bytes) {
  budget_bytes_ = bytes;
  if (!chain_fits()) release_chain();
}

void DimTreeEngine::invalidate() { level_ = 0; }

void DimTreeEngine::note_factor_updated(int mode) {
  CSTF_CHECK(mode >= 0 && mode < num_modes());
  // The chain is folded in place, so the buffer physically holds only
  // P_{level_}. A stale factor anywhere in the folded prefix therefore
  // invalidates the whole chain: truncating to an intermediate k > 0 and
  // re-folding would multiply the fresh factor into a product that still
  // contains its old value. Only level 0 is re-enterable (fold(0)
  // overwrites).
  if (level_ > mode) level_ = 0;
}

void DimTreeEngine::ensure_chain() {
  if (chain_ != nullptr) return;
  lease_ = ScratchPool::global().acquire(
      1, static_cast<std::size_t>(nnz_ * rank_));
  chain_ = lease_.tile(0);
  level_ = 0;
}

void DimTreeEngine::release_chain() {
  lease_ = ScratchPool::Lease();
  chain_ = nullptr;
  level_ = 0;
}

void DimTreeEngine::check_fingerprints(const std::vector<Matrix>& factors) {
  for (int k = 0; k < level_; ++k) {
    if (!fps_[static_cast<std::size_t>(k)].matches(
            factors[static_cast<std::size_t>(k)])) {
      level_ = 0;  // in-place chain: no intermediate level to fall back to
      return;
    }
  }
}

void DimTreeEngine::fold(simgpu::Device& dev, const Matrix& factor, int k) {
  const index_t rank = rank_;
  const index_t nnz = nnz_;
  const index_t* idx = idx_[static_cast<std::size_t>(k)].data();
  const real_t* vals = values_.data();
  real_t* chain = chain_;
  constexpr index_t kThreads = 128;
  simgpu::LaunchConfig cfg{
      .grid_dim = simgpu::blocks_for(nnz, kThreads), .block_dim = kThreads};
  simgpu::launch(dev, "dimtree_extend", cfg,
                 extend_level_stats(dims_, nnz_, rank_, k),
                 [&](const simgpu::KernelCtx& ctx) {
    for (index_t i = ctx.global_thread_id(); i < nnz;
         i += ctx.total_threads()) {
      real_t* p = chain + static_cast<std::size_t>(i * rank);
      const index_t j = idx[static_cast<std::size_t>(i)];
      if (k == 0) {
        const real_t v = vals[static_cast<std::size_t>(i)];
        for (index_t r = 0; r < rank; ++r) {
          p[static_cast<std::size_t>(r)] = v * factor(j, r);
        }
      } else {
        for (index_t r = 0; r < rank; ++r) {
          p[static_cast<std::size_t>(r)] *= factor(j, r);
        }
      }
    }
  });
  fps_[static_cast<std::size_t>(k)] =
      Fingerprint{factor.data(), content_hash(factor)};
  level_ = k + 1;
}

void DimTreeEngine::extend_to(simgpu::Device& dev,
                              const std::vector<Matrix>& factors,
                              int target_level) {
  CSTF_CHECK(target_level >= 0 && target_level < num_modes());
  CSTF_CHECK(static_cast<int>(factors.size()) == num_modes());
  if (!chain_fits()) return;  // flat fallback: nothing to maintain
  ensure_chain();
  check_fingerprints(factors);
  if (level_ > target_level) level_ = 0;  // cannot unfold; rebuild
  while (level_ < target_level) {
    fold(dev, factors[static_cast<std::size_t>(level_)], level_);
  }
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
      resolve_scatter_strategy_for_mode(opts, mode, dim(mode), rank_, nnz_);
  const ScatterPlan* plan =
      strategy == ScatterStrategy::kSorted ? &plan_for(mode) : nullptr;
  const index_t rank = rank_;
  const index_t* out_rows = idx_[static_cast<std::size_t>(mode)].data();

  const bool use_chain = chain_fits() && mode > 0;
  if (use_chain) extend_to(dev, factors, mode);

  Timer wall;
  if (use_chain) {
    const real_t* chain = chain_;
    scatter_accumulate(
        strategy, out, nnz_,
        [&](index_t i, real_t* row) {
          const real_t* p = chain + static_cast<std::size_t>(i * rank);
          for (index_t r = 0; r < rank; ++r) {
            row[static_cast<std::size_t>(r)] = p[static_cast<std::size_t>(r)];
          }
          for (int m = mode + 1; m < modes; ++m) {
            const index_t j =
                idx_[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)];
            const Matrix& f = factors[static_cast<std::size_t>(m)];
            for (index_t r = 0; r < rank; ++r) {
              row[static_cast<std::size_t>(r)] *= f(j, r);
            }
          }
          return out_rows[static_cast<std::size_t>(i)];
        },
        plan);
    dev.record("dimtree_derive",
               derive_mode_stats(dims_, nnz_, rank_, mode, strategy),
               wall.seconds());
  } else {
    // Mode 0 (no prefix to reuse) or over-budget fallback: the flat from-raw
    // computation, in the reference's ascending product order.
    scatter_accumulate(
        strategy, out, nnz_,
        [&](index_t i, real_t* row) {
          const real_t v = values_[static_cast<std::size_t>(i)];
          for (index_t r = 0; r < rank; ++r) {
            row[static_cast<std::size_t>(r)] = v;
          }
          for (int m = 0; m < modes; ++m) {
            if (m == mode) continue;
            const index_t j =
                idx_[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)];
            const Matrix& f = factors[static_cast<std::size_t>(m)];
            for (index_t r = 0; r < rank; ++r) {
              row[static_cast<std::size_t>(r)] *= f(j, r);
            }
          }
          return out_rows[static_cast<std::size_t>(i)];
        },
        plan);
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
  const double chain = static_cast<double>(x.nnz()) *
                       static_cast<double>(rank) * simgpu::kWord;
  if (chain > budget_bytes) return MttkrpMode::kFlat;
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
  std::snprintf(line, sizeof line,
                "  intermediate bytes: %.1f MiB of %.1f MiB budget (%s)\n",
                mib, engine.budget_bytes() / (1024.0 * 1024.0),
                engine.chain_fits() ? "within" : "over; flat fallback");
  out += line;
  return out;
}

}  // namespace cstf
