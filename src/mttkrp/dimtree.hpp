// Dimension-tree MTTKRP reuse engine.
//
// Every AO outer iteration needs one MTTKRP per mode, and consecutive modes
// share most of their partial Khatri-Rao contractions. This engine caches the
// shared part as a single semi-sparse intermediate — the *prefix chain* —
// instead of recomputing it per mode:
//
//   P_k[i, :] = v_i ⊙ H_0[i_0, :] ⊙ ... ⊙ H_{k-1}[i_{k-1}, :]
//
// one rank-length row per nonzero, with the factors folded in ascending mode
// order. The tree is the degenerate caterpillar: node P_k has parent P_{k-1}
// and a single leaf child H_{k-1}. Mode n's MTTKRP is then derived from the
// nearest cached ancestor P_n by multiplying only the *suffix* factors
// H_{n+1} .. H_{N-1} into each chain row and scattering:
//
//   derive(n):  out[i_n, :] += P_n[i, :] ⊙ H_{n+1}[i_{n+1}, :] ⊙ ...
//   extend(n):  P_{n+1}[i, :] = P_n[i, :] ⊙ H_n[i_n, :]   (after mode n's
//               update+normalize, so the chain always holds current factors)
//
// Per AO iteration that is one extend per non-terminal mode plus suffix-only
// derives — for an order-N tensor the per-nonzero multiply count drops from
// N(N-1) to ~N(N+2)/2, and the gathers shrink the same way (derive(N-1)
// gathers nothing at all). The caterpillar shape is deliberate: the ascending
// left-fold is exactly `mttkrp_ref`'s product order, so with the sorted
// scatter strategy (per-row accumulation in ascending nonzero id) the derive
// is bit-identical to the reference. A balanced tree or a suffix cache would
// regroup the floating-point products and break that property.
//
// Memory: the chain is one nnz x R double buffer leased from ScratchPool
// (`chain_bytes()`); when it exceeds `budget_bytes` the engine releases it
// and every derive falls back to the flat from-raw path — correctness is
// unaffected, only the reuse is lost. Each fold, derive and flat call also
// leases row-major copies of the factors it gathers from (at most
// sum(I_m) x R reals) for the call's duration. Staleness: the chain is
// folded in place, so the buffer only ever holds its top level — when
// `note_factor_updated` / `invalidate` (or the fingerprint backstop) find
// any folded factor stale, the whole chain is dropped and rebuilt from the
// overwriting level-0 fold; there is no intermediate level to resume from.
// A per-level factor fingerprint (pointer + sampled content hash) catches
// callers that mutate a folded factor without telling us.
//
// Tree-vs-flat selection (`resolve_mttkrp_mode`) models one full AO
// iteration's MTTKRP sequence both ways with the simgpu roofline and picks
// the faster; see DESIGN.md §13 for when each side wins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "mttkrp/scatter.hpp"
#include "parallel/scratch_pool.hpp"
#include "simgpu/device.hpp"
#include "simgpu/device_spec.hpp"
#include "tensor/coo.hpp"

namespace cstf {

/// How the framework computes MTTKRPs: flat per-mode kernels, the
/// dimension-tree engine, or a per-tensor cost-model decision.
enum class MttkrpMode {
  kAuto,     ///< resolve_mttkrp_mode picks per (tensor, rank, order)
  kFlat,     ///< the existing per-mode kernels, no reuse
  kDimtree,  ///< prefix-chain reuse engine
};

/// Display name ("auto", "flat", "dimtree").
const char* mttkrp_mode_name(MttkrpMode mode);

/// Parses a mode name; returns false (leaving `out` untouched) on an
/// unknown name.
bool parse_mttkrp_mode(const std::string& name, MttkrpMode* out);

/// Default chain budget: matches FrameworkOptions::dimtree_budget_bytes.
inline constexpr double kDefaultDimtreeBudgetBytes = 256.0 * 1024.0 * 1024.0;

/// The engine. Owns a structure-of-arrays copy of the tensor's coordinates
/// (backends like BLCO do not keep the COO around) plus the chain lease and
/// its own per-mode sorted-scatter plan cache.
class DimTreeEngine {
 public:
  /// `x` must be validated; `rank` fixes the chain width for the engine's
  /// lifetime (one engine per factorization, like the scatter plan cache).
  DimTreeEngine(const SparseTensor& x, index_t rank,
                double budget_bytes = kDefaultDimtreeBudgetBytes);

  int num_modes() const { return static_cast<int>(dims_.size()); }
  index_t dim(int mode) const {
    return dims_[static_cast<std::size_t>(mode)];
  }
  index_t nnz() const { return nnz_; }
  index_t rank() const { return rank_; }

  /// Bytes of the nnz x R chain intermediate (the only tree node that is
  /// ever materialized): the `dimtree_chain` row of the trainer's device
  /// footprint (cstf/footprint.hpp).
  double chain_bytes() const {
    return static_cast<double>(nnz_) * static_cast<double>(rank_) *
           simgpu::kWord;
  }

  double budget_bytes() const { return budget_bytes_; }

  /// Shrinking the budget below chain_bytes() releases the chain
  /// immediately; subsequent derives run flat until the budget is raised.
  void set_budget_bytes(double bytes);

  /// False when the chain exceeds the budget (the engine is in flat
  /// fallback).
  bool chain_fits() const { return chain_bytes() <= budget_bytes_; }

  /// Number of leading factors currently folded into the chain (0 = empty).
  int level() const { return level_; }

  /// Drops the whole chain (all prefix levels).
  void invalidate();

  /// Factor `mode`'s contents changed. If it was folded (level() > mode)
  /// the whole chain is dropped: the in-place buffer holds only the top
  /// level, so a shorter prefix cannot be recovered — the next extend
  /// rebuilds from level 0. A no-op when the factor was not folded yet
  /// (the trainer's in-order sweep, where level() == mode at update time).
  void note_factor_updated(int mode);

  /// Folds factors[level()] .. factors[target_level - 1] into the chain.
  /// A target below the current level rebuilds from scratch (the start-of-
  /// iteration case: the chain is at N-1 from the previous sweep and mode 0
  /// restarts it). No-op when the chain is over budget.
  void extend_to(simgpu::Device& dev, const std::vector<Matrix>& factors,
                 int target_level);

  /// MTTKRP for `mode` into `out` (dim(mode) x rank). Derives from the
  /// chain when it fits the budget (lazily extending to level `mode` with
  /// the *current* factor contents — correct mid-AO, where modes < `mode`
  /// hold their updated values), otherwise computes flat from the raw
  /// nonzeros. With the sorted strategy — the one whose accumulation order
  /// matches `mttkrp_ref` — the result is bit-identical to the reference.
  /// Returns the scatter strategy used.
  ScatterStrategy mttkrp(simgpu::Device& dev,
                         const std::vector<Matrix>& factors, int mode,
                         Matrix& out, const ScatterOptions& opts = {});

  /// Streamed bytes charged when a derive has no prefix to reuse (mode 0,
  /// or the over-budget fallback) and the whole tensor is read once. The
  /// default is the raw COO footprint; backends that model a compressed
  /// resident tensor (BLCO) override it with their storage_bytes() so the
  /// tree's mode-0 term matches the flat kernel they replace.
  void set_flat_stream_bytes(double bytes) { flat_stream_bytes_ = bytes; }

  /// Per-nonzero multiply-add count of one full AO iteration, flat vs tree
  /// — the reuse factor `cstf_info --plan` reports.
  double flat_iteration_flops() const;
  double tree_iteration_flops() const;
  double reuse_factor() const {
    const double tree = tree_iteration_flops();
    return tree > 0.0 ? flat_iteration_flops() / tree : 1.0;
  }

  /// Modeled kernel sequence of one AO iteration's MTTKRPs through the
  /// tree: extend(0..N-2) interleaved with derive(0..N-1), with the scatter
  /// strategy resolved per mode. Used by resolve_mttkrp_mode and exposed
  /// for tests.
  std::vector<simgpu::KernelStats> tree_iteration_stats(
      const ScatterOptions& opts) const;

  /// The flat counterpart: one from-raw MTTKRP per mode.
  std::vector<simgpu::KernelStats> flat_iteration_stats(
      const ScatterOptions& opts) const;

  /// The engine's per-mode sorted-scatter plan cache — exposed so its
  /// hit/miss counters are observable (cstf_info).
  const ScatterPlanCache& scatter_plans() const { return plans_; }

 private:
  struct Fingerprint {
    const real_t* data = nullptr;
    std::uint64_t hash = 0;  // sampled content hash (O(1) probes, not full)
    bool matches(const Matrix& f) const;
  };

  void ensure_chain();
  void release_chain();
  /// Verifies the fingerprints of every folded level against the current
  /// factors; any mismatch drops the whole chain (the backstop behind
  /// note_factor_updated). Probabilistic: the hash samples O(1) entries
  /// per factor.
  void check_fingerprints(const std::vector<Matrix>& factors);
  void fold(simgpu::Device& dev, const std::vector<Matrix>& factors, int k);
  simgpu::KernelStats extend_stats(int k) const;
  simgpu::KernelStats derive_stats(int mode, ScatterStrategy strategy) const;
  simgpu::KernelStats flat_stats(int mode, ScatterStrategy strategy) const;
  const ScatterPlan& plan_for(int mode);

  std::vector<index_t> dims_;
  std::vector<std::vector<index_t>> idx_;  // per-mode coordinate arrays
  std::vector<real_t> values_;
  index_t nnz_ = 0;
  index_t rank_ = 0;
  double budget_bytes_ = kDefaultDimtreeBudgetBytes;
  double flat_stream_bytes_ = 0.0;

  // Chain state: `lease_` holds the nnz x R buffer (row i at chain_ + i*R),
  // `level_` the folded prefix length, `fps_[k]` the fingerprint of the
  // factor folded at level k.
  ScratchPool::Lease lease_;
  real_t* chain_ = nullptr;
  int level_ = 0;
  std::vector<Fingerprint> fps_;

  ScatterPlanCache plans_{"dimtree"};
};

/// Picks tree-vs-flat for one (tensor shape, rank) on `spec` by modeling a
/// full AO iteration's MTTKRP kernel sequence both ways (the engine's
/// *_iteration_stats) and comparing roofline totals. Returns kFlat whenever
/// the chain would exceed `budget_bytes` (the chain actually allocated, so
/// the budget check is always at in-memory size). `flat_stream_bytes` is
/// the resident tensor's streamed footprint (BLCO storage bytes for the GPU
/// backend); pass 0 for the raw COO footprint. `nnz_scale` scales the
/// extensive stats before modeling — benches pass the analog's scale factor
/// to ask what the full-size dataset would pick; the framework resolves the
/// tensor it actually holds with the default 1.
MttkrpMode resolve_mttkrp_mode(const SparseTensor& x, index_t rank,
                               const ScatterOptions& scatter,
                               const simgpu::DeviceSpec& spec,
                               double budget_bytes,
                               double flat_stream_bytes = 0.0,
                               double nnz_scale = 1.0);

/// Human-readable tree dump for `cstf_info --plan`: one line per node with
/// its shape and bytes, plus the reuse factor and budget verdict.
std::string describe_dimtree(const DimTreeEngine& engine);

}  // namespace cstf
