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
//   extend(n):  P_{n+1}[i, :] = P_n[i, :] ⊙ H_n[i_n, :]   (inside mode n+1's
//               MTTKRP, after mode n's update+normalize, so the chain always
//               holds current factors)
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
// Host execution: the device program records every extend as its own
// launch, in the order above, but the host stores only levels 2 .. N-2.
// P_1 = v ⊙ H_0 is one gathered row away from the raw nonzero, cheaper to
// form again than to write and reread, and P_{N-1} has one reader, mode
// N-1's derive, which forms it from P_{N-2} on the fly. A stored level's
// fold runs inside the derive that first needs it, in the same pass over
// the chain. Every product keeps the ascending order, so the bits are the
// stored chain's.
//
// Memory: the chain is one nnz x R double buffer leased from ScratchPool
// (`chain_bytes()`) on the first extend of an order >= 4 tensor. Whether it
// fits the `dimtree_budget_bytes` cap is decided once, before an engine
// exists (`dimtree_fits_budget`): an over-budget tensor runs the flat
// kernels and gets no engine. The chain is the engine's only copy: every
// fold, derive and flat loop gathers the factors' rows where they are
// stored. Staleness: the chain is folded in place, so the buffer only ever
// holds one level — when a sweep restarts at mode 0, `invalidate` is
// called, or the fingerprint backstop finds any folded factor stale, the
// whole chain is dropped and rebuilt from the raw nonzeros; there is no
// intermediate level to resume from.
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

/// Bytes of the nnz x R chain intermediate (the only tree node that is ever
/// materialized).
inline double dimtree_chain_bytes(index_t nnz, index_t rank) {
  return static_cast<double>(nnz) * static_cast<double>(rank) *
         simgpu::kWord;
}

/// The one budget check: whether the chain fits `budget_bytes`. Made once,
/// before an engine is enabled (resolve_mttkrp_mode,
/// BlcoBackend::enable_dimtree); an engine never re-checks it.
inline bool dimtree_fits_budget(index_t nnz, index_t rank,
                                double budget_bytes) {
  return dimtree_chain_bytes(nnz, rank) <= budget_bytes;
}

/// The engine. Owns a structure-of-arrays copy of the tensor's coordinates
/// (backends like BLCO do not keep the COO around) plus the chain lease and
/// its own per-mode sorted-scatter plan cache.
class DimTreeEngine {
 public:
  /// `x` must be validated; `rank` fixes the chain width for the engine's
  /// lifetime (one engine per factorization, like the scatter plan cache).
  DimTreeEngine(const SparseTensor& x, index_t rank);

  int num_modes() const { return static_cast<int>(dims_.size()); }
  index_t dim(int mode) const {
    return dims_[static_cast<std::size_t>(mode)];
  }
  index_t nnz() const { return nnz_; }
  index_t rank() const { return rank_; }

  /// The chain's bytes: the `dimtree_chain` row of the trainer's device
  /// footprint (cstf/footprint.hpp).
  double chain_bytes() const { return dimtree_chain_bytes(nnz_, rank_); }

  /// Number of leading factors currently folded into the chain (0 = empty).
  int level() const { return level_; }

  /// Drops the whole chain (all prefix levels): the caller replaced the
  /// factors (the trainer's initialize() and import_state()).
  void invalidate();

  /// MTTKRP for `mode` into `out` (dim(mode) x rank). Modes >= 1 first fold
  /// the chain up to level `mode` with the *current* factor contents —
  /// correct mid-AO, where modes < `mode` hold their updated values — and
  /// derive from it; mode 0 has no prefix, computes flat from the raw
  /// nonzeros and drops the chain (a sweep restarts, and factor 0 is
  /// updated next). With the sorted strategy — the one whose accumulation
  /// order matches `mttkrp_ref` — the result is bit-identical to the
  /// reference. Returns the scatter strategy used.
  ScatterStrategy mttkrp(simgpu::Device& dev,
                         const std::vector<Matrix>& factors, int mode,
                         Matrix& out, const ScatterOptions& opts = {});

  /// Streamed bytes charged when a derive has no prefix to reuse (mode 0)
  /// and the whole tensor is read once. The default is the raw COO
  /// footprint; backends that model a compressed resident tensor (BLCO)
  /// override it with their storage_bytes() so the tree's mode-0 term
  /// matches the flat kernel they replace.
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
  /// tree: extend(0..N-2) interleaved with derive(0..N-1). Like every
  /// MTTKRP record it prices no scatter strategy. Used by
  /// resolve_mttkrp_mode and exposed for tests.
  std::vector<simgpu::KernelStats> tree_iteration_stats() const;

  /// The flat counterpart: one from-raw MTTKRP per mode.
  std::vector<simgpu::KernelStats> flat_iteration_stats() const;

 private:
  struct Fingerprint {
    const real_t* data = nullptr;
    std::uint64_t hash = 0;  // sampled content hash (O(1) probes, not full)
    bool matches(const Matrix& f) const;
  };

  void ensure_chain();
  /// Verifies the fingerprints of every folded level against the current
  /// factors; any mismatch drops the whole chain (the backstop behind
  /// invalidate). Probabilistic: the hash samples O(1) entries per factor.
  void check_fingerprints(const std::vector<Matrix>& factors);
  /// Folds factors[level()] .. factors[target_level - 2] into the chain and
  /// returns whether level target_level - 1 is still missing: the caller's
  /// derive folds it. A target below the current level rebuilds from
  /// scratch (the chain cannot unfold).
  bool extend_to(simgpu::Device& dev, const std::vector<Matrix>& factors,
                 int target_level);
  void fold(simgpu::Device& dev, const std::vector<Matrix>& factors, int k);
  /// Records factors[k] as folded: its fingerprint, and level k + 1.
  void note_folded(const std::vector<Matrix>& factors, int k);
  const ScatterPlan& plan_for(int mode);

  std::vector<index_t> dims_;
  std::vector<std::vector<index_t>> idx_;  // per-mode coordinate arrays
  std::vector<real_t> values_;
  index_t nnz_ = 0;
  index_t rank_ = 0;
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
/// the chain does not fit `budget_bytes` (dimtree_fits_budget, on the chain
/// actually allocated, so the budget check is always at in-memory size).
/// `flat_stream_bytes` is the resident tensor's streamed footprint (BLCO
/// storage bytes for the GPU backend); pass 0 for the raw COO footprint.
/// `nnz_scale` scales the extensive stats before modeling — benches pass the
/// analog's scale factor to ask what the full-size dataset would pick; the
/// framework resolves the tensor it actually holds with the default 1.
/// `scatter` is unused — no modeled MTTKRP prices a scatter strategy — and
/// is kept because perfbench/driver.cpp calls this signature (ROADMAP open
/// item 2 drops it).
MttkrpMode resolve_mttkrp_mode(const SparseTensor& x, index_t rank,
                               const ScatterOptions& scatter,
                               const simgpu::DeviceSpec& spec,
                               double budget_bytes,
                               double flat_stream_bytes = 0.0,
                               double nnz_scale = 1.0);

/// Human-readable tree dump for `cstf_info --plan`: one line per node with
/// its shape and bytes, plus the reuse factor and the chain's bytes.
std::string describe_dimtree(const DimTreeEngine& engine);

}  // namespace cstf
