// CstfFramework — the library's top-level public API.
//
// Mirrors the paper's cSTF-GPU framework: a sparse tensor is ingested into
// the BLCO format, and constrained CPD factorization runs entirely on the
// (simulated) device with the chosen update scheme. Quickstart:
//
//   cstf::FrameworkOptions opts;
//   opts.rank = 32;
//   opts.scheme = cstf::UpdateScheme::kCuAdmm;          // Algorithm 3
//   opts.prox = cstf::Proximity::non_negative();
//   cstf::CstfFramework framework(tensor, opts);
//   auto result = framework.run();
//   cstf::KTensor model = framework.ktensor();
#pragma once

#include <memory>

#include "cstf/auntf.hpp"
#include "updates/admm.hpp"
#include "updates/als.hpp"
#include "updates/bpp.hpp"
#include "updates/hals.hpp"
#include "updates/mu.hpp"

namespace cstf {

/// Constraint-update algorithm selection (Sections 4.2-4.3, 5.4).
enum class UpdateScheme {
  kCuAdmm,      // GPU-optimized ADMM: operation fusion + pre-inversion
  kAdmm,        // generic ADMM composed from device BLAS calls
  kMu,          // multiplicative update (non-negativity only)
  kHals,        // hierarchical ALS (non-negativity only)
  kAls,         // unconstrained least squares
  kBpp,         // exact NNLS via block principal pivoting (PLANC's ANLS-BPP)
};

struct FrameworkOptions {
  index_t rank = 32;
  int max_iterations = 10;
  real_t fit_tolerance = 0.0;
  bool compute_fit = true;
  std::uint64_t seed = 42;

  UpdateScheme scheme = UpdateScheme::kCuAdmm;

  /// Constraint for the ADMM schemes (MU/HALS are inherently non-negative;
  /// ALS ignores it).
  Proximity prox = Proximity::non_negative();

  /// Inner ADMM iterations (paper fixes 10).
  int admm_inner_iterations = 10;

  /// Execution target for the cost model; defaults to the paper's A100.
  simgpu::DeviceSpec device = simgpu::a100();

  /// BLCO block capacity (nonzeros per device block).
  index_t blco_block_capacity = 4096;

  /// MTTKRP output-accumulation strategy (see mttkrp/scatter.hpp). The
  /// default auto-selects per mode. Every strategy is bit-reproducible run
  /// to run at a fixed worker count.
  ScatterOptions scatter;

  /// How MTTKRPs are computed (see mttkrp/dimtree.hpp and DESIGN.md §13):
  /// kFlat uses the per-mode BLCO kernels, kDimtree the prefix-chain reuse
  /// engine, and kAuto lets resolve_mttkrp_mode model both over one AO
  /// iteration on `device` and pick the faster. With `scatter.strategy =
  /// kSorted`, dimtree is bit-identical to the COO reference `mttkrp_ref`
  /// (the flat BLCO kernel regroups per-row sums by block, so the two
  /// engines agree to fp tolerance, not bitwise).
  MttkrpMode mttkrp_mode = MttkrpMode::kAuto;

  /// Byte cap on the dimension tree's nnz x R chain intermediate, checked
  /// once when the framework is built: over budget, kDimtree and kAuto both
  /// resolve to the flat kernels.
  double dimtree_budget_bytes = kDefaultDimtreeBudgetBytes;

  /// Write a crash-consistent training checkpoint (CSTFCKPT, see
  /// cstf/checkpoint.hpp) to `checkpoint_path` every N completed outer
  /// iterations. 0 disables checkpointing.
  int checkpoint_every = 0;
  std::string checkpoint_path;

  /// Resume training from this checkpoint before the first iteration of
  /// run(). The checkpoint's options digest must match this configuration
  /// (rank, seed, scheme, constraint, ... — everything except
  /// max_iterations and the checkpoint knobs themselves); a resumed run is
  /// bit-identical to an uninterrupted one.
  std::string resume_from;
};

/// End-to-end constrained sparse tensor factorization on the simulated GPU.
class CstfFramework {
 public:
  CstfFramework(const SparseTensor& tensor, FrameworkOptions options);

  // The checkpoint hook captures `this`; pinning the object keeps the
  // capture valid for the framework's whole lifetime.
  CstfFramework(const CstfFramework&) = delete;
  CstfFramework& operator=(const CstfFramework&) = delete;

  /// Runs the factorization to completion. With `resume_from` set, restores
  /// that checkpoint first (throws ModelIoError on corruption or an options
  /// mismatch) and performs only the remaining iterations; with
  /// `checkpoint_every` > 0, snapshots training state to `checkpoint_path`
  /// at the configured iteration boundaries.
  AuntfResult run();

  /// Writes a checkpoint of the driver's current training state (also used
  /// internally by the periodic hook).
  void write_checkpoint(const std::string& path) const;

  /// The factored model after run()/iterate().
  KTensor ktensor() const { return driver_->ktensor(); }

  Auntf& driver() { return *driver_; }
  simgpu::Device& device() { return device_; }
  const UpdateMethod& update_method() const { return *update_; }
  const BlcoBackend& backend() const { return backend_; }

  /// The MTTKRP mode actually in effect after kAuto resolution and the
  /// budget check (never kAuto; kFlat for a kDimtree whose chain does not
  /// fit `dimtree_budget_bytes`). `cstf_info --plan`, `cstf_cli` and the
  /// benches report this.
  MttkrpMode resolved_mttkrp_mode() const { return resolved_mttkrp_; }

  /// Builds an update method for a scheme outside the framework (used by
  /// benches that drive Auntf directly).
  static std::unique_ptr<UpdateMethod> make_update(
      UpdateScheme scheme, const Proximity& prox, int admm_inner_iterations);

  /// Device-memory footprint of a fully resident run: the BLCO tensor, the
  /// factor matrices, the ADMM dual/scratch state, and the MTTKRP output.
  /// The paper's framework keeps all of this on the GPU; comparing this
  /// number against the 80 GB HBM of Table 1 shows which full-size datasets
  /// need the out-of-memory streaming mode of the underlying BLCO work
  /// (Nguyen et al.) — Amazon at 1.7 B nonzeros does. The number is the
  /// peak of the driver's closed-form buffer table (Auntf::footprint()), so
  /// `cstf_info --plan` and this always agree.
  double device_footprint_bytes() const;

 private:
  void resume_from_checkpoint(const std::string& path);

  FrameworkOptions options_;
  simgpu::Device device_;
  BlcoBackend backend_;
  MttkrpMode resolved_mttkrp_ = MttkrpMode::kFlat;
  std::unique_ptr<UpdateMethod> update_;
  std::unique_ptr<Auntf> driver_;
  bool resumed_ = false;
};

}  // namespace cstf
