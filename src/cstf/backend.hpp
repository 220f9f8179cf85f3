// MTTKRP backends: the format-specific engines the AUNTF driver dispatches
// to (Algorithm 1 line 9).
//
// Each backend owns its format structure(s) and meters every call on the
// given Device, so one driver runs unchanged as:
//   BlcoBackend  + A100/H100 Device -> the paper's cSTF-GPU framework
//   CsfBackend   + Xeon Device      -> the SPLATT CPU baseline
//   AltoBackend  + Xeon Device      -> the modified-PLANC sparse baseline
//   DenseBackend + Xeon Device      -> the PLANC dense baseline (Figure 1)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "formats/alto.hpp"
#include "formats/blco.hpp"
#include "formats/csf.hpp"
#include "la/matrix.hpp"
#include "mttkrp/dimtree.hpp"
#include "mttkrp/scatter.hpp"
#include "simgpu/device.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"

namespace cstf {

/// Abstract MTTKRP engine over a fixed tensor.
class MttkrpBackend {
 public:
  virtual ~MttkrpBackend() = default;

  virtual std::string name() const = 0;
  virtual int num_modes() const = 0;
  virtual index_t dim(int mode) const = 0;
  virtual index_t nnz() const = 0;

  /// ||X||_F^2, needed by the driver's fit computation.
  virtual real_t norm_sq() const = 0;

  /// Computes `out = MTTKRP(X, factors, mode)` and meters the work on `dev`.
  /// `out` must be dim(mode) x R.
  virtual void mttkrp(simgpu::Device& dev, const std::vector<Matrix>& factors,
                      int mode, Matrix& out) const = 0;

  /// The dimension-tree reuse engine, when one is enabled on this backend
  /// (see BlcoBackend::enable_dimtree); null otherwise. Non-owning; the
  /// engine extends its own chain inside mttkrp(), and callers use it to
  /// invalidate on factor resets and to size the footprint's chain row.
  virtual DimTreeEngine* dimtree() const { return nullptr; }
};

/// BLCO-format backend (the GPU framework's engine). `scatter` selects the
/// output-accumulation strategy (see mttkrp/scatter.hpp); sorted-scatter
/// plans are built lazily per mode and cached for the tensor's lifetime.
class BlcoBackend final : public MttkrpBackend {
 public:
  explicit BlcoBackend(const SparseTensor& coo, index_t block_capacity = 4096,
                       ScatterOptions scatter = {});

  std::string name() const override { return "BLCO"; }
  int num_modes() const override { return blco_.num_modes(); }
  index_t dim(int mode) const override {
    return blco_.dims()[static_cast<std::size_t>(mode)];
  }
  index_t nnz() const override { return blco_.nnz(); }
  real_t norm_sq() const override { return norm_sq_; }
  void mttkrp(simgpu::Device& dev, const std::vector<Matrix>& factors,
              int mode, Matrix& out) const override;

  const BlcoTensor& tensor() const { return blco_; }

  /// Enables dimension-tree MTTKRP reuse (DESIGN.md §13) when the nnz x
  /// `rank` chain fits `budget_bytes` (dimtree_fits_budget) and returns
  /// true; otherwise leaves the backend flat and returns false. Once
  /// enabled, every mttkrp() call routes through the engine. All modes go
  /// through it — BLCO blocking reorders nonzeros, so mixing the flat BLCO
  /// kernel with chain-derived modes would break the engine's
  /// bit-identity-to-`mttkrp_ref` guarantee under sorted scatter. Needs the
  /// original COO tensor (BLCO does not keep it).
  bool enable_dimtree(const SparseTensor& coo, index_t rank,
                      double budget_bytes = kDefaultDimtreeBudgetBytes);

  DimTreeEngine* dimtree() const override { return dimtree_.get(); }

 private:
  BlcoTensor blco_;
  real_t norm_sq_;
  ScatterOptions scatter_;
  mutable ScatterPlanCache plans_;
  std::unique_ptr<DimTreeEngine> dimtree_;
};

/// CSF backend with one tree per mode (SPLATT's ALLMODE configuration).
class CsfBackend final : public MttkrpBackend {
 public:
  explicit CsfBackend(const SparseTensor& coo);

  std::string name() const override { return "CSF"; }
  int num_modes() const override { return static_cast<int>(trees_.size()); }
  index_t dim(int mode) const override {
    return trees_[static_cast<std::size_t>(mode)]->dims()[static_cast<std::size_t>(mode)];
  }
  index_t nnz() const override { return trees_[0]->nnz(); }
  real_t norm_sq() const override { return norm_sq_; }
  void mttkrp(simgpu::Device& dev, const std::vector<Matrix>& factors,
              int mode, Matrix& out) const override;

 private:
  std::vector<std::unique_ptr<CsfTensor>> trees_;
  real_t norm_sq_;
};

/// ALTO backend: a single linearized copy serving all modes.
class AltoBackend final : public MttkrpBackend {
 public:
  explicit AltoBackend(const SparseTensor& coo, ScatterOptions scatter = {});

  std::string name() const override { return "ALTO"; }
  int num_modes() const override { return alto_.num_modes(); }
  index_t dim(int mode) const override {
    return alto_.dims()[static_cast<std::size_t>(mode)];
  }
  index_t nnz() const override { return alto_.nnz(); }
  real_t norm_sq() const override { return norm_sq_; }
  void mttkrp(simgpu::Device& dev, const std::vector<Matrix>& factors,
              int mode, Matrix& out) const override;

 private:
  AltoTensor alto_;
  real_t norm_sq_;
  ScatterOptions scatter_;
  mutable ScatterPlanCache plans_;
};

/// Dense backend (the PLANC dense-TF baseline of Figure 1).
class DenseBackend final : public MttkrpBackend {
 public:
  explicit DenseBackend(DenseTensor dense);

  std::string name() const override { return "Dense"; }
  int num_modes() const override { return dense_.num_modes(); }
  index_t dim(int mode) const override { return dense_.dim(mode); }
  index_t nnz() const override { return dense_.num_elements(); }
  real_t norm_sq() const override { return norm_sq_; }
  void mttkrp(simgpu::Device& dev, const std::vector<Matrix>& factors,
              int mode, Matrix& out) const override;

 private:
  DenseTensor dense_;
  real_t norm_sq_;
};

}  // namespace cstf
