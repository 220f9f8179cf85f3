#include "cstf/backend.hpp"

#include "common/error.hpp"
#include "mttkrp/alto_mttkrp.hpp"
#include "mttkrp/blco_mttkrp.hpp"
#include "mttkrp/coo_mttkrp.hpp"
#include "mttkrp/csf_mttkrp.hpp"
#include "tensor/dense.hpp"

namespace cstf {

BlcoBackend::BlcoBackend(const SparseTensor& coo, index_t block_capacity,
                         ScatterOptions scatter)
    : blco_(coo, block_capacity),
      norm_sq_(coo.frobenius_norm_sq()),
      scatter_(scatter) {}

bool BlcoBackend::enable_dimtree(const SparseTensor& coo, index_t rank,
                                 double budget_bytes) {
  CSTF_CHECK_MSG(coo.nnz() == blco_.nnz() &&
                     coo.num_modes() == blco_.num_modes(),
                 "enable_dimtree: tensor does not match the ingested BLCO");
  if (!dimtree_fits_budget(coo.nnz(), rank, budget_bytes)) return false;
  dimtree_ = std::make_unique<DimTreeEngine>(coo, rank);
  // Mode-0 derives stream the resident tensor once; charge them the BLCO
  // storage footprint so the tree's flat term models the kernel it
  // replaces.
  dimtree_->set_flat_stream_bytes(blco_.storage_bytes());
  return true;
}

void BlcoBackend::mttkrp(simgpu::Device& dev,
                         const std::vector<Matrix>& factors, int mode,
                         Matrix& out) const {
  if (dimtree_ != nullptr) {
    dimtree_->mttkrp(dev, factors, mode, out, scatter_);
    return;
  }
  ScatterOptions opts = scatter_;
  opts.strategy = resolve_scatter_strategy(opts, dim(mode), out.cols(), nnz());
  const ScatterPlan* plan = nullptr;
  if (opts.strategy == ScatterStrategy::kSorted) {
    plan = &plans_.get(mode, [&] { return blco_scatter_plan(blco_, mode); });
  }
  mttkrp_blco(dev, blco_, factors, mode, out, opts, plan);
}

CsfBackend::CsfBackend(const SparseTensor& coo)
    : norm_sq_(coo.frobenius_norm_sq()) {
  trees_.reserve(static_cast<std::size_t>(coo.num_modes()));
  for (int m = 0; m < coo.num_modes(); ++m) {
    trees_.push_back(std::make_unique<CsfTensor>(coo, m));
  }
}

void CsfBackend::mttkrp(simgpu::Device& dev,
                        const std::vector<Matrix>& factors, int mode,
                        Matrix& out) const {
  const CsfTensor& tree = *trees_[static_cast<std::size_t>(mode)];
  dev.record("mttkrp_csf", csf_mttkrp_stats(tree, factors));
  mttkrp_csf(tree, factors, out);
}

AltoBackend::AltoBackend(const SparseTensor& coo, ScatterOptions scatter)
    : alto_(coo), norm_sq_(coo.frobenius_norm_sq()), scatter_(scatter) {}

void AltoBackend::mttkrp(simgpu::Device& dev,
                         const std::vector<Matrix>& factors, int mode,
                         Matrix& out) const {
  ScatterOptions opts = scatter_;
  opts.strategy = resolve_scatter_strategy(opts, dim(mode), out.cols(), nnz());
  const ScatterPlan* plan = nullptr;
  if (opts.strategy == ScatterStrategy::kSorted) {
    plan = &plans_.get(mode, [&] { return alto_scatter_plan(alto_, mode); });
  }
  simgpu::KernelStats stats = alto_mttkrp_stats(alto_, factors, mode);
  apply_scatter_stats(stats, opts.strategy, dim(mode), out.cols(),
                      static_cast<double>(nnz()));
  dev.record("mttkrp_alto", stats);
  mttkrp_alto(alto_, factors, mode, out, opts, plan);
}

CooBackend::CooBackend(SparseTensor coo, ScatterOptions scatter)
    : coo_(std::move(coo)),
      norm_sq_(coo_.frobenius_norm_sq()),
      scatter_(scatter) {}

void CooBackend::mttkrp(simgpu::Device& dev,
                        const std::vector<Matrix>& factors, int mode,
                        Matrix& out) const {
  ScatterOptions opts = scatter_;
  opts.strategy = resolve_scatter_strategy(opts, dim(mode), out.cols(), nnz());
  const ScatterPlan* plan = nullptr;
  if (opts.strategy == ScatterStrategy::kSorted) {
    plan = &plans_.get(mode, [&] { return coo_scatter_plan(coo_, mode); });
  }
  // Traffic mirrors the ALTO accounting minus the compression.
  simgpu::KernelStats stats;
  const auto rank = static_cast<double>(factors[0].cols());
  const auto n = static_cast<double>(coo_.nnz());
  const int modes = coo_.num_modes();
  stats.flops = n * rank * static_cast<double>(modes + 1);
  stats.bytes_streamed =
      n * (static_cast<double>(modes) * sizeof(index_t) + sizeof(real_t));
  stats.bytes_random = n * rank * simgpu::kWord * static_cast<double>(modes + 1);
  stats.parallel_items = n;
  apply_scatter_stats(stats, opts.strategy, dim(mode), out.cols(), n);
  dev.record("mttkrp_coo", stats);
  mttkrp_coo(coo_, factors, mode, out, opts, plan);
}

DenseBackend::DenseBackend(DenseTensor dense)
    : dense_(std::move(dense)), norm_sq_(dense_.frobenius_norm_sq()) {}

void DenseBackend::mttkrp(simgpu::Device& dev,
                          const std::vector<Matrix>& factors, int mode,
                          Matrix& out) const {
  simgpu::KernelStats stats;
  const auto rank = static_cast<double>(factors[0].cols());
  const auto elems = static_cast<double>(dense_.num_elements());
  const int modes = dense_.num_modes();
  // The dense MTTKRP touches every tensor element: cost proportional to
  // prod(dims), the property that makes it dominate DenseTF (Figure 1).
  stats.flops = elems * rank * static_cast<double>(modes);
  stats.bytes_streamed = elems * simgpu::kWord;
  stats.bytes_reused = elems * rank * simgpu::kWord;  // factor rows
  double factor_bytes = 0.0;
  for (int m = 0; m < modes; ++m) {
    if (m == mode) continue;
    factor_bytes +=
        static_cast<double>(factors[static_cast<std::size_t>(m)].size()) *
        simgpu::kWord;
  }
  stats.working_set_bytes = factor_bytes;
  stats.parallel_items = static_cast<double>(dense_.dim(mode));
  dev.record("mttkrp_dense", stats);
  dense_mttkrp(dense_, factors, mode, out);
}

}  // namespace cstf
