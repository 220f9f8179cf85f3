#include "mttkrp/csf_mttkrp.hpp"

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"

namespace cstf {

namespace {

/// Accumulates into `acc[0..rank)` the subtree sum
///   sum_{leaves under node} val * hadamard of factor rows of levels > l.
/// `node` lives at level `l`; requires l <= modes-2.
void walk_subtree(const CsfTensor& csf, const std::vector<Matrix>& factors,
                  index_t rank, int l, index_t node, real_t* acc,
                  real_t* scratch) {
  const int modes = csf.num_modes();
  const index_t child_lo = csf.fptr(l)[static_cast<std::size_t>(node)];
  const index_t child_hi = csf.fptr(l)[static_cast<std::size_t>(node) + 1];
  if (l == modes - 2) {
    // Children are leaf entries.
    const auto& leaf_fids = csf.fids(modes - 1);
    const Matrix& leaf_factor =
        factors[static_cast<std::size_t>(csf.mode_order()[static_cast<std::size_t>(modes - 1)])];
    for (index_t e = child_lo; e < child_hi; ++e) {
      const real_t v = csf.values()[static_cast<std::size_t>(e)];
      const real_t* row =
          leaf_factor.data() + leaf_fids[static_cast<std::size_t>(e)] * rank;
      for (index_t r = 0; r < rank; ++r) acc[r] += v * row[r];
    }
    return;
  }
  // Children are internal nodes at level l+1: acc += H(fid_child) .* walk(child).
  const auto& child_fids = csf.fids(l + 1);
  const Matrix& child_factor =
      factors[static_cast<std::size_t>(csf.mode_order()[static_cast<std::size_t>(l + 1)])];
  // Each recursion level needs its own scratch row; `scratch` points at a
  // (modes-deep) stack of rank-sized rows.
  real_t* child_acc = scratch;
  for (index_t c = child_lo; c < child_hi; ++c) {
    for (index_t r = 0; r < rank; ++r) child_acc[r] = 0.0;
    walk_subtree(csf, factors, rank, l + 1, c, child_acc, scratch + rank);
    const real_t* row =
        child_factor.data() + child_fids[static_cast<std::size_t>(c)] * rank;
    for (index_t r = 0; r < rank; ++r) acc[r] += row[r] * child_acc[r];
  }
}

}  // namespace

simgpu::KernelStats csf_mttkrp_stats(const CsfTensor& csf,
                                     const std::vector<Matrix>& factors) {
  const int modes = csf.num_modes();
  const auto rank = static_cast<double>(factors[0].cols());
  simgpu::KernelStats stats;
  // Leaf work: one fma per rank slot per nonzero; internal levels: one
  // hadamard-accumulate per node.
  stats.flops = 2.0 * static_cast<double>(csf.nnz()) * rank;
  double internal_nodes = 0.0;
  for (int l = 0; l < modes - 1; ++l) {
    internal_nodes += static_cast<double>(csf.num_nodes(l));
  }
  stats.flops += 2.0 * internal_nodes * rank;
  stats.bytes_streamed = csf.storage_bytes();
  // Factor-row gathers: leaf rows per nonzero, internal rows per node.
  stats.bytes_random =
      (static_cast<double>(csf.nnz()) + internal_nodes) * rank * simgpu::kWord;
  double factor_bytes = 0.0;
  for (int m = 0; m < modes; ++m) {
    if (m == csf.root_mode()) continue;
    factor_bytes +=
        static_cast<double>(factors[static_cast<std::size_t>(m)].size()) *
        simgpu::kWord;
  }
  stats.working_set_bytes = factor_bytes;
  // Output: each root fiber row written once, no atomics.
  stats.bytes_streamed +=
      static_cast<double>(csf.num_nodes(0)) * rank * simgpu::kWord;
  stats.parallel_items = static_cast<double>(csf.num_nodes(0));
  // Gather-dominated per-nonzero loops with short rank-length bodies.
  stats.compute_efficiency = 0.4;
  return stats;
}

void mttkrp_csf(const CsfTensor& csf, const std::vector<Matrix>& factors,
                Matrix& out) {
  const int modes = csf.num_modes();
  CSTF_CHECK(modes >= 2);
  CSTF_CHECK(static_cast<int>(factors.size()) == modes);
  const index_t rank = factors[0].cols();
  const int root = csf.root_mode();
  CSTF_CHECK(out.rows() == csf.dims()[static_cast<std::size_t>(root)] &&
             out.cols() == rank);
  out.set_all(0.0);

  const auto& root_fids = csf.fids(0);
  parallel_for_blocked(0, csf.num_nodes(0), [&](index_t lo, index_t hi) {
    // Per-worker scratch: one accumulator row per tree level.
    std::vector<real_t> scratch(static_cast<std::size_t>(rank * modes), 0.0);
    real_t* acc = scratch.data();
    for (index_t node = lo; node < hi; ++node) {
      for (index_t r = 0; r < rank; ++r) acc[r] = 0.0;
      walk_subtree(csf, factors, rank, 0, node, acc, scratch.data() + rank);
      real_t* row = out.row(root_fids[static_cast<std::size_t>(node)]);
      for (index_t r = 0; r < rank; ++r) row[r] += acc[r];
    }
  }, /*grain=*/8);
}

}  // namespace cstf
