#include "mttkrp/coo_mttkrp.hpp"

#include "parallel/parallel_for.hpp"

namespace cstf {

void mttkrp_ref(const SparseTensor& x, const std::vector<Matrix>& factors,
                int mode, Matrix& out) {
  const int modes = x.num_modes();
  CSTF_CHECK(mode >= 0 && mode < modes);
  CSTF_CHECK(static_cast<int>(factors.size()) == modes);
  const index_t rank = factors[0].cols();
  CSTF_CHECK(out.rows() == x.dim(mode) && out.cols() == rank);
  out.set_all(0.0);

  std::vector<real_t> row(static_cast<std::size_t>(rank));
  for (index_t i = 0; i < x.nnz(); ++i) {
    const real_t v = x.values()[static_cast<std::size_t>(i)];
    for (index_t r = 0; r < rank; ++r) row[static_cast<std::size_t>(r)] = v;
    for (int m = 0; m < modes; ++m) {
      if (m == mode) continue;
      const index_t idx = x.indices(m)[static_cast<std::size_t>(i)];
      const Matrix& f = factors[static_cast<std::size_t>(m)];
      for (index_t r = 0; r < rank; ++r) {
        row[static_cast<std::size_t>(r)] *= f(idx, r);
      }
    }
    const index_t out_row = x.indices(mode)[static_cast<std::size_t>(i)];
    for (index_t r = 0; r < rank; ++r) {
      out(out_row, r) += row[static_cast<std::size_t>(r)];
    }
  }
}

ScatterStrategy mttkrp_coo(const SparseTensor& x,
                           const std::vector<Matrix>& factors, int mode,
                           Matrix& out, const ScatterOptions& opts,
                           const ScatterPlan* plan) {
  const int modes = x.num_modes();
  CSTF_CHECK(mode >= 0 && mode < modes);
  CSTF_CHECK(static_cast<int>(factors.size()) == modes);
  const index_t rank = factors[0].cols();
  CSTF_CHECK(out.rows() == x.dim(mode) && out.cols() == rank);

  const ScatterStrategy strategy =
      resolve_scatter_strategy(opts, x.dim(mode), rank, x.nnz());

  // One-shot plan when the caller has no cache for this (tensor, mode).
  ScatterPlan local_plan;
  if (strategy == ScatterStrategy::kSorted && plan == nullptr) {
    local_plan = coo_scatter_plan(x, mode);
    plan = &local_plan;
  }

  const index_t* out_rows = x.indices(mode).data();
  const real_t* values = x.values().data();
  const RowGather gather(factors, mode);
  const index_t* coords[kMaxModes];
  for (int g = 0; g < gather.count; ++g) {
    coords[g] = x.indices(gather.mode[g]).data();
  }
  with_gather_count(gather.count, [&](auto count) {
    constexpr int G = decltype(count)::value;
    scatter_accumulate(
        strategy, out, x.nnz(),
        [&](index_t i, const auto& acc) {
          const auto at = static_cast<std::size_t>(i);
          const real_t v = values[at];
          gather.add<G>(acc(out_rows[at]), rank, [v](index_t) { return v; },
                        [&](int g) { return coords[g][at]; });
        },
        plan);
  });
  return strategy;
}

ScatterPlan coo_scatter_plan(const SparseTensor& x, int mode) {
  CSTF_CHECK(mode >= 0 && mode < x.num_modes());
  const index_t* out_rows = x.indices(mode).data();
  return build_scatter_plan(x.nnz(), [&](index_t i) {
    return out_rows[static_cast<std::size_t>(i)];
  });
}

}  // namespace cstf
