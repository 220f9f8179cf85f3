// COO-format MTTKRP kernels.
//
// `mttkrp_ref` is the deliberately simple sequential kernel every other
// implementation is differentially tested against; `mttkrp_coo` is the
// parallel variant. Both compute, for the chosen mode n,
//   out = X_(n) * (H_N ⊙ ... ⊙ H_{n+1} ⊙ H_{n-1} ⊙ ... ⊙ H_1),
// materializing the Khatri-Rao rows on the fly per nonzero (Figure 2).
//
// The parallel kernel's output accumulation goes through the scatter engine
// (mttkrp/scatter.hpp): privatized tiles or a sorted segment plan, selected
// by ScatterOptions.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "mttkrp/scatter.hpp"
#include "tensor/coo.hpp"

namespace cstf {

/// Sequential reference MTTKRP. `out` must be dim(mode) x R.
void mttkrp_ref(const SparseTensor& x, const std::vector<Matrix>& factors,
                int mode, Matrix& out);

/// Parallel COO MTTKRP through the scatter engine. Returns the
/// concrete strategy used (after kAuto resolution). `plan` may carry a
/// cached sorted-scatter plan for this (tensor, mode); when the sorted
/// strategy is selected and `plan` is null, a one-shot plan is built
/// internally.
ScatterStrategy mttkrp_coo(const SparseTensor& x,
                           const std::vector<Matrix>& factors, int mode,
                           Matrix& out, const ScatterOptions& opts = {},
                           const ScatterPlan* plan = nullptr);

/// Builds the sorted-scatter plan for `mode` of `x` (bucket nonzeros by
/// output row); reusable for every mttkrp_coo call on the same tensor.
ScatterPlan coo_scatter_plan(const SparseTensor& x, int mode);

}  // namespace cstf
