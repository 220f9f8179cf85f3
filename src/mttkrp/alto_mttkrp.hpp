// ALTO-format MTTKRP (the CPU kernel of the paper's modified PLANC baseline).
#pragma once

#include <vector>

#include "formats/alto.hpp"
#include "la/matrix.hpp"
#include "mttkrp/scatter.hpp"
#include "simgpu/counters.hpp"

namespace cstf {

/// MTTKRP over the linearized stream: one pass decodes each nonzero's
/// coordinates from its bit-packed lco and accumulates into `out` through
/// the scatter engine. A single ALTO copy serves every mode. `out` must be
/// dims()[mode] x R. Returns the concrete strategy used; a null `plan` with
/// the sorted strategy builds a one-shot plan.
ScatterStrategy mttkrp_alto(const AltoTensor& alto,
                            const std::vector<Matrix>& factors, int mode,
                            Matrix& out, const ScatterOptions& opts = {},
                            const ScatterPlan* plan = nullptr);

/// Builds the sorted-scatter plan for `mode` (bucket the linearized stream
/// by the mode's decoded coordinate); reusable across iterations.
ScatterPlan alto_scatter_plan(const AltoTensor& alto, int mode);

/// Cost-model statistics for one mttkrp_alto call under either scatter
/// strategy: linearized stream read once, factor gathers charged as random
/// traffic, the output merged with one streaming pass.
simgpu::KernelStats alto_mttkrp_stats(const AltoTensor& alto,
                                      const std::vector<Matrix>& factors,
                                      int mode);

}  // namespace cstf
