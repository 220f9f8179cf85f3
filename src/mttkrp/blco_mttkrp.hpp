// BLCO MTTKRP — the simulated-GPU kernel (Nguyen et al. ICS'22 style).
//
// One thread block per BLCO block; threads stride over the block's nonzeros,
// unpack the delta-compressed coordinates, form the Khatri-Rao row on the
// fly, and scatter into the output. The launch is metered: the streamed
// bytes are the *compressed* tensor, and the factor-row gathers are charged
// as random traffic against a working set of the live factor matrices — the
// two quantities whose interplay produces the MTTKRP-vs-ADMM speedup
// trade-off of Figures 7–8.
//
// The output scatter goes through the scatter engine (mttkrp/scatter.hpp).
// Two device kernels exist, both bit-deterministic:
//   mttkrp_blco_priv    — grid of private output tiles, one per fixed BLCO
//                         block range, + a mttkrp_blco_reduce launch that
//                         tree-combines them;
//   mttkrp_blco_sorted  — segment sweep over a row-bucketed plan, one owner
//                         per output row.
#pragma once

#include <vector>

#include "formats/blco.hpp"
#include "la/matrix.hpp"
#include "mttkrp/scatter.hpp"
#include "simgpu/device.hpp"

namespace cstf {

/// MTTKRP for `mode` on the simulated device through the scatter engine;
/// returns the concrete strategy used. `out` must be dims()[mode] x R. A
/// null `plan` with the sorted strategy builds a one-shot plan.
ScatterStrategy mttkrp_blco(simgpu::Device& dev, const BlcoTensor& blco,
                            const std::vector<Matrix>& factors, int mode,
                            Matrix& out, const ScatterOptions& opts = {},
                            const ScatterPlan* plan = nullptr);

/// Builds the sorted-scatter plan for `mode` (bucket the delta-decoded
/// nonzeros by output row); reusable across iterations.
ScatterPlan blco_scatter_plan(const BlcoTensor& blco, int mode);

/// The KernelStats `mttkrp_blco` records for one call (exposed so benches
/// can rescale the traffic to full-size datasets before modeling time).
/// Describes the strategy-independent work; `apply_scatter_stats` adds the
/// per-strategy terms.
simgpu::KernelStats blco_mttkrp_stats(const BlcoTensor& blco,
                                      const std::vector<Matrix>& factors,
                                      int mode);

/// Out-of-memory streamed MTTKRP (the BLCO substrate paper's headline mode):
/// when the tensor exceeds `device_budget_bytes` of device memory (after the
/// resident factors), its blocks are processed in batches staged over the
/// host link, double-buffered so staging overlaps compute. The strategy is
/// resolved once by the kAuto rule over the whole tensor; each batch then
/// runs that kernel (as "mttkrp_blco_streamed") over its own block range,
/// accumulating into `out`. A sorted batch builds a plan over its own
/// nonzeros only, so nothing tensor-sized outlives a batch. Results agree
/// with `mttkrp_blco` to fp tolerance (batching regroups the per-row sums)
/// and are bit-reproducible run to run.
///
/// Two ways to model the staging:
///  * default `copy_stream` — each batch's compute span carries its own
///    host_link_bytes, and the cost model overlaps the two within the span
///    (the pre-stream behavior, unchanged);
///  * an explicit `copy_stream` — staging becomes its own spans on that
///    stream, with events expressing the two-buffer pipeline (compute of
///    batch i waits its staging; staging of batch i reuses the buffer of
///    batch i-2, so it waits that compute), and Device::modeled_makespan_s()
///    reports the pipeline's critical path.
///
/// Returns the number of batches used (1 == fully resident, no staging).
index_t mttkrp_blco_streamed(simgpu::Device& dev, const BlcoTensor& blco,
                             const std::vector<Matrix>& factors, int mode,
                             Matrix& out, double device_budget_bytes,
                             simgpu::Stream copy_stream = {});

}  // namespace cstf
