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
// Each call records one device kernel, `mttkrp_blco` (after the output's
// `mttkrp_zero_out`), whose stats come from the tensor's shape and the rank
// alone (blco_mttkrp_stats). The host resolves the output conflict with the
// scatter engine (mttkrp/scatter.hpp), both ways bit-deterministic:
// privatized — private output tiles, one per fixed BLCO block range,
// tree-combined into the output — or sorted — a segment sweep over a
// row-bucketed plan, one owner per output row. The strategy, its tiles and
// its reduce are host work: they change the record's host wall, never its
// stats (DESIGN.md §2).
#pragma once

#include <vector>

#include "formats/blco.hpp"
#include "la/matrix.hpp"
#include "mttkrp/scatter.hpp"
#include "simgpu/device.hpp"

namespace cstf {

/// MTTKRP for `mode` on the simulated device, executed on the host through
/// the scatter engine; returns the concrete strategy used. `out` must be
/// dims()[mode] x R. A null `plan` with the sorted strategy builds a
/// one-shot plan.
ScatterStrategy mttkrp_blco(simgpu::Device& dev, const BlcoTensor& blco,
                            const std::vector<Matrix>& factors, int mode,
                            Matrix& out, const ScatterOptions& opts = {},
                            const ScatterPlan* plan = nullptr);

/// Builds the sorted-scatter plan for `mode` (bucket the delta-decoded
/// nonzeros by output row); reusable across iterations.
ScatterPlan blco_scatter_plan(const BlcoTensor& blco, int mode);

/// The KernelStats `mttkrp_blco` records for one call under either
/// strategy (exposed so benches can rescale the traffic to full-size
/// datasets before modeling time).
simgpu::KernelStats blco_mttkrp_stats(const BlcoTensor& blco,
                                      const std::vector<Matrix>& factors,
                                      int mode);

/// The device records of one out-of-memory streamed MTTKRP, in the order made:
/// the output zero-fill, then per batch the host-link transfer of its blocks
/// ("mttkrp_stage_batch", link bytes alone) and the one launch that consumes
/// it ("mttkrp_blco_streamed").
struct StagedRecords {
  struct Batch {
    simgpu::KernelStats transfer;
    simgpu::KernelStats compute;
  };
  simgpu::KernelStats zero_fill;
  std::vector<Batch> batches;
};

/// Out-of-memory streamed MTTKRP (the BLCO substrate paper's headline mode):
/// when the tensor exceeds `device_budget_bytes` of device memory (after the
/// resident factors), its blocks are processed in batches staged over the
/// host link. Each batch records its transfer as a "mttkrp_stage_batch"
/// span, then one "mttkrp_blco_streamed" launch of the full-tensor stats
/// pro-rated by its nonzero share, run over its own block range and
/// accumulating into `out`. On the host the strategy is resolved once by the
/// kAuto rule over the whole tensor, and a sorted batch builds a plan over
/// its own nonzeros only, so nothing tensor-sized outlives a batch. Results
/// agree with `mttkrp_blco` to fp tolerance (batching regroups the per-row
/// sums) and are bit-reproducible run to run.
///
/// The device's modeled_time_s() is the serial copy-then-compute sum; the
/// double-buffered time is staged_makespan_s over `records`, which (when
/// non-null) receives every record the call made. Returns the number of
/// batches used. A tensor that fits runs resident (`mttkrp_blco`): the call
/// returns 1 and leaves `records` with no batches.
index_t mttkrp_blco_streamed(simgpu::Device& dev, const BlcoTensor& blco,
                             const std::vector<Matrix>& factors, int mode,
                             Matrix& out, double device_budget_bytes,
                             StagedRecords* records = nullptr);

/// Makespan of the double-buffered staging of `records` on `spec`, each
/// record's extensive quantities scaled by `extensive_scale` first (the
/// dataset-analog upscaling of perfmodel::modeled_time_scaled). Two clocks:
/// the copy lane runs the transfers back to back and the compute lane every
/// other record. Batch i's compute waits for transfer i; with two staging
/// buffers, transfer i overwrites the one batch i-2 read, so it waits for
/// that batch's launch.
double staged_makespan_s(const StagedRecords& records,
                         const simgpu::DeviceSpec& spec,
                         double extensive_scale = 1.0);

}  // namespace cstf
