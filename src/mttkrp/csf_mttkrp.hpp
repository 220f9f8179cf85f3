// CSF (SPLATT-style) MTTKRP for the tree's root mode.
//
// Each root fiber owns a disjoint output row, so the walk is parallel over
// roots with no atomics — SPLATT's key structural advantage on CPUs. The
// subtree walk accumulates Khatri-Rao partial products bottom-up, reusing
// each internal node's product across all of its leaves.
#pragma once

#include <vector>

#include "formats/csf.hpp"
#include "la/matrix.hpp"
#include "simgpu/counters.hpp"

namespace cstf {

/// MTTKRP for `csf.root_mode()`. `factors` are indexed by original mode
/// number; `out` must be dims()[root_mode] x R. Only the root mode of a CSF
/// tree can be computed from it; the SPLATT baseline keeps one tree per mode.
void mttkrp_csf(const CsfTensor& csf, const std::vector<Matrix>& factors,
                Matrix& out);

/// Cost-model statistics for one mttkrp_csf call: CSF structure streamed
/// once, factor rows gathered randomly against the live-factor working set,
/// output rows written race-free, once each (the scatter formats accumulate
/// into theirs).
simgpu::KernelStats csf_mttkrp_stats(const CsfTensor& csf,
                                     const std::vector<Matrix>& factors);

}  // namespace cstf
