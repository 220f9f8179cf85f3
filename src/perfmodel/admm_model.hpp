// The paper's analytical ADMM cost model (Section 3.3, Equations 3-5) and
// the stat-rescaling helper benches use to map scaled-analog meterings back
// to full-size datasets.
#pragma once

#include <vector>

#include "simgpu/counters.hpp"
#include "simgpu/device.hpp"
#include "simgpu/device_spec.hpp"

namespace cstf::perfmodel {

/// One ADMM inner iteration over an I x R factor (Eqs. 3-5).
struct AdmmIterationModel {
  double flops;       // W = 19*I*R + 2*I*R^2
  double words;       // Q = 22*I*R + R^2
  double intensity;   // I_ai = W / (Q * 8)  [flop/byte, doubles]
};

/// Evaluates Equations 3-5 for the given factor height I and rank R.
AdmmIterationModel admm_iteration_model(double i_len, double rank);

/// Roofline-predicted time of one ADMM inner iteration on `spec`, using the
/// closed-form W/Q (bandwidth-bound for the ranks the paper studies).
double admm_iteration_time(double i_len, double rank,
                           const simgpu::DeviceSpec& spec);

/// simgpu::scale_stats (simgpu/counters.hpp), under the name the benches'
/// analog-to-full-size mappings use.
using simgpu::scale_stats;

/// Models a kernel sequence at `factor` times its metered size: per-kernel
/// scale_stats, then per-kernel roofline, summed. The sequence counterpart
/// of modeled_time_scaled, keeping each kernel's own working set — how the
/// tree-vs-flat MTTKRP comparison and its bench columns are evaluated at
/// full dataset scale (see mttkrp/dimtree.hpp).
double modeled_sequence_scaled(const std::vector<simgpu::KernelStats>& seq,
                               double factor,
                               const simgpu::DeviceSpec& spec);

/// Models the device's accumulated record as if every kernel had processed
/// `factor`-times more data (per-kernel scale_stats, then per-kernel
/// roofline). This is how a scaled-analog run is converted into the modeled
/// time of the full-size dataset it stands in for.
double modeled_time_scaled(const simgpu::Device& dev, double factor);

}  // namespace cstf::perfmodel
