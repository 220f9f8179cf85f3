// DeviceFootprint — the modeled device memory of one AUNTF training run, a
// closed-form buffer table built from the driver's shape (DESIGN.md §12).
//
// Resident rows carry state from one iteration to the next: the tensor, per
// mode the factor, its Gram and its ADMM dual (kept for every scheme, so for
// MU/HALS/ALS/BPP the footprint is an upper bound), and lambda. Working-set
// rows are live together at the iteration's busiest step: the Hadamard Gram
// S^(n), the MTTKRP output and the update scratch (both sized by the longest
// mode), and the dimension tree's nnz x R chain when the tree is active. The
// peak is the sum of every row.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cstf {

struct FootprintRow {
  std::string name;
  double bytes = 0.0;
  bool resident = false;  ///< carries state across iterations
};

class DeviceFootprint {
 public:
  /// `mode_rows` holds every mode's length; `dimtree_chain_bytes` is set
  /// when the dimension tree's chain is active (it fits its budget).
  DeviceFootprint(double tensor_bytes, const std::vector<index_t>& mode_rows,
                  index_t rank, std::optional<double> dimtree_chain_bytes);

  const std::vector<FootprintRow>& rows() const { return rows_; }

  /// Peak modeled device bytes: the sum of every row, in row order.
  double peak_bytes() const { return peak_bytes_; }

  /// The table as `cstf_info --plan` prints it: one row per buffer (resident
  /// rows marked `*`) and the peak.
  std::string describe() const;

 private:
  std::vector<FootprintRow> rows_;
  double peak_bytes_ = 0.0;
};

}  // namespace cstf
