#include "cstf/footprint.hpp"

#include <algorithm>
#include <cstdio>

namespace cstf {

DeviceFootprint::DeviceFootprint(double tensor_bytes,
                                 const std::vector<index_t>& mode_rows,
                                 index_t rank,
                                 std::optional<double> dimtree_chain_bytes) {
  const double word = static_cast<double>(sizeof(real_t));
  const double r = static_cast<double>(rank);
  index_t rows_max = 0;
  for (index_t rows : mode_rows) rows_max = std::max(rows_max, rows);

  constexpr bool kResident = true;
  rows_.push_back({"tensor", tensor_bytes, kResident});
  for (std::size_t n = 0; n < mode_rows.size(); ++n) {
    const double rows = static_cast<double>(mode_rows[n]);
    const std::string mode = std::to_string(n);
    rows_.push_back({"factor_" + mode, rows * r * word, kResident});
    rows_.push_back({"gram_" + mode, r * r * word, kResident});
    rows_.push_back({"dual_" + mode, rows * r * word, kResident});
  }
  rows_.push_back({"s_hadamard", r * r * word});
  rows_.push_back({"mttkrp_out", static_cast<double>(rows_max) * r * word});
  if (dimtree_chain_bytes.has_value()) {
    rows_.push_back({"dimtree_chain", *dimtree_chain_bytes});
  }
  rows_.push_back(
      {"update_scratch", 2.0 * static_cast<double>(rows_max) * r * word});
  rows_.push_back({"lambda", r * word, kResident});
  // The fit's snapshots (the last mode's MTTKRP result and its unnormalized
  // Gram) are no rows: they are live only from the fit capture on, after the
  // last update, when neither S^(n) nor the update scratch is live, and they
  // are smaller than those two (rows_last R + R^2 < 2 rows_max R + R^2
  // words), so they never set the peak.
  for (const FootprintRow& row : rows_) peak_bytes_ += row.bytes;
}

std::string DeviceFootprint::describe() const {
  std::string out =
      "buffers (* = resident across iterations; the others are live together "
      "at the busiest step):\n";
  char line[96];
  for (const FootprintRow& row : rows_) {
    std::snprintf(line, sizeof(line), "  %-24s %14.0f B%s\n", row.name.c_str(),
                  row.bytes, row.resident ? " *" : "");
    out += line;
  }
  std::snprintf(line, sizeof(line), "peak modeled device bytes: %.0f\n",
                peak_bytes_);
  return out + line;
}

}  // namespace cstf
