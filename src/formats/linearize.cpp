#include "formats/linearize.hpp"

#include "common/error.hpp"
#include "formats/bitpack.hpp"

namespace cstf {

LinearizedEncoding::LinearizedEncoding(const std::vector<index_t>& dims,
                                       BitOrder order)
    : dims_(dims), order_(order) {
  CSTF_CHECK(!dims_.empty());
  const int modes = num_modes();
  bits_.resize(static_cast<std::size_t>(modes));
  masks_.assign(static_cast<std::size_t>(modes), 0);
  positions_.resize(static_cast<std::size_t>(modes));
  int total = 0;
  for (int m = 0; m < modes; ++m) {
    bits_[static_cast<std::size_t>(m)] =
        bits_for(static_cast<std::uint64_t>(dims_[static_cast<std::size_t>(m)]));
    total += bits_[static_cast<std::size_t>(m)];
  }
  CSTF_CHECK_MSG(total <= 64, "linearized coordinate needs " << total
                                                             << " bits (max 64)");
  total_bits_ = total;

  if (order_ == BitOrder::kInterleaved) {
    // Round-robin interleave from the LSB: repeatedly give the next bit
    // position to each mode that still has unassigned bits.
    std::vector<int> assigned(static_cast<std::size_t>(modes), 0);
    int pos = 0;
    bool any = true;
    while (any) {
      any = false;
      for (int m = 0; m < modes; ++m) {
        auto mi = static_cast<std::size_t>(m);
        if (assigned[mi] < bits_[mi]) {
          positions_[mi].push_back(pos);
          masks_[mi] |= lco_t{1} << pos;
          ++pos;
          ++assigned[mi];
          any = true;
        }
      }
    }
  } else {
    // Mode-major: last mode in the low bits, mode 0 on top — the linearized
    // order coincides with a mode-0-first lexicographic sort.
    int pos = 0;
    for (int m = modes - 1; m >= 0; --m) {
      auto mi = static_cast<std::size_t>(m);
      for (int b = 0; b < bits_[mi]; ++b) {
        positions_[mi].push_back(pos);
        masks_[mi] |= lco_t{1} << pos;
        ++pos;
      }
    }
  }

  // Fields word: mode 0's bits lowest, each mode's bits end to end in
  // coordinate order. field_bit[p] is where lco bit p lands.
  field_shift_.resize(static_cast<std::size_t>(modes));
  field_mask_.resize(static_cast<std::size_t>(modes));
  std::vector<int> field_bit(static_cast<std::size_t>(total_bits_), 0);
  int shift = 0;
  for (int m = 0; m < modes; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    field_shift_[mi] = shift;
    // A lone mode may take all 64 bits; shifting by 64 is undefined.
    field_mask_[mi] =
        bits_[mi] >= 64 ? ~lco_t{0} : (lco_t{1} << bits_[mi]) - 1;
    for (int b = 0; b < bits_[mi]; ++b) {
      field_bit[static_cast<std::size_t>(
          positions_[mi][static_cast<std::size_t>(b)])] = shift + b;
    }
    shift += bits_[mi];
  }
  table_count_ = (total_bits_ + 7) / 8;
  byte_tables_.assign(static_cast<std::size_t>(table_count_) * 256, 0);
  for (int k = 0; k < table_count_; ++k) {
    for (unsigned v = 0; v < 256; ++v) {
      lco_t word = 0;
      for (int j = 0; j < 8; ++j) {
        const int p = 8 * k + j;
        if (p < total_bits_ && ((v >> j) & 1u)) {
          word |= lco_t{1} << field_bit[static_cast<std::size_t>(p)];
        }
      }
      byte_tables_[static_cast<std::size_t>(k) * 256 + v] = word;
    }
  }
}

lco_t LinearizedEncoding::encode(const index_t* coords) const {
  lco_t lco = 0;
  for (int m = 0; m < num_modes(); ++m) {
    const auto mi = static_cast<std::size_t>(m);
    const auto c = static_cast<lco_t>(coords[m]);
    for (int b = 0; b < bits_[mi]; ++b) {
      lco |= ((c >> b) & 1u) << positions_[mi][static_cast<std::size_t>(b)];
    }
  }
  return lco;
}

}  // namespace cstf
