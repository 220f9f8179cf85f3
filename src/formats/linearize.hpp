// Mode-agnostic bit linearization of tensor coordinates, shared by the ALTO
// and BLCO formats.
//
// Each mode m gets ceil(log2(dim_m)) bits; bits are interleaved round-robin
// from the least significant position (ALTO's adaptive ordering), so nearby
// linearized values are nearby in *every* mode — the locality property both
// formats exploit.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "tensor/coo.hpp"

namespace cstf {

/// How mode bits are laid out within the linearized value.
enum class BitOrder {
  /// Round-robin interleave from the LSB (ALTO's adaptive ordering):
  /// nearby linearized values are nearby in every mode.
  kInterleaved,
  /// Each mode's bits contiguous, mode 0 most significant: equivalent to a
  /// mode-0-major lexicographic sort. Preserves locality only in mode 0 —
  /// kept as the ablation baseline for the interleaving design choice.
  kModeMajor,
};

/// Bit layout mapping N-mode coordinates to/from a single 64-bit value.
class LinearizedEncoding {
 public:
  /// Builds the layout for the given dimensions. Throws if the combined bit
  /// budget exceeds 64.
  explicit LinearizedEncoding(const std::vector<index_t>& dims,
                              BitOrder order = BitOrder::kInterleaved);

  BitOrder order() const { return order_; }

  int num_modes() const { return static_cast<int>(dims_.size()); }
  const std::vector<index_t>& dims() const { return dims_; }

  /// Total bits used by one linearized coordinate.
  int total_bits() const { return total_bits_; }

  /// Bits assigned to one mode.
  int mode_bits(int mode) const { return bits_[static_cast<std::size_t>(mode)]; }

  /// Bitmask of the positions holding `mode`'s bits.
  lco_t mode_mask(int mode) const { return masks_[static_cast<std::size_t>(mode)]; }

  /// Packs coordinates into a linearized value.
  lco_t encode(const index_t* coords) const;

  /// Extracts one mode's coordinate from a linearized value.
  index_t decode(lco_t lco, int mode) const { return field(gather(lco), mode); }

  /// Extracts all coordinates (coords must hold num_modes() entries).
  void decode_all(lco_t lco, index_t* coords) const {
    const lco_t fields = gather(lco);
    for (int m = 0; m < num_modes(); ++m) coords[m] = field(fields, m);
  }

 private:
  // Moves every mode's bits to its field of one word, mode m's coordinate
  // occupying field_shift_[m] upward: the OR of one table lookup per byte of
  // the lco (at most 8).
  lco_t gather(lco_t lco) const {
    lco_t fields = 0;
    const lco_t* table = byte_tables_.data();
    for (int k = 0; k < table_count_; ++k, table += 256) {
      fields |= table[(lco >> (8 * k)) & 0xFFu];
    }
    return fields;
  }

  index_t field(lco_t fields, int mode) const {
    const auto mi = static_cast<std::size_t>(mode);
    return static_cast<index_t>((fields >> field_shift_[mi]) & field_mask_[mi]);
  }

  std::vector<index_t> dims_;
  BitOrder order_;
  std::vector<int> bits_;
  std::vector<lco_t> masks_;
  // Flat position table: positions_[mode][bit] = bit position within the lco.
  std::vector<std::vector<int>> positions_;
  int total_bits_ = 0;
  // Decode tables: ceil(total_bits / 8) tables of 256 words; entry v of
  // table k holds the bits of byte value v at lco byte k, each moved to its
  // place in the fields word (at most 16 KiB per encoding).
  int table_count_ = 0;
  std::vector<lco_t> byte_tables_;
  std::vector<int> field_shift_;
  std::vector<lco_t> field_mask_;
};

}  // namespace cstf
