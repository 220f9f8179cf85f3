// BLCO — Blocked Linearized COOrdinate format (Nguyen et al., ICS'22).
//
// The GPU-side sparse format of the paper's framework (Section 2.3/4). The
// linearized nonzero stream is cut into fixed-capacity blocks; within each
// block, coordinates are stored as bit-packed deltas from the block's base
// value, shrinking the per-nonzero index footprint well below the 8 bytes an
// lco_t would need. One copy serves MTTKRP for all modes, and each block is
// an independent unit of GPU work (one thread block).
#pragma once

#include <vector>

#include "formats/bitpack.hpp"
#include "formats/linearize.hpp"

namespace cstf {

/// One BLCO block: `count` nonzeros whose linearized coordinates are
/// base + delta_i, with deltas bit-packed at `delta_bits` each.
struct BlcoBlock {
  lco_t base = 0;
  int delta_bits = 1;
  index_t count = 0;
  /// Offset of this block's first nonzero in the tensor-wide value array.
  index_t value_offset = 0;
  std::vector<std::uint64_t> packed_deltas;
};

class BlcoTensor {
 public:
  /// Builds from COO. `block_capacity` bounds nonzeros per block (the GPU
  /// kernel's unit of work); the default matches a typical thread-block
  /// workload of 4K elements. `order` selects the linearization bit layout.
  explicit BlcoTensor(const SparseTensor& coo, index_t block_capacity = 4096,
                      BitOrder order = BitOrder::kInterleaved);

  const LinearizedEncoding& encoding() const { return encoding_; }
  int num_modes() const { return encoding_.num_modes(); }
  const std::vector<index_t>& dims() const { return encoding_.dims(); }
  index_t nnz() const { return static_cast<index_t>(values_.size()); }
  index_t block_capacity() const { return block_capacity_; }

  index_t num_blocks() const { return static_cast<index_t>(blocks_.size()); }
  const BlcoBlock& block(index_t b) const {
    return blocks_[static_cast<std::size_t>(b)];
  }

  /// Block holding nonzero `i` (0 <= i < nnz()). Every block but the last
  /// holds exactly block_capacity() nonzeros, so this is one division.
  index_t block_of(index_t i) const { return i / block_capacity_; }

  const std::vector<real_t>& values() const { return values_; }

  /// Reconstructs the linearized coordinate of element `i` within block `b`.
  lco_t element_lco(const BlcoBlock& blk, index_t i) const {
    return blk.base +
           BitReader(blk.packed_deltas.data(), blk.delta_bits).get(
               static_cast<std::size_t>(i));
  }

  /// Bytes streamed by one full sweep: packed deltas + block headers +
  /// values. The compression vs COO/ALTO is what the format buys.
  double storage_bytes() const;

 private:
  LinearizedEncoding encoding_;
  index_t block_capacity_;
  std::vector<BlcoBlock> blocks_;
  std::vector<real_t> values_;
};

}  // namespace cstf
