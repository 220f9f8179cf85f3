#include "formats/blco.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "formats/alto.hpp"

namespace cstf {

BlcoTensor::BlcoTensor(const SparseTensor& coo, index_t block_capacity,
                       BitOrder order)
    : encoding_(coo.dims(), order), block_capacity_(block_capacity) {
  CSTF_CHECK(block_capacity >= 1);

  // Reuse ALTO's sorted, merged linearized stream as the construction input.
  const AltoTensor alto(coo, order);
  const auto& lcos = alto.linearized();
  values_ = alto.values();
  const index_t n = static_cast<index_t>(lcos.size());

  // Every block except the last holds exactly block_capacity_ nonzeros:
  // block_of() relies on it.
  for (index_t start = 0; start < n; start += block_capacity_) {
    const index_t end = std::min<index_t>(start + block_capacity_, n);
    BlcoBlock blk;
    blk.base = lcos[static_cast<std::size_t>(start)];
    blk.count = end - start;
    blk.value_offset = start;
    const lco_t span = lcos[static_cast<std::size_t>(end - 1)] - blk.base;
    // span + 1 wraps to 0 when the block spans the whole 64-bit range.
    blk.delta_bits = span == ~lco_t{0} ? 64 : bits_for(span + 1);
    BitWriter writer(blk.delta_bits);
    for (index_t i = start; i < end; ++i) {
      writer.push(lcos[static_cast<std::size_t>(i)] - blk.base);
    }
    blk.packed_deltas = writer.take();
    blocks_.push_back(std::move(blk));
  }
}

double BlcoTensor::storage_bytes() const {
  double bytes = static_cast<double>(values_.size()) * sizeof(real_t);
  for (const auto& blk : blocks_) {
    bytes += static_cast<double>(blk.packed_deltas.size()) * sizeof(std::uint64_t);
    bytes += sizeof(BlcoBlock) - sizeof(std::vector<std::uint64_t>);
  }
  return bytes;
}

}  // namespace cstf
