#include "formats/bitpack.hpp"

namespace cstf {

int bits_for(std::uint64_t n) {
  if (n <= 2) return 1;
  int bits = 0;
  std::uint64_t v = n - 1;
  while (v) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

void BitWriter::push(std::uint64_t value) {
  if (width_ < 64) {
    CSTF_CHECK_MSG(value < (std::uint64_t{1} << width_),
                   "value " << value << " exceeds " << width_ << " bits");
  }
  const std::size_t word = bit_pos_ >> 6;
  const int offset = static_cast<int>(bit_pos_ & 63);
  if (word >= words_.size()) words_.push_back(0);
  words_[word] |= value << offset;
  const int spill = offset + width_ - 64;
  if (spill > 0) {
    words_.push_back(value >> (width_ - spill));
  }
  bit_pos_ += static_cast<std::size_t>(width_);
  ++count_;
}

}  // namespace cstf
