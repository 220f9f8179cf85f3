// Fixed-width bit packing, used by BLCO's per-block delta compression.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cstf {

/// Number of bits needed to represent values in [0, n) (at least 1).
int bits_for(std::uint64_t n);

/// Append-only writer of fixed-width codes into a word array.
class BitWriter {
 public:
  explicit BitWriter(int width) : width_(width) {
    CSTF_CHECK(width >= 1 && width <= 64);
  }

  void push(std::uint64_t value);

  const std::vector<std::uint64_t>& words() const { return words_; }
  std::vector<std::uint64_t> take() { return std::move(words_); }
  std::size_t count() const { return count_; }
  int width() const { return width_; }

 private:
  int width_;
  std::size_t count_ = 0;
  std::size_t bit_pos_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Random-access reader of fixed-width codes from a word array.
class BitReader {
 public:
  BitReader(const std::uint64_t* words, int width) : words_(words), width_(width) {}

  std::uint64_t get(std::size_t index) const {
    const std::size_t bit = index * static_cast<std::size_t>(width_);
    const std::size_t word = bit >> 6;
    const int offset = static_cast<int>(bit & 63);
    std::uint64_t value = words_[word] >> offset;
    const int spill = offset + width_ - 64;
    if (spill > 0) {
      value |= words_[word + 1] << (width_ - spill);
    }
    if (width_ < 64) {
      value &= (std::uint64_t{1} << width_) - 1;
    }
    return value;
  }

 private:
  const std::uint64_t* words_;
  int width_;
};

}  // namespace cstf
