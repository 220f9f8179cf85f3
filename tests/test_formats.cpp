// Unit tests for src/formats: bit packing, linearization, CSF, ALTO, BLCO.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.hpp"
#include "formats/alto.hpp"
#include "formats/bitpack.hpp"
#include "formats/blco.hpp"
#include "formats/csf.hpp"
#include "formats/linearize.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

SparseTensor random_tensor(std::vector<index_t> dims, index_t nnz,
                           std::uint64_t seed) {
  RandomTensorParams params;
  params.dims = std::move(dims);
  params.target_nnz = nnz;
  params.seed = seed;
  return generate_random(params);
}

// Collects (coords -> value) from a COO tensor for set-equality checks.
std::map<std::vector<index_t>, real_t> as_map(const SparseTensor& t) {
  std::map<std::vector<index_t>, real_t> out;
  for (index_t i = 0; i < t.nnz(); ++i) {
    std::vector<index_t> coords(static_cast<std::size_t>(t.num_modes()));
    for (int m = 0; m < t.num_modes(); ++m) {
      coords[static_cast<std::size_t>(m)] =
          t.indices(m)[static_cast<std::size_t>(i)];
    }
    out[coords] += t.values()[static_cast<std::size_t>(i)];
  }
  return out;
}

TEST(BitPack, BitsForBoundaries) {
  EXPECT_EQ(bits_for(1), 1);
  EXPECT_EQ(bits_for(2), 1);
  EXPECT_EQ(bits_for(3), 2);
  EXPECT_EQ(bits_for(4), 2);
  EXPECT_EQ(bits_for(5), 3);
  EXPECT_EQ(bits_for(1ULL << 32), 32);
  EXPECT_EQ(bits_for((1ULL << 32) + 1), 33);
}

TEST(BitPack, RoundTripNarrowWidth) {
  BitWriter w(5);
  for (std::uint64_t v = 0; v < 32; ++v) w.push(v);
  const auto words = w.take();
  BitReader r(words.data(), 5);
  for (std::uint64_t v = 0; v < 32; ++v) EXPECT_EQ(r.get(v), v);
}

TEST(BitPack, RoundTripAcrossWordBoundaries) {
  // width 13 guarantees codes straddling 64-bit word boundaries.
  BitWriter w(13);
  std::vector<std::uint64_t> values;
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.uniform_index(1u << 13));
    w.push(values.back());
  }
  const auto words = w.take();
  BitReader r(words.data(), 13);
  for (std::size_t i = 0; i < values.size(); ++i) EXPECT_EQ(r.get(i), values[i]);
}

TEST(BitPack, RoundTripFullWidth64) {
  BitWriter w(64);
  const std::uint64_t big = ~std::uint64_t{0} - 5;
  w.push(big);
  w.push(0);
  w.push(12345);
  const auto words = w.take();
  BitReader r(words.data(), 64);
  EXPECT_EQ(r.get(0), big);
  EXPECT_EQ(r.get(1), 0u);
  EXPECT_EQ(r.get(2), 12345u);
}

TEST(BitPack, OverwideValueThrows) {
  BitWriter w(3);
  EXPECT_THROW(w.push(8), Error);
}

TEST(Linearize, RoundTripsEveryCoordinate) {
  LinearizedEncoding enc({5, 9, 3});
  index_t coords[3], back[3];
  std::set<lco_t> seen;
  for (coords[0] = 0; coords[0] < 5; ++coords[0]) {
    for (coords[1] = 0; coords[1] < 9; ++coords[1]) {
      for (coords[2] = 0; coords[2] < 3; ++coords[2]) {
        const lco_t lco = enc.encode(coords);
        EXPECT_TRUE(seen.insert(lco).second) << "lco collision";
        enc.decode_all(lco, back);
        EXPECT_EQ(back[0], coords[0]);
        EXPECT_EQ(back[1], coords[1]);
        EXPECT_EQ(back[2], coords[2]);
      }
    }
  }
}

TEST(Linearize, BitBudgetMatchesDims) {
  LinearizedEncoding enc({1024, 17, 2});
  EXPECT_EQ(enc.mode_bits(0), 10);
  EXPECT_EQ(enc.mode_bits(1), 5);
  EXPECT_EQ(enc.mode_bits(2), 1);
  EXPECT_EQ(enc.total_bits(), 16);
  // Masks are disjoint and cover total_bits positions.
  lco_t all = 0;
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(all & enc.mode_mask(m), 0u);
    all |= enc.mode_mask(m);
  }
  EXPECT_EQ(__builtin_popcountll(all), 16);
}

TEST(Linearize, OverflowingBitBudgetThrows) {
  // 4 modes x 17 bits = 68 bits > 64.
  EXPECT_THROW(LinearizedEncoding({100000, 100000, 100000, 100000}),
               Error);
}

TEST(Linearize, InterleavingPreservesLocality) {
  // Adjacent coordinates in any single mode must differ only in that mode's
  // mask bits.
  LinearizedEncoding enc({64, 64});
  index_t a[2] = {10, 20};
  index_t b[2] = {11, 20};
  EXPECT_EQ((enc.encode(a) ^ enc.encode(b)) & ~enc.mode_mask(0), 0u);
}

TEST(Linearize, ModeMajorRoundTripsEveryCoordinate) {
  LinearizedEncoding enc({5, 9, 3}, BitOrder::kModeMajor);
  index_t coords[3], back[3];
  for (coords[0] = 0; coords[0] < 5; ++coords[0]) {
    for (coords[1] = 0; coords[1] < 9; ++coords[1]) {
      for (coords[2] = 0; coords[2] < 3; ++coords[2]) {
        enc.decode_all(enc.encode(coords), back);
        EXPECT_EQ(back[0], coords[0]);
        EXPECT_EQ(back[1], coords[1]);
        EXPECT_EQ(back[2], coords[2]);
      }
    }
  }
}

TEST(Linearize, ModeMajorOrderMatchesLexicographic) {
  // Mode-major linearized values sort exactly like mode-0-first
  // lexicographic coordinates.
  LinearizedEncoding enc({4, 4, 4}, BitOrder::kModeMajor);
  index_t a[3] = {1, 3, 3};
  index_t b[3] = {2, 0, 0};
  EXPECT_LT(enc.encode(a), enc.encode(b));
  index_t c[3] = {1, 2, 3};
  index_t d[3] = {1, 3, 0};
  EXPECT_LT(enc.encode(c), enc.encode(d));
}

// Reference decode, one bit at a time: the b-th set bit of mode_mask(m),
// counting up from the LSB, is bit b of mode m's coordinate.
index_t bit_loop_decode(const LinearizedEncoding& enc, lco_t lco, int mode) {
  const lco_t mask = enc.mode_mask(mode);
  lco_t c = 0;
  int b = 0;
  for (int p = 0; p < 64; ++p) {
    if ((mask >> p) & 1u) c |= ((lco >> p) & 1u) << b++;
  }
  return static_cast<index_t>(c);
}

// A dimension needing exactly `bits` bits (bits_for(dim) == bits).
index_t dim_with_bits(int bits, Rng& rng) {
  if (bits == 1) return 1 + static_cast<index_t>(rng.uniform_index(2));
  const std::uint64_t half = std::uint64_t{1} << (bits - 1);
  // (half, 2 * half], capped at the largest index_t for 63 bits.
  const std::uint64_t span = bits == 63 ? half - 1 : half;
  return static_cast<index_t>(half + 1 + rng.uniform_index(span));
}

TEST(Linearize, TableDecodeMatchesBitLoopDecode) {
  Rng rng(2024);
  int full_width = 0;
  int with_one_bit_mode = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int modes = 2 + static_cast<int>(rng.uniform_index(5));  // 2..6
    std::vector<int> bits(static_cast<std::size_t>(modes));
    int total = 0;
    for (int& b : bits) {
      b = 1 + static_cast<int>(rng.uniform_index(16));
      total += b;
    }
    // Every third encoding uses all 64 bits; the rest at most 64.
    const int target = trial % 3 == 0 ? 64 : std::min(total, 64);
    while (total != target) {
      int& b = bits[static_cast<std::size_t>(rng.uniform_index(
          static_cast<std::uint64_t>(modes)))];
      if (total > target && b > 1) {
        --b;
        --total;
      } else if (total < target && b < 63) {
        ++b;
        ++total;
      }
    }
    std::vector<index_t> dims;
    for (int b : bits) dims.push_back(dim_with_bits(b, rng));
    full_width += total == 64;
    with_one_bit_mode += std::count(bits.begin(), bits.end(), 1) > 0;

    for (BitOrder order : {BitOrder::kInterleaved, BitOrder::kModeMajor}) {
      const LinearizedEncoding enc(dims, order);
      ASSERT_EQ(enc.total_bits(), total);
      for (int k = 0; k < 64; ++k) {
        // Full 64-bit words: bits above total_bits() must be ignored too.
        const lco_t lco = k == 0 ? 0 : k == 1 ? ~lco_t{0} : rng();
        index_t coords[kMaxModes];
        enc.decode_all(lco, coords);
        for (int m = 0; m < modes; ++m) {
          const index_t want = bit_loop_decode(enc, lco, m);
          ASSERT_EQ(coords[m], want) << "trial " << trial << " mode " << m;
          ASSERT_EQ(enc.decode(lco, m), want);
        }
      }
    }
  }
  EXPECT_GT(full_width, 0);
  EXPECT_GT(with_one_bit_mode, 0);
}

TEST(Blco, BothBitOrdersReconstructIdentically) {
  SparseTensor t = random_tensor({50, 40, 30}, 2000, 12);
  for (BitOrder order : {BitOrder::kInterleaved, BitOrder::kModeMajor}) {
    const BlcoTensor blco(t, 256, order);
    EXPECT_EQ(blco.nnz(), t.nnz());
    auto want = as_map(t);
    index_t coords[kMaxModes];
    for (index_t b = 0; b < blco.num_blocks(); ++b) {
      const BlcoBlock& blk = blco.block(b);
      for (index_t i = 0; i < blk.count; ++i) {
        blco.encoding().decode_all(blco.element_lco(blk, i), coords);
        std::vector<index_t> key(coords, coords + 3);
        ASSERT_TRUE(want.count(key));
      }
    }
  }
}

TEST(Csf, BuildsCorrectTreeForKnownTensor) {
  SparseTensor t({3, 2, 2});
  t.append({0, 0, 0}, 1.0);
  t.append({0, 1, 0}, 2.0);
  t.append({0, 1, 1}, 3.0);
  t.append({2, 0, 1}, 4.0);
  CsfTensor csf(t, /*root_mode=*/0);
  EXPECT_EQ(csf.num_modes(), 3);
  EXPECT_EQ(csf.nnz(), 4);
  // Two distinct root indices: 0 and 2.
  ASSERT_EQ(csf.num_nodes(0), 2);
  EXPECT_EQ(csf.fids(0)[0], 0);
  EXPECT_EQ(csf.fids(0)[1], 2);
  // Root 0 has mid-level children {0,1}; root 2 has {0}.
  ASSERT_EQ(csf.num_nodes(1), 3);
  EXPECT_EQ(csf.fptr(0)[0], 0);
  EXPECT_EQ(csf.fptr(0)[1], 2);
  EXPECT_EQ(csf.fptr(0)[2], 3);
  // Leaf level holds all 4 entries.
  ASSERT_EQ(csf.num_nodes(2), 4);
  EXPECT_EQ(csf.fptr(1).back(), 4);
}

TEST(Csf, RootModeSelectionReordersModes) {
  SparseTensor t = random_tensor({10, 20, 5}, 200, 3);
  CsfTensor csf(t, /*root_mode=*/2);
  EXPECT_EQ(csf.root_mode(), 2);
  EXPECT_EQ(csf.mode_order()[0], 2);
  EXPECT_EQ(csf.mode_order()[1], 0);
  EXPECT_EQ(csf.mode_order()[2], 1);
  // Root fids must be strictly increasing (distinct, sorted).
  const auto& roots = csf.fids(0);
  for (std::size_t i = 1; i < roots.size(); ++i) {
    EXPECT_LT(roots[i - 1], roots[i]);
  }
}

TEST(Csf, ChildRangesPartitionEachLevel) {
  SparseTensor t = random_tensor({30, 40, 20, 10}, 1000, 4);
  CsfTensor csf(t, 1);
  for (int l = 0; l < csf.num_modes() - 1; ++l) {
    const auto& fptr = csf.fptr(l);
    ASSERT_EQ(static_cast<index_t>(fptr.size()), csf.num_nodes(l) + 1);
    EXPECT_EQ(fptr.front(), 0);
    EXPECT_EQ(fptr.back(), csf.num_nodes(l + 1));
    for (std::size_t i = 1; i < fptr.size(); ++i) {
      EXPECT_LT(fptr[i - 1], fptr[i]);  // every node has >= 1 child
    }
  }
}

TEST(Csf, StorageSmallerThanCooForClusteredTensors) {
  // Heavy skew -> long fibers -> CSF compresses the upper levels.
  RandomTensorParams params;
  params.dims = {100, 100, 100};
  params.target_nnz = 20000;
  params.mode_dist = {{1.5}, {1.5}, {1.5}};
  params.seed = 5;
  SparseTensor t = generate_random(params);
  CsfTensor csf(t, 0);
  const double coo_bytes =
      static_cast<double>(t.nnz()) * (3 * sizeof(index_t) + sizeof(real_t));
  EXPECT_LT(csf.storage_bytes(), coo_bytes);
}

TEST(Alto, PreservesAllNonzeros) {
  SparseTensor t = random_tensor({50, 30, 20}, 2000, 6);
  AltoTensor alto(t);
  EXPECT_EQ(alto.nnz(), t.nnz());  // generator already merged duplicates
  EXPECT_EQ(as_map(t).size(), static_cast<std::size_t>(alto.nnz()));
  // Decode every element and compare against the COO content.
  auto want = as_map(t);
  index_t coords[kMaxModes];
  for (index_t i = 0; i < alto.nnz(); ++i) {
    alto.encoding().decode_all(alto.linearized()[static_cast<std::size_t>(i)],
                               coords);
    std::vector<index_t> key(coords, coords + 3);
    ASSERT_TRUE(want.count(key));
    EXPECT_DOUBLE_EQ(want[key], alto.values()[static_cast<std::size_t>(i)]);
  }
}

TEST(Alto, LinearizedStreamIsSorted) {
  SparseTensor t = random_tensor({64, 64, 64}, 3000, 7);
  AltoTensor alto(t);
  const auto& lcos = alto.linearized();
  for (std::size_t i = 1; i < lcos.size(); ++i) {
    EXPECT_LT(lcos[i - 1], lcos[i]);  // strictly: duplicates were merged
  }
}

TEST(Alto, MergesDuplicateCoordinates) {
  SparseTensor t({4, 4});
  t.append({1, 2}, 1.0);
  t.append({1, 2}, 2.0);
  t.append({0, 0}, 5.0);
  AltoTensor alto(t);
  EXPECT_EQ(alto.nnz(), 2);
  EXPECT_DOUBLE_EQ(alto.values()[0], 5.0);  // (0,0) linearizes lowest
  EXPECT_DOUBLE_EQ(alto.values()[1], 3.0);
}

TEST(Blco, ReconstructsEveryElement) {
  SparseTensor t = random_tensor({40, 60, 25}, 3000, 8);
  BlcoTensor blco(t, /*block_capacity=*/256);
  auto want = as_map(t);
  index_t coords[kMaxModes];
  index_t seen = 0;
  for (index_t b = 0; b < blco.num_blocks(); ++b) {
    const BlcoBlock& blk = blco.block(b);
    for (index_t i = 0; i < blk.count; ++i) {
      blco.encoding().decode_all(blco.element_lco(blk, i), coords);
      std::vector<index_t> key(coords, coords + 3);
      ASSERT_TRUE(want.count(key));
      EXPECT_DOUBLE_EQ(
          want[key],
          blco.values()[static_cast<std::size_t>(blk.value_offset + i)]);
      ++seen;
    }
  }
  EXPECT_EQ(seen, blco.nnz());
  EXPECT_EQ(blco.nnz(), t.nnz());
}

TEST(Blco, BlockCapacityIsRespected) {
  SparseTensor t = random_tensor({100, 100}, 5000, 9);
  BlcoTensor blco(t, 128);
  EXPECT_EQ(blco.num_blocks(), (blco.nnz() + 127) / 128);
  for (index_t b = 0; b < blco.num_blocks(); ++b) {
    EXPECT_LE(blco.block(b).count, 128);
    EXPECT_GT(blco.block(b).count, 0);
  }
}

TEST(Blco, BlockOfFindsTheBlockHoldingEachNonzero) {
  SparseTensor t = random_tensor({60, 50, 40}, 6000, 13);
  for (index_t capacity : {index_t{1}, index_t{7}, index_t{256},
                           index_t{4096}}) {
    const BlcoTensor blco(t, capacity);
    if (capacity > 1) {
      // A short last block, so the division meets a partial block.
      ASSERT_NE(blco.nnz() % capacity, 0) << "capacity " << capacity;
    }
    index_t seen = 0;
    for (index_t b = 0; b < blco.num_blocks(); ++b) {
      const BlcoBlock& blk = blco.block(b);
      for (index_t i = blk.value_offset; i < blk.value_offset + blk.count;
           ++i) {
        ASSERT_EQ(blco.block_of(i), b) << "capacity " << capacity;
        ++seen;
      }
    }
    EXPECT_EQ(seen, blco.nnz());
  }
}

TEST(Blco, BlockSpanningTheWholeLcoRangeBuilds) {
  // Regression: a block whose deltas span all 64 bits needs 64-bit deltas
  // (span + 1 wraps to 0, and bits_for(0) is 1).
  const index_t n = index_t{1} << 32;
  SparseTensor t({n, n});
  t.append({0, 0}, 1.0);
  t.append({n - 1, n - 1}, 2.0);
  EXPECT_NO_THROW(AltoTensor{t});
  for (BitOrder order : {BitOrder::kInterleaved, BitOrder::kModeMajor}) {
    const BlcoTensor blco(t, 4096, order);
    ASSERT_EQ(blco.encoding().total_bits(), 64);
    ASSERT_EQ(blco.num_blocks(), 1);
    const BlcoBlock& blk = blco.block(0);
    EXPECT_EQ(blk.delta_bits, 64);
    index_t coords[kMaxModes];
    blco.encoding().decode_all(blco.element_lco(blk, 0), coords);
    EXPECT_EQ(coords[0], 0);
    EXPECT_EQ(coords[1], 0);
    blco.encoding().decode_all(blco.element_lco(blk, 1), coords);
    EXPECT_EQ(coords[0], n - 1);
    EXPECT_EQ(coords[1], n - 1);
    EXPECT_DOUBLE_EQ(blco.values()[0], 1.0);
    EXPECT_DOUBLE_EQ(blco.values()[1], 2.0);
  }
}

TEST(Blco, DeltaCompressionShrinksStorage) {
  SparseTensor t = random_tensor({256, 256, 256}, 30000, 10);
  BlcoTensor blco(t, 4096);
  const double coo_index_bytes =
      static_cast<double>(t.nnz()) * 3 * sizeof(index_t);
  const double value_bytes = static_cast<double>(t.nnz()) * sizeof(real_t);
  // Delta-packed indices must be much smaller than 3x8-byte COO indices.
  EXPECT_LT(blco.storage_bytes() - value_bytes, 0.5 * coo_index_bytes);
}

TEST(Blco, SingleBlockDegenerateCase) {
  SparseTensor t({8, 8});
  t.append({0, 0}, 1.0);
  t.append({7, 7}, 2.0);
  BlcoTensor blco(t, 4096);
  EXPECT_EQ(blco.num_blocks(), 1);
  EXPECT_EQ(blco.block(0).count, 2);
}

TEST(Blco, VastLikeTwoLengthModeSurvives) {
  // Mirrors the Vast tensor's mode of length 2.
  SparseTensor t = random_tensor({500, 100, 2}, 2000, 11);
  BlcoTensor blco(t, 512);
  index_t coords[kMaxModes];
  for (index_t b = 0; b < blco.num_blocks(); ++b) {
    const BlcoBlock& blk = blco.block(b);
    for (index_t i = 0; i < blk.count; ++i) {
      blco.encoding().decode_all(blco.element_lco(blk, i), coords);
      ASSERT_GE(coords[2], 0);
      ASSERT_LT(coords[2], 2);
    }
  }
}

}  // namespace
}  // namespace cstf
