#include "tensor/generate.hpp"

#include <algorithm>
#include <numeric>

namespace cstf {

namespace {

// Bijective scatter on [0, d): x -> (a*x + b) mod d with gcd(a, d) == 1.
// Used to spread Zipf's head ranks across the mode without losing coverage
// (a plain multiplicative hash reduced mod d is NOT injective and collapses
// a third or more of the index space).
struct AffineScatter {
  std::uint64_t a = 1, b = 0, d = 1;

  static AffineScatter make(index_t dim, Rng& rng) {
    AffineScatter s;
    s.d = static_cast<std::uint64_t>(dim);
    s.b = rng.uniform_index(s.d);
    // Pick a multiplier coprime with d near a golden-ratio fraction of it.
    s.a = (static_cast<std::uint64_t>(
               static_cast<double>(s.d) * 0.6180339887498949) |
           1u) %
          s.d;
    if (s.a == 0) s.a = 1;
    while (std::gcd(s.a, s.d) != 1) s.a = (s.a + 1) % s.d == 0 ? 1 : s.a + 1;
    return s;
  }

  index_t operator()(index_t x) const {
    return static_cast<index_t>(
        (static_cast<unsigned __int128>(a) * static_cast<std::uint64_t>(x) +
         b) %
        d);
  }
};

}  // namespace

SparseTensor generate_random(const RandomTensorParams& params) {
  CSTF_CHECK(!params.dims.empty());
  CSTF_CHECK(params.target_nnz > 0);
  const int modes = static_cast<int>(params.dims.size());

  std::vector<ModeDistribution> dist = params.mode_dist;
  dist.resize(static_cast<std::size_t>(modes));

  Rng rng(params.seed);
  std::vector<ZipfSampler> samplers;
  std::vector<AffineScatter> scatters;
  samplers.reserve(static_cast<std::size_t>(modes));
  scatters.reserve(static_cast<std::size_t>(modes));
  for (int m = 0; m < modes; ++m) {
    samplers.emplace_back(params.dims[static_cast<std::size_t>(m)],
                          dist[static_cast<std::size_t>(m)].zipf_alpha);
    scatters.push_back(
        AffineScatter::make(params.dims[static_cast<std::size_t>(m)], rng));
  }

  SparseTensor tensor(params.dims);
  tensor.reserve(params.target_nnz);
  index_t coords[kMaxModes];
  for (index_t i = 0; i < params.target_nnz; ++i) {
    for (int m = 0; m < modes; ++m) {
      // Zipf puts rank 0 first; scatter ranks across the mode bijectively so
      // "popular" indices are not all clustered at the low end (matches real
      // data, keeps blocked formats from degenerating) while every index
      // stays reachable.
      const index_t raw = samplers[static_cast<std::size_t>(m)](rng);
      coords[m] = scatters[static_cast<std::size_t>(m)](raw);
    }
    tensor.append(coords, rng.uniform(params.value_lo, params.value_hi));
  }
  tensor.sort_by_mode(0);
  tensor.dedup_sum();
  return tensor;
}

LowRankTensor generate_low_rank(const LowRankTensorParams& params) {
  CSTF_CHECK(!params.dims.empty());
  CSTF_CHECK(params.rank >= 1 && params.target_nnz > 0);
  const int modes = static_cast<int>(params.dims.size());

  Rng rng(params.seed);
  LowRankTensor out;
  out.factors.reserve(static_cast<std::size_t>(modes));
  for (int m = 0; m < modes; ++m) {
    Matrix f(params.dims[static_cast<std::size_t>(m)], params.rank);
    // Non-negative, sparse-ish factors: most entries small, some strong.
    // Drawn column by column, (0,0), (1,0), ...
    for (index_t j = 0; j < f.cols(); ++j) {
      for (index_t i = 0; i < f.rows(); ++i) {
        const real_t u = rng.uniform();
        f(i, j) = u < 0.7 ? 0.05 * rng.uniform() : rng.uniform();
      }
    }
    out.factors.push_back(std::move(f));
  }

  double cells = 1.0;
  for (index_t d : params.dims) cells *= static_cast<double>(d);
  const bool full = static_cast<double>(params.target_nnz) >= cells;

  SparseTensor tensor(params.dims);
  tensor.reserve(params.target_nnz);
  index_t coords[kMaxModes];
  auto model_value = [&](const index_t* c) {
    real_t value = 0.0;
    for (index_t r = 0; r < params.rank; ++r) {
      real_t prod = 1.0;
      for (int m = 0; m < modes; ++m) {
        prod *= out.factors[static_cast<std::size_t>(m)](c[m], r);
      }
      value += prod;
    }
    value *= (1.0 + params.noise * rng.normal());
    return std::max<real_t>(value, 0.0);
  };
  if (full) {
    // Enumerate every cell (fully observed tensor).
    const auto total = static_cast<index_t>(cells);
    for (index_t lin = 0; lin < total; ++lin) {
      index_t rem = lin;
      for (int m = 0; m < modes; ++m) {
        coords[m] = rem % params.dims[static_cast<std::size_t>(m)];
        rem /= params.dims[static_cast<std::size_t>(m)];
      }
      tensor.append(coords, model_value(coords));
    }
  } else {
    for (index_t i = 0; i < params.target_nnz; ++i) {
      for (int m = 0; m < modes; ++m) {
        coords[m] = static_cast<index_t>(rng.uniform_index(static_cast<std::uint64_t>(
            params.dims[static_cast<std::size_t>(m)])));
      }
      tensor.append(coords, model_value(coords));
    }
  }
  tensor.sort_by_mode(0);
  // Re-sampling the same coordinate yields the same model value; keep one
  // copy rather than summing, so sampled values always match the model.
  tensor.dedup_keep_first();
  out.tensor = std::move(tensor);
  return out;
}

}  // namespace cstf
