// Deterministic random number generation for reproducible experiments.
//
// Every workload generator in this repository is seeded explicitly so a bench
// run regenerates bit-identical tensors. xoshiro256++ is used instead of
// std::mt19937_64 because its state is 4 words (cheap per-thread copies) and
// its output is identical across standard libraries.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"

namespace cstf {

/// xoshiro256++ PRNG (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via SplitMix64, which guarantees
  /// a non-zero, well-mixed state for any seed including 0.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Uniform real in [0, 1).
  double uniform();

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection method
  /// to avoid modulo bias.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (stateless variant: both values drawn
  /// fresh; simplicity over saving the spare).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Returns an independent child generator; used to give each thread or each
  /// tensor mode its own stream while remaining reproducible.
  Rng split();

  /// The four xoshiro256++ state words — snapshotted into training
  /// checkpoints so a resumed run draws the identical sequence.
  std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& words) {
    for (int i = 0; i < 4; ++i) s_[i] = words[static_cast<std::size_t>(i)];
  }

 private:
  std::uint64_t s_[4];
};

/// Zipf-distributed sampler over {0, ..., n-1} with exponent `alpha`.
///
/// Real FROSTT tensors have heavily skewed index distributions (a few users /
/// items / words account for most nonzeros); the dataset analogs in
/// tensor/datasets.cpp use this sampler so the generated tensors show the
/// same duplicate-row reuse that drives MTTKRP cache behaviour.
///
/// Implementation: inverse-CDF over a precomputed table for small n, and the
/// rejection-inversion method of Hörmann & Derflinger for large n (O(1) per
/// sample, no table).
class ZipfSampler {
 public:
  ZipfSampler(index_t n, double alpha);

  index_t operator()(Rng& rng) const;

  index_t n() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  index_t n_;
  double alpha_;
  // Rejection-inversion constants.
  double h_integral_x1_;
  double h_integral_n_;
  double s_;

  double h_integral(double x) const;
  double h(double x) const;
  double h_integral_inverse(double x) const;
};

}  // namespace cstf
