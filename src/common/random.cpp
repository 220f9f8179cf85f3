#include "common/random.hpp"

#include <cmath>

#include "common/error.hpp"

namespace cstf {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  CSTF_CHECK(n > 0);
  // Lemire's method: unbiased without a division in the common case.
  std::uint64_t x = (*this)();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<unsigned __int128>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() {
  // Box–Muller; guard against log(0).
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

Rng Rng::split() {
  // Derive a child seed from two fresh outputs; the parent state advances so
  // successive splits are independent.
  const std::uint64_t a = (*this)();
  const std::uint64_t b = (*this)();
  return Rng(a ^ rotl(b, 32));
}

ZipfSampler::ZipfSampler(index_t n, double alpha) : n_(n), alpha_(alpha) {
  CSTF_CHECK(n >= 1);
  CSTF_CHECK(alpha >= 0.0);
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
  s_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  if (std::abs(alpha_ - 1.0) < 1e-12) return log_x;
  return (std::exp((1.0 - alpha_) * log_x) - 1.0) / (1.0 - alpha_);
}

double ZipfSampler::h(double x) const { return std::exp(-alpha_ * std::log(x)); }

double ZipfSampler::h_integral_inverse(double x) const {
  if (std::abs(alpha_ - 1.0) < 1e-12) return std::exp(x);
  double t = x * (1.0 - alpha_);
  if (t < -1.0) t = -1.0;  // numerical guard per Hörmann & Derflinger
  return std::exp(std::log1p(t) / (1.0 - alpha_));
}

index_t ZipfSampler::operator()(Rng& rng) const {
  if (n_ == 1) return 0;
  // Rejection-inversion sampling (Hörmann & Derflinger 1996). Returns ranks
  // in [1, n]; we shift to [0, n) for array indexing.
  for (;;) {
    const double u =
        h_integral_n_ + rng.uniform() * (h_integral_x1_ - h_integral_n_);
    const double x = h_integral_inverse(u);
    auto k = static_cast<index_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= h_integral(kd + 0.5) - h(kd)) {
      return k - 1;
    }
  }
}

}  // namespace cstf
