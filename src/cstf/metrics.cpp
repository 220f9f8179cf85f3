#include "cstf/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace cstf {

namespace {

// sum_i a(i, r) * b(i, s), i ascending.
double column_dot(const Matrix& a, index_t r, const Matrix& b, index_t s) {
  double acc = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) acc += a(i, r) * b(i, s);
  return acc;
}

double column_norm(const Matrix& a, index_t r) {
  return std::sqrt(column_dot(a, r, a, r));
}

}  // namespace

double component_congruence(const KTensor& a, index_t r, const KTensor& b,
                            index_t s) {
  CSTF_CHECK(a.num_modes() == b.num_modes());
  double congruence = 1.0;
  for (int m = 0; m < a.num_modes(); ++m) {
    const Matrix& fa = a.factors[static_cast<std::size_t>(m)];
    const Matrix& fb = b.factors[static_cast<std::size_t>(m)];
    CSTF_CHECK(fa.rows() == fb.rows());
    const double na = column_norm(fa, r);
    const double nb = column_norm(fb, s);
    if (na <= 0.0 || nb <= 0.0) return 0.0;
    const double cos_rs = column_dot(fa, r, fb, s) / (na * nb);
    congruence *= std::abs(cos_rs);
  }
  return congruence;
}

double factor_match_score(const KTensor& a, const KTensor& b) {
  CSTF_CHECK(a.rank() == b.rank() && a.rank() > 0);
  const index_t rank = a.rank();

  // Effective component weights include the column norms (factors may not be
  // normalized).
  auto effective_weight = [](const KTensor& kt, index_t r) {
    double w = r < static_cast<index_t>(kt.lambda.size())
                   ? kt.lambda[static_cast<std::size_t>(r)]
                   : 1.0;
    for (const Matrix& f : kt.factors) w *= column_norm(f, r);
    return std::abs(w);
  };

  // Greedy maximum matching over congruence (adequate for the near-diagonal
  // matchings recovery tests produce).
  std::vector<bool> used(static_cast<std::size_t>(rank), false);
  double score = 0.0;
  for (index_t r = 0; r < rank; ++r) {
    double best = -1.0;
    index_t best_s = -1;
    for (index_t s = 0; s < rank; ++s) {
      if (used[static_cast<std::size_t>(s)]) continue;
      const double c = component_congruence(a, r, b, s);
      if (c > best) {
        best = c;
        best_s = s;
      }
    }
    used[static_cast<std::size_t>(best_s)] = true;
    const double wa = effective_weight(a, r);
    const double wb = effective_weight(b, best_s);
    const double wmax = std::max(wa, wb);
    const double penalty = wmax > 0.0 ? 1.0 - std::abs(wa - wb) / wmax : 0.0;
    score += penalty * best;
  }
  return score / static_cast<double>(rank);
}

}  // namespace cstf
