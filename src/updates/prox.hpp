// Proximity operators — the r(·) of Algorithm 2 line 7.
//
// ADMM supports any constraint with a computable proximity operator; this is
// the flexibility the paper highlights over single-constraint methods. All
// operators here except the L2 ball are elementwise, which is what lets
// cuADMM fuse the projection into the (H_aux - U) subtraction kernel
// (Section 4.3.1).
#pragma once

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"
#include "la/matrix.hpp"

namespace cstf {

enum class ProxKind {
  /// No constraint: identity (unconstrained least squares via ADMM).
  kIdentity,
  /// Non-negativity: projection onto R+, max(0, x). The paper's primary
  /// constraint (non-negative CP factorization).
  kNonNegative,
  /// L1 sparsity: soft-thresholding shrink(x, lambda/rho), optionally
  /// combined with non-negativity.
  kL1,
  kL1NonNegative,
  /// Box constraint: clamp to [lo, hi].
  kBox,
  /// L2-ball of given radius per column (not elementwise; falls back to the
  /// column-wise path in the fused kernel).
  kL2Ball,
  /// Probability-simplex projection per column (non-negative, sums to 1) —
  /// for probabilistic/topic-model factors. Column-wise.
  kSimplex,
  /// Quadratic smoothness regularizer (lambda/2)*||D h||^2 with D the
  /// first-difference operator — the "smoothness" constraint the paper lists
  /// among ADMM's supported regularizers (Section 3.2). Its proximity
  /// operator solves a tridiagonal system per column (Thomas algorithm).
  kSmooth,
};

/// A configured proximity operator.
class Proximity {
 public:
  static Proximity identity() { return Proximity(ProxKind::kIdentity, 0, 0); }
  static Proximity non_negative() {
    return Proximity(ProxKind::kNonNegative, 0, 0);
  }
  static Proximity l1(real_t lambda) { return Proximity(ProxKind::kL1, lambda, 0); }
  static Proximity l1_non_negative(real_t lambda) {
    return Proximity(ProxKind::kL1NonNegative, lambda, 0);
  }
  static Proximity box(real_t lo, real_t hi) {
    return Proximity(ProxKind::kBox, lo, hi);
  }
  static Proximity l2_ball(real_t radius) {
    return Proximity(ProxKind::kL2Ball, radius, 0);
  }
  static Proximity simplex() { return Proximity(ProxKind::kSimplex, 1.0, 0); }
  static Proximity smooth(real_t lambda) {
    return Proximity(ProxKind::kSmooth, lambda, 0);
  }

  /// Rebuilds an operator from its serialized (kind, params) triple — the
  /// model-persistence path. Throws on an out-of-range kind (corrupt file).
  static Proximity from_kind(ProxKind kind, real_t a, real_t b);

  ProxKind kind() const { return kind_; }

  /// The raw parameters, paired with kind() for serialization: lambda (L1,
  /// smooth), lo (box), radius (L2 ball) in `param_a`; hi (box) in `param_b`.
  real_t param_a() const { return a_; }
  real_t param_b() const { return b_; }
  bool elementwise() const {
    return kind_ != ProxKind::kL2Ball && kind_ != ProxKind::kSimplex &&
           kind_ != ProxKind::kSmooth;
  }
  std::string name() const;

  /// The scalar map for elementwise kinds. `scale` divides the L1 threshold
  /// by the ADMM step size (the prox of (lambda/rho)*||.||_1).
  real_t apply_scalar(real_t x, real_t rho_scale) const;

  /// Calls `f(map)` with this elementwise kind's scalar map as a callable
  /// real_t(real_t), `rho_scale` folded in, and returns its result. The one
  /// definition apply_scalar uses too; a loop that calls it once outside its
  /// element loop dispatches the kind once instead of per element.
  template <typename F>
  decltype(auto) with_scalar_map(real_t rho_scale, F&& f) const;

  /// Applies the operator to a full matrix in place (used by the unfused
  /// baseline path and by non-ADMM callers; rho_scale as above).
  void apply(Matrix& h, real_t rho_scale) const;

  /// True if every element of `h` satisfies the constraint (within eps) —
  /// the property tests' feasibility oracle.
  bool is_feasible(const Matrix& h, real_t eps = 1e-12) const;

 private:
  Proximity(ProxKind kind, real_t a, real_t b) : kind_(kind), a_(a), b_(b) {}

  ProxKind kind_;
  real_t a_;  // lambda (L1), lo (box), radius (L2 ball)
  real_t b_;  // hi (box)
};

template <typename F>
decltype(auto) Proximity::with_scalar_map(real_t rho_scale, F&& f) const {
  switch (kind_) {
    case ProxKind::kIdentity:
      return f([](real_t x) { return x; });
    case ProxKind::kNonNegative:
      return f([](real_t x) { return x > 0.0 ? x : 0.0; });
    case ProxKind::kL1: {
      const real_t t = a_ * rho_scale;
      return f([t](real_t x) {
        if (x > t) return x - t;
        if (x < -t) return x + t;
        return real_t{0.0};
      });
    }
    case ProxKind::kL1NonNegative: {
      const real_t t = a_ * rho_scale;
      return f([t](real_t x) { return x > t ? x - t : 0.0; });
    }
    case ProxKind::kBox: {
      const real_t lo = a_, hi = b_;
      return f([lo, hi](real_t x) { return std::clamp(x, lo, hi); });
    }
    case ProxKind::kL2Ball:
    case ProxKind::kSimplex:
    case ProxKind::kSmooth:
      break;  // not elementwise
  }
  CSTF_CHECK_MSG(false, "scalar map of a non-elementwise prox");
  return f([](real_t x) { return x; });  // unreachable
}

}  // namespace cstf
