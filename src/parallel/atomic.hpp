// Atomic floating-point accumulation, the CPU analog of CUDA's atomicAdd.
//
// The Poisson ratio MTTKRP and the ADMM residual reductions accumulate
// from concurrent work items into shared words; this helper provides the
// lock-free accumulate they need.
#pragma once

#include <atomic>

#include "common/types.hpp"

namespace cstf {

/// Atomically performs `*target += value` via compare-exchange. Relaxed
/// ordering: accumulation order is already nondeterministic, and all kernels
/// join the pool (a full barrier) before reading results.
inline void atomic_add(real_t* target, real_t value) {
  auto* atomic_target = reinterpret_cast<std::atomic<real_t>*>(target);
  real_t expected = atomic_target->load(std::memory_order_relaxed);
  while (!atomic_target->compare_exchange_weak(expected, expected + value,
                                               std::memory_order_relaxed)) {
  }
}

static_assert(sizeof(std::atomic<real_t>) == sizeof(real_t),
              "atomic_add requires lock-free std::atomic<real_t> layout");

}  // namespace cstf
