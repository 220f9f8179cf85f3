// Shared serving runtime: the simulated device, the host thread pool, and
// the submission lock that serializes metered work.
//
// Both Device::record and ThreadPool::run are single-caller interfaces
// (the pool's job/epoch handshake and the device's counter maps are not
// synchronized for concurrent external callers) — which matches the real
// system being modeled: one GPU behind one in-order submission context.
// Serving threads therefore take `submit_mu` around every metered
// computation. Concurrency does not come from racing kernel launches; it
// comes from *batching* — coalescing many requests into one fused launch —
// which is the serving layer's entire performance thesis.
#pragma once

#include <algorithm>
#include <cmath>
#include <mutex>

#include "parallel/thread_pool.hpp"
#include "simgpu/device.hpp"

namespace cstf::serve {

struct ServeRuntime {
  ServeRuntime(simgpu::Device& device_in, ThreadPool& pool_in)
      : device(device_in), pool(pool_in) {}

  ServeRuntime(const ServeRuntime&) = delete;
  ServeRuntime& operator=(const ServeRuntime&) = delete;

  simgpu::Device& device;
  ThreadPool& pool;

  /// Held for the duration of every metered serving computation (query or
  /// fold-in batch): one submission context, in-order, like a GPU stream.
  std::mutex submit_mu;
};

/// The exponential backoff doubles at most this many times, so any retry
/// count gives a finite, defined delay of at most 2^16 base backoffs.
inline constexpr int kMaxBackoffDoublings = 16;

/// Sleep before retry number `attempt` (0-based) of a serving request:
/// `base_s` doubled per attempt, capped at kMaxBackoffDoublings doublings.
inline double retry_backoff_s(double base_s, int attempt) {
  return std::ldexp(base_s, std::min(attempt, kMaxBackoffDoublings));
}

}  // namespace cstf::serve
