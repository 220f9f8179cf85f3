// Constrained fold-in: admitting unseen slices into a served model.
//
// A fold-in request carries the observed entries of a new slice along one
// mode (a new user's interactions, a new timestamp's measurements). The new
// factor row h solves the same constrained least-squares subproblem the
// trainer solved for every existing row — same proximal operator, same
// ADMM inner loop — against the *fixed* other-mode factors:
//
//   min_h  || vec(values) - K h ||^2  s.t.  h feasible,
//   K rows = lambda .* (hadamard of the other modes' factor rows)
//
// whose normal equations are S = (lambda lambda^T) .* hadamard(Grams) and
// m = sum_j value_j * K_j. Two serving-specific accelerations apply:
//
//   * The Gram system S depends only on the model, not the request — so its
//     Cholesky factorization (and, per the paper's pre-inversion argument,
//     its explicit inverse) is computed ONCE per published snapshot and
//     cached inside ServableModel. Training amortizes pre-inversion over
//     ~10 inner iterations; serving amortizes it over every request.
//   * ADMM's inner iteration touches rows independently (elementwise row
//     ops plus a right-multiply by the R x R system), so B concurrent
//     requests stack into one (B x R) fused solve that is bit-identical,
//     row for row, to B separate single-row solves — batching costs nothing
//     in accuracy and saves B-1 launches per inner iteration. With
//     pre-inversion and an elementwise constraint, the host runs that solve
//     as cuADMM's row-tiled pass (updates/admm_kernels.hpp), where a row's
//     bits do not depend on its place in a tile.
//
// FoldInBatcher implements the coalescing: concurrent submit()ers park on a
// future while a collector drains the queue, groups by mode, and runs one
// fused solve per group.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "serve/model_store.hpp"
#include "serve/runtime.hpp"
#include "serve/serve_stats.hpp"
#include "updates/admm.hpp"

namespace cstf::serve {

/// Observed entries of one new slice along `mode`.
struct FoldInRequest {
  int mode = 0;

  /// Entry coordinates in the other modes: nnz tuples of (num_modes - 1)
  /// indices, row-major, in increasing mode order with `mode` skipped.
  std::vector<index_t> coords;

  /// One value per tuple.
  std::vector<real_t> values;

  /// Per-request deadline in seconds from submit(); a request still queued
  /// past its deadline fails with DeadlineError instead of occupying a
  /// batch slot. 0 uses the batcher's default_deadline_s (which may itself
  /// be 0 = no deadline).
  double timeout_s = 0.0;
};

/// Raised through a submit() future when the admission queue is full — the
/// client's signal to back off. A shed request never entered the queue.
class ShedError : public Error {
 public:
  using Error::Error;
};

/// Raised through a submit() future when the request's deadline expired
/// while it was still queued.
class DeadlineError : public Error {
 public:
  using Error::Error;
};

/// A solved fold-in row.
struct FoldInResult {
  std::vector<real_t> row;      ///< length rank(); satisfies the constraint
  AdmmDiagnostics diagnostics;  ///< final-iteration residuals of the solve
  std::uint64_t generation = 0; ///< snapshot the row was solved against
};

struct FoldInOptions {
  /// Solve against the snapshot's cached pre-factorized Gram (the fast
  /// path). When false, every call re-factorizes S + rho*I through the
  /// metered device solver — the per-request baseline the serving bench
  /// compares against.
  bool use_cached_gram = true;
};

/// Solves fold-in requests, one or fused-many at a time.
class FoldInEngine {
 public:
  FoldInEngine(ServeRuntime& runtime, FoldInOptions options = {})
      : runtime_(runtime), options_(options) {}

  FoldInResult fold_in(const ServableModel& model, const FoldInRequest& req);

  /// Fused multi-row solve. All requests must target the same mode; result
  /// i corresponds to request i. Row i is bit-identical to fold_in(reqs[i])
  /// (batch diagnostics aggregate over the whole block).
  std::vector<FoldInResult> fold_in_batch(
      const ServableModel& model, const std::vector<FoldInRequest>& reqs);

  /// Per-call latency (one sample per fold_in / fold_in_batch invocation).
  LatencyRecorder& latency() { return latency_; }

 private:
  void check_request(const ServableModel& model,
                     const FoldInRequest& req) const;
  /// Gathers the batch's right-hand sides into `m` (zeroed, batch x R) and
  /// records the gather as one kernel.
  void gather_rhs(const ServableModel& model,
                  const std::vector<FoldInRequest>& reqs, int mode, Matrix& m);

  ServeRuntime& runtime_;
  FoldInOptions options_;
  LatencyRecorder latency_;
};

/// Coalesces concurrent fold-in requests into fused batches against the
/// store's current snapshot of one model (each batch re-resolves the
/// snapshot, so a hot-swap takes effect at the next batch boundary).
///
/// Two collection modes:
///   * background (default): a collector thread drains the queue whenever
///     requests are pending, waiting up to `max_linger_s` for a batch to
///     fill — the open-loop serving configuration;
///   * manual (`background = false`): nothing runs until flush(), giving
///     tests deterministic batch boundaries.
class FoldInBatcher {
 public:
  struct Options {
    std::size_t max_batch = 64;

    /// How long the collector lingers for more arrivals once at least one
    /// request is pending (seconds).
    double max_linger_s = 0.002;

    bool background = true;

    /// Admission-queue bound: submit() beyond this many queued requests
    /// fails the future with ShedError instead of growing the queue
    /// (load shedding). 0 = unbounded.
    std::size_t max_queue = 1024;

    /// Default deadline for requests whose timeout_s is 0. 0 = none.
    double default_deadline_s = 0.0;

    /// How many times a fused solve is re-attempted after a *transient*
    /// simgpu::FaultError (injected launch/copy/allocation failures) before
    /// falling back to degraded per-request isolation.
    int max_retries = 3;

    /// Base sleep between retries; doubles per attempt up to a cap
    /// (retry_backoff_s). 0 retries immediately.
    double retry_backoff_s = 0.0005;

    /// Degraded-mode behavior. When the model vanishes from the store, a
    /// batch is served against the last snapshot that successfully served
    /// (stale generations beat failed requests); when a fused solve
    /// exhausts its retries, each request is re-solved individually so one
    /// poisoned request cannot fail its whole batch. Disable for
    /// strict-freshness tests.
    bool degraded_fallback = true;
  };

  /// `store` and `engine` must outlive the batcher. `model_name` is the
  /// store key the batcher serves.
  FoldInBatcher(FoldInEngine& engine, ModelStore& store,
                std::string model_name, Options options);
  FoldInBatcher(FoldInEngine& engine, ModelStore& store,
                std::string model_name);
  ~FoldInBatcher();

  FoldInBatcher(const FoldInBatcher&) = delete;
  FoldInBatcher& operator=(const FoldInBatcher&) = delete;

  /// Enqueues a request; the future resolves when its batch is solved.
  /// Fails the future with ShedError when the admission queue is full,
  /// DeadlineError when the request expires in the queue, and cstf::Error
  /// if the model is unavailable (and no last-good snapshot exists) or the
  /// batcher stops first.
  std::future<FoldInResult> submit(FoldInRequest req);

  /// Drains and solves everything currently queued (manual mode's only
  /// trigger; also usable in background mode to force a boundary). Returns
  /// the number of requests served.
  std::size_t flush();

  /// Stops the collector and fails any still-queued requests. Idempotent;
  /// the destructor calls it.
  void stop();

  /// End-to-end request latency (submit to future-ready).
  LatencyRecorder& latency() { return latency_; }

  /// Realized batch sizes (one record per fused solve).
  BatchSizeRecorder& batch_sizes() { return batch_sizes_; }

  /// Shed / timeout / retry / degraded-mode counters.
  ReliabilityCounters& reliability() { return reliability_; }

  /// Mean arrival rate since construction: submitted requests (shed ones
  /// included — they arrived) over elapsed wall time; 0 until the first
  /// submit. cstf_serve prints it.
  double measured_arrival_rate_rps() const {
    const double elapsed = epoch_.seconds();
    if (elapsed <= 0.0) return 0.0;
    return static_cast<double>(
               reliability_.submitted.load(std::memory_order_relaxed)) /
           elapsed;
  }

 private:
  struct Pending {
    FoldInRequest request;
    std::promise<FoldInResult> promise;
    double enqueue_s = 0.0;
    double deadline_s = 0.0;  ///< absolute epoch_ time; 0 = no deadline
  };

  void collector_loop();
  std::size_t drain_and_solve(std::vector<Pending> batch);
  /// Publishes queue_.size() to the serve.batcher.queue_depth gauge.
  /// Call with mu_ held, right after any queue_ mutation.
  void publish_queue_depth();
  std::vector<FoldInResult> solve_with_retries(
      const ServableModel& model, const std::vector<FoldInRequest>& group);

  FoldInEngine& engine_;
  ModelStore& store_;
  std::string model_name_;
  Options options_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending> queue_;
  bool stopping_ = false;
  std::thread collector_;

  // Last snapshot that successfully served a batch; the degraded fallback
  // when the store no longer has the model.
  std::mutex model_mu_;
  ServableModelPtr last_good_;

  Timer epoch_;  // timestamps for end-to-end latency
  LatencyRecorder latency_;
  BatchSizeRecorder batch_sizes_;
  ReliabilityCounters reliability_;
  metrics::Gauge* m_queue_depth_ = nullptr;  // registry-owned (see ctor)
};

}  // namespace cstf::serve
