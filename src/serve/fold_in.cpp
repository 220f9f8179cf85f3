#include "serve/fold_in.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "common/digest.hpp"
#include "la/cholesky.hpp"
#include "parallel/parallel_for.hpp"
#include "simgpu/dblas.hpp"
#include "simgpu/fault.hpp"

namespace cstf::serve {

void FoldInEngine::check_request(const ServableModel& model,
                                 const FoldInRequest& req) const {
  const int modes = model.num_modes();
  CSTF_CHECK_MSG(req.mode >= 0 && req.mode < modes,
                 "fold-in: bad mode " << req.mode);
  CSTF_CHECK_MSG(modes >= 2, "fold-in needs at least two modes");
  const auto width = static_cast<std::size_t>(modes - 1);
  CSTF_CHECK_MSG(!req.values.empty(), "fold-in: request has no observations");
  CSTF_CHECK_MSG(req.coords.size() == req.values.size() * width,
                 "fold-in: coords/values size mismatch");
  std::size_t pos = 0;
  for (std::size_t j = 0; j < req.values.size(); ++j) {
    for (int m = 0; m < modes; ++m) {
      if (m == req.mode) continue;
      const index_t idx = req.coords[pos++];
      CSTF_CHECK_MSG(idx >= 0 && idx < model.mode_size(m),
                     "fold-in: coordinate " << idx << " out of range for mode "
                                            << m);
    }
  }
}

FoldInResult FoldInEngine::fold_in(const ServableModel& model,
                                   const FoldInRequest& req) {
  std::vector<FoldInResult> results = fold_in_batch(model, {req});
  return std::move(results.front());
}

std::vector<FoldInResult> FoldInEngine::fold_in_batch(
    const ServableModel& model, const std::vector<FoldInRequest>& reqs) {
  CSTF_CHECK_MSG(!reqs.empty(), "fold-in: empty batch");
  const int mode = reqs.front().mode;
  for (const FoldInRequest& req : reqs) {
    CSTF_CHECK_MSG(req.mode == mode,
                   "fold-in: batch mixes modes " << mode << " and "
                                                 << req.mode);
    check_request(model, req);
  }

  const index_t rank = model.rank();
  const auto batch = static_cast<index_t>(reqs.size());

  Timer timer;
  std::vector<FoldInResult> results(reqs.size());
  {
    std::lock_guard<std::mutex> submit(runtime_.submit_mu);
    // One tracer phase spans the whole fused solve (the plan's ops carry no
    // phases of their own), matching the pre-plan begin/end pattern exactly.
    simgpu::ScopedPhase scope(runtime_.device.tracer(), phase::kServeFoldIn);

    ws_.model = &model;
    ws_.reqs = &reqs;
    ws_.mode = mode;
    ws_.gram = nullptr;
    ensure_executor(model, mode, batch);
    executor_->run();

    for (index_t b = 0; b < batch; ++b) {
      FoldInResult& result = results[static_cast<std::size_t>(b)];
      result.row.resize(static_cast<std::size_t>(rank));
      for (index_t r = 0; r < rank; ++r) {
        result.row[static_cast<std::size_t>(r)] = ws_.h(b, r);
      }
      result.diagnostics = ws_.diagnostics;
      result.generation = model.generation();
    }
  }
  latency_.record(timer.seconds());
  return results;
}

exec::PlanKey FoldInEngine::plan_key(const ServableModel& model, int mode,
                                     index_t batch) const {
  // Generation pins the snapshot (a hot-swap must recompile: the Gram cache
  // pointer and factors change); mode and batch shape size the buffers; the
  // solve options add/remove the gram-build op and flip the inner solver.
  DigestBuilder tensor_id;
  tensor_id.u64(model.generation())
      .u64(static_cast<std::uint64_t>(mode))
      .u64(static_cast<std::uint64_t>(batch));
  DigestBuilder opts;
  opts.boolean(options_.use_cached_gram)
      .boolean(options_.preinversion)
      .u64(static_cast<std::uint64_t>(options_.inner_iterations));
  exec::PlanKey key;
  key.tensor_id = tensor_id.value();
  key.rank = static_cast<std::uint64_t>(model.rank());
  key.options_digest = opts.value();
  return key;
}

exec::Plan FoldInEngine::compile_plan(index_t plan_rank, index_t plan_batch) {
  FoldInEngine* self = this;
  exec::FoldInSpec spec;
  spec.rank = plan_rank;
  spec.batch_rows = plan_batch;
  spec.build_gram = !options_.use_cached_gram;

  // Right-hand sides: row b of M is sum_j value_j * lambda .* (hadamard of
  // the other modes' rows at coordinate j) — the sparse-MTTKRP of the new
  // slice, one fused gather pass per request.
  spec.rhs = [self](exec::ExecContext& ctx) {
    const ServableModel& model = *self->ws_.model;
    const std::vector<FoldInRequest>& reqs = *self->ws_.reqs;
    const int modes = model.num_modes();
    const int mode = self->ws_.mode;
    const index_t rank = model.rank();
    const auto batch = static_cast<index_t>(reqs.size());
    const KTensor& kt = model.model();

    Matrix& m = self->ws_.m;
    m.resize(batch, rank);
    m.set_all(0.0);
    double nnz_total = 0.0;
    for (const FoldInRequest& req : reqs) {
      nnz_total += static_cast<double>(req.values.size());
    }
    Timer rhs_timer;
    parallel_for(
        self->runtime_.pool, 0, batch,
        [&](index_t b) {
          const FoldInRequest& req = reqs[static_cast<std::size_t>(b)];
          const auto width = static_cast<std::size_t>(modes - 1);
          for (std::size_t j = 0; j < req.values.size(); ++j) {
            const index_t* c = req.coords.data() + j * width;
            const real_t v = req.values[j];
            for (index_t r = 0; r < rank; ++r) {
              real_t term = v * kt.lambda[static_cast<std::size_t>(r)];
              std::size_t pos = 0;
              for (int n = 0; n < modes; ++n) {
                if (n == mode) continue;
                term *= kt.factors[static_cast<std::size_t>(n)](c[pos++], r);
              }
              m(b, r) += term;
            }
          }
        },
        /*grain=*/1);
    simgpu::KernelStats stats;
    const double nmodes = static_cast<double>(modes);
    const double nrank = static_cast<double>(rank);
    stats.flops = nnz_total * nrank * (nmodes + 1.0);
    stats.bytes_random = nnz_total * (nmodes - 1.0) * nrank * simgpu::kWord;
    stats.bytes_streamed =
        (nnz_total * nmodes + static_cast<double>(batch) * nrank) *
        simgpu::kWord;
    stats.parallel_items = static_cast<double>(batch);
    stats.launches = 1;
    ctx.device.record("serve_foldin_rhs", stats, rhs_timer.seconds(),
                      ctx.stream);
  };

  // Per-call Gram rebuild through the metered solver — the baseline the
  // serving bench measures against (the cached path has no such op: the
  // snapshot's pre-factorized Gram is resolved inside the solve).
  if (spec.build_gram) {
    spec.gram_build = [self](exec::ExecContext& ctx) {
      const ServableModel& model = *self->ws_.model;
      const index_t rank = model.rank();
      AdmmGram& rebuilt = self->ws_.rebuilt;
      rebuilt = AdmmGram{};
      const Matrix& s = model.fold_in_system(self->ws_.mode);
      for (index_t r = 0; r < rank; ++r) rebuilt.rho += s(r, r);
      rebuilt.rho /= static_cast<real_t>(rank);
      if (rebuilt.rho <= 0.0) rebuilt.rho = 1.0;
      Matrix s_loaded = s;
      la::add_diagonal(s_loaded, rebuilt.rho);
      simgpu::dpotrf(ctx.device, s_loaded, rebuilt.l);
      if (self->options_.preinversion) {
        simgpu::dpotri(ctx.device, rebuilt.l, rebuilt.inverse);
      }
      self->ws_.gram = &rebuilt;
    };
  }

  spec.solve = [self](exec::ExecContext& ctx) {
    const ServableModel& model = *self->ws_.model;
    const index_t rank = model.rank();
    const auto batch = static_cast<index_t>(self->ws_.reqs->size());
    if (self->options_.use_cached_gram) {
      // One Cholesky per published snapshot, amortized over every request.
      CSTF_CHECK_MSG(
          model.preinverted() == self->options_.preinversion,
          "fold-in: snapshot Gram cache pre-inversion does not match options");
      self->ws_.gram = &model.fold_in_gram(self->ws_.mode);
    }

    AdmmOptions admm_options;
    admm_options.prox = model.meta().prox();
    admm_options.inner_iterations = self->options_.inner_iterations;
    admm_options.tolerance = 0.0;  // fixed iterations: batch rows stay
                                   // bit-identical to single-row solves
    admm_options.operation_fusion = true;
    admm_options.preinversion = self->options_.preinversion;
    AdmmUpdate admm(admm_options);

    Matrix& h = self->ws_.h;
    h.resize(batch, rank);
    h.set_all(0.0);
    ModeState state;  // cold start: fresh dual per batch, deterministic
    admm.update_with_gram(ctx.device, *self->ws_.gram, self->ws_.m, h, state);
    self->ws_.diagnostics = admm.last();
  };

  return exec::Planner::compile_fold_in(spec);
}

void FoldInEngine::ensure_executor(const ServableModel& model, int mode,
                                   index_t batch) {
  std::shared_ptr<const exec::Plan> plan =
      plan_cache_.get(plan_key(model, mode, batch),
                      [&] { return compile_plan(model.rank(), batch); });
  if (executor_ == nullptr || &executor_->plan() != plan.get()) {
    executor_ =
        std::make_unique<exec::Executor>(runtime_.device, std::move(plan));
  }
}

FoldInBatcher::FoldInBatcher(FoldInEngine& engine, ModelStore& store,
                             std::string model_name, Options options)
    : engine_(engine), store_(store), model_name_(std::move(model_name)),
      options_(options) {
  CSTF_CHECK_MSG(options_.max_batch > 0, "fold-in batcher: max_batch == 0");
  auto& reg = metrics::MetricsRegistry::global();
  m_queue_depth_ = reg.gauge("serve.batcher.queue_depth");
  latency_.attach(reg.histogram("serve.fold_in.latency"));
  batch_sizes_.attach(reg.histogram("serve.batch.size", {},
                                    metrics::default_count_bounds()));
  if (options_.background) {
    collector_ = std::thread([this] { collector_loop(); });
  }
}

FoldInBatcher::FoldInBatcher(FoldInEngine& engine, ModelStore& store,
                             std::string model_name)
    : FoldInBatcher(engine, store, std::move(model_name), Options()) {}

FoldInBatcher::~FoldInBatcher() { stop(); }

std::future<FoldInResult> FoldInBatcher::submit(FoldInRequest req) {
  Pending pending;
  const double timeout_s =
      req.timeout_s > 0.0 ? req.timeout_s : options_.default_deadline_s;
  pending.request = std::move(req);
  pending.enqueue_s = epoch_.seconds();
  if (timeout_s > 0.0) pending.deadline_s = pending.enqueue_s + timeout_s;
  std::future<FoldInResult> future = pending.promise.get_future();
  reliability_.submitted.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    CSTF_CHECK_MSG(!stopping_, "fold-in batcher: submit after stop");
    if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
      // Load shedding: fail fast at admission rather than letting the queue
      // (and every queued request's latency) grow without bound.
      reliability_.shed.fetch_add(1, std::memory_order_relaxed);
      pending.promise.set_exception(std::make_exception_ptr(ShedError(
          "fold-in batcher: admission queue full (" +
          std::to_string(options_.max_queue) + " requests); request shed")));
      return future;
    }
    queue_.push_back(std::move(pending));
    publish_queue_depth();
  }
  cv_.notify_all();
  return future;
}

std::size_t FoldInBatcher::flush() {
  std::size_t served = 0;
  for (;;) {
    std::vector<Pending> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const std::size_t take = std::min(options_.max_batch, queue_.size());
      if (take == 0) break;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_[i]));
      }
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(take));
      publish_queue_depth();
    }
    served += drain_and_solve(std::move(batch));
  }
  return served;
}

void FoldInBatcher::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Already stopped; nothing queued can remain after the first stop.
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (collector_.joinable()) collector_.join();
  std::vector<Pending> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    orphaned.swap(queue_);
    publish_queue_depth();
  }
  for (Pending& p : orphaned) {
    p.promise.set_exception(std::make_exception_ptr(
        Error("fold-in batcher stopped before serving the request")));
  }
}

void FoldInBatcher::publish_queue_depth() {
  m_queue_depth_->set(static_cast<double>(queue_.size()));
}

void FoldInBatcher::collector_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    // Linger: give concurrent submitters a window to join this batch.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.max_linger_s));
    cv_.wait_until(lock, deadline, [this] {
      return stopping_ || queue_.size() >= options_.max_batch;
    });
    if (stopping_) return;
    std::vector<Pending> batch;
    const std::size_t take = std::min(options_.max_batch, queue_.size());
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_[i]));
    }
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(take));
    publish_queue_depth();
    lock.unlock();
    drain_and_solve(std::move(batch));
    lock.lock();
  }
}

std::vector<FoldInResult> FoldInBatcher::solve_with_retries(
    const ServableModel& model, const std::vector<FoldInRequest>& group) {
  for (int attempt = 0;; ++attempt) {
    try {
      return engine_.fold_in_batch(model, group);
    } catch (const simgpu::FaultError& e) {
      if (!e.transient() || attempt >= options_.max_retries) throw;
      reliability_.retries.fetch_add(1, std::memory_order_relaxed);
      if (options_.retry_backoff_s > 0.0) {
        const double backoff_s =
            options_.retry_backoff_s * static_cast<double>(1 << attempt);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff_s));
      }
    }
  }
}

std::size_t FoldInBatcher::drain_and_solve(std::vector<Pending> batch) {
  if (batch.empty()) return 0;

  // Expire requests whose deadline passed while they waited in the queue —
  // solving them would waste a batch slot on an answer nobody reads.
  const double now_s = epoch_.seconds();
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    if (p.deadline_s > 0.0 && now_s > p.deadline_s) {
      reliability_.timed_out.fetch_add(1, std::memory_order_relaxed);
      p.promise.set_exception(std::make_exception_ptr(DeadlineError(
          "fold-in batcher: request deadline expired in queue")));
    } else {
      live.push_back(std::move(p));
    }
  }
  batch = std::move(live);
  if (batch.empty()) return 0;

  ServableModelPtr model = store_.get(model_name_);
  bool stale_snapshot = false;
  if (model == nullptr && options_.degraded_fallback) {
    // Degraded mode: the model left the store (hot-swap in flight, or an
    // unpublish) but we served it before — a stale generation beats failing
    // the whole batch. The result's `generation` tells the client.
    std::lock_guard<std::mutex> lock(model_mu_);
    model = last_good_;
    stale_snapshot = model != nullptr;
  }
  if (model == nullptr) {
    for (Pending& p : batch) {
      reliability_.failed.fetch_add(1, std::memory_order_relaxed);
      p.promise.set_exception(std::make_exception_ptr(
          Error("fold-in batcher: model '" + model_name_ +
                "' is not in the store")));
    }
    return 0;
  }

  // Group by mode: each group becomes one fused solve.
  std::map<int, std::vector<std::size_t>> by_mode;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    by_mode[batch[i].request.mode].push_back(i);
  }
  std::size_t served = 0;
  bool any_success = false;
  for (const auto& [mode, indices] : by_mode) {
    std::vector<FoldInRequest> group;
    group.reserve(indices.size());
    for (std::size_t i : indices) group.push_back(batch[i].request);
    try {
      std::vector<FoldInResult> results = solve_with_retries(*model, group);
      const double done_s = epoch_.seconds();
      // Count the batch before fulfilling its promises: a client that reads
      // the counters after its future resolves must see its own request.
      batch_sizes_.record(static_cast<std::int64_t>(indices.size()));
      served += indices.size();
      any_success = true;
      reliability_.served.fetch_add(
          static_cast<std::int64_t>(indices.size()),
          std::memory_order_relaxed);
      if (stale_snapshot) {
        reliability_.degraded.fetch_add(
            static_cast<std::int64_t>(indices.size()),
            std::memory_order_relaxed);
      }
      for (std::size_t g = 0; g < indices.size(); ++g) {
        Pending& p = batch[indices[g]];
        latency_.record(done_s - p.enqueue_s);
        p.promise.set_value(std::move(results[g]));
      }
    } catch (...) {
      if (!options_.degraded_fallback) {
        for (std::size_t i : indices) {
          reliability_.failed.fetch_add(1, std::memory_order_relaxed);
          batch[i].promise.set_exception(std::current_exception());
        }
        continue;
      }
      // The fused solve died even after retries (a fatal fault, or a
      // request-triggered failure). Isolate: re-solve each request alone so
      // one poisoned request cannot take down its batchmates.
      for (std::size_t i : indices) {
        Pending& p = batch[i];
        try {
          std::vector<FoldInResult> one =
              solve_with_retries(*model, {p.request});
          latency_.record(epoch_.seconds() - p.enqueue_s);
          ++served;
          any_success = true;
          reliability_.served.fetch_add(1, std::memory_order_relaxed);
          reliability_.degraded.fetch_add(1, std::memory_order_relaxed);
          batch_sizes_.record(1);
          p.promise.set_value(std::move(one.front()));
        } catch (...) {
          reliability_.failed.fetch_add(1, std::memory_order_relaxed);
          p.promise.set_exception(std::current_exception());
        }
      }
    }
  }
  if (any_success && !stale_snapshot) {
    std::lock_guard<std::mutex> lock(model_mu_);
    last_good_ = model;
  }
  return served;
}

}  // namespace cstf::serve
