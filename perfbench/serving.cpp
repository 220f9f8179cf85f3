#include "serving.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "common/timer.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/fold_in.hpp"
#include "serve/model_store.hpp"
#include "serve/query_engine.hpp"
#include "serve/runtime.hpp"
#include "simgpu/device_spec.hpp"
#include "simgpu/trace.hpp"

namespace perfbench {

namespace {

using cstf::index_t;
using cstf::real_t;
namespace serve = cstf::serve;
using Clock = std::chrono::steady_clock;

const char* const kModelName = "bench";

// Request kinds and outcomes as written to the raw-result file; run.py
// (harness.py) decodes the same codes.
enum Kind { kFoldIn = 0, kPredict = 1, kTopK = 2 };
enum Outcome { kOk = 0, kShed = 1, kDeadline = 2, kError = 3, kCheckFailed = 4 };

struct Request {
  Kind kind = kFoldIn;
  double due_s = 0.0;
  serve::FoldInRequest foldin;
  std::vector<index_t> coords;  // predict batch, or top_k fixed coordinate
  int topk_mode = 0;             // top_k: the mode scored
};

struct Record {
  double sent_s = 0.0;
  double done_s = 0.0;
  int outcome = kOk;
};

/// Multi-producer queue with close(); pop() returns nullopt once closed
/// and drained.
template <typename T>
class Queue {
 public:
  void push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// The mode with the most rows (the lowest index on ties).
int longest_mode(const cstf::KTensor& model) {
  int best = 0;
  for (int m = 1; m < model.num_modes(); ++m) {
    if (model.factors[static_cast<std::size_t>(m)].rows() >
        model.factors[static_cast<std::size_t>(best)].rows()) {
      best = m;
    }
  }
  return best;
}

index_t random_index(cstf::Rng& rng, const cstf::KTensor& model, int mode) {
  const auto rows = static_cast<std::uint64_t>(
      model.factors[static_cast<std::size_t>(mode)].rows());
  return static_cast<index_t>(rng.uniform_index(rows));
}

serve::FoldInRequest make_foldin(cstf::Rng& rng, const cstf::KTensor& model,
                                 const ServeConfig& cfg) {
  serve::FoldInRequest req;
  const auto modes = static_cast<std::uint64_t>(model.num_modes());
  req.mode = rng.uniform() < cfg.longest_mode_share
                 ? longest_mode(model)
                 : static_cast<int>(rng.uniform_index(modes));
  const auto span =
      static_cast<std::uint64_t>(cfg.foldin_max_nnz - cfg.foldin_min_nnz + 1);
  const int nnz = cfg.foldin_min_nnz + static_cast<int>(rng.uniform_index(span));
  for (int j = 0; j < nnz; ++j) {
    for (int m = 0; m < model.num_modes(); ++m) {
      if (m != req.mode) req.coords.push_back(random_index(rng, model, m));
    }
    req.values.push_back(rng.uniform());
  }
  return req;
}

std::vector<Request> make_open_loop(cstf::Rng& rng, const cstf::KTensor& model,
                                    const ServeConfig& cfg) {
  const auto count = static_cast<std::size_t>(cfg.open_s * cfg.rate_rps);
  std::vector<Request> reqs(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request& r = reqs[i];
    r.due_s = static_cast<double>(i) / cfg.rate_rps;
    if (rng.uniform() < cfg.foldin_share) {
      r.kind = kFoldIn;
      r.foldin = make_foldin(rng, model, cfg);
    } else if (rng.uniform() < cfg.predict_share) {
      r.kind = kPredict;
      for (int b = 0; b < cfg.predict_batch; ++b) {
        for (int m = 0; m < model.num_modes(); ++m) {
          r.coords.push_back(random_index(rng, model, m));
        }
      }
    } else {
      r.kind = kTopK;
      r.topk_mode = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(model.num_modes())));
      for (int m = 0; m < model.num_modes(); ++m) {
        r.coords.push_back(random_index(rng, model, m));
      }
    }
  }
  return reqs;
}

bool row_feasible(const std::vector<real_t>& row, index_t rank) {
  if (static_cast<index_t>(row.size()) != rank) return false;
  for (real_t v : row) {
    if (!std::isfinite(v) || v < 0.0) return false;
  }
  return true;
}

/// Runs one query; returns its outcome after checking the answer.
int run_query(serve::QueryEngine& queries, serve::ModelStore& store,
              const Request& r, const ServeConfig& cfg) {
  serve::ServableModelPtr snap = store.get(kModelName);
  if (snap == nullptr) return kError;
  if (r.kind == kPredict) {
    const std::vector<real_t> values = queries.predict(*snap, r.coords);
    if (values.size() != static_cast<std::size_t>(cfg.predict_batch)) {
      return kCheckFailed;
    }
    for (real_t v : values) {
      if (!std::isfinite(v)) return kCheckFailed;
    }
    return kOk;
  }
  const std::vector<serve::ScoredEntry> top =
      queries.top_k(*snap, r.topk_mode, r.coords, cfg.topk_k);
  const auto expect = std::min<std::size_t>(
      static_cast<std::size_t>(cfg.topk_k),
      static_cast<std::size_t>(snap->mode_size(r.topk_mode)));
  if (top.size() != expect) return kCheckFailed;
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (!std::isfinite(top[i].score)) return kCheckFailed;
    if (i > 0 && top[i - 1].score < top[i].score) return kCheckFailed;
  }
  return kOk;
}

int outcome_of(std::future<serve::FoldInResult>& fut,
               std::vector<real_t>* row) {
  try {
    serve::FoldInResult result = fut.get();
    if (row != nullptr) *row = std::move(result.row);
    return kOk;
  } catch (const serve::ShedError&) {
    return kShed;
  } catch (const serve::DeadlineError&) {
    return kDeadline;
  } catch (...) {
    return kError;
  }
}

/// The serving stack under test: one model store, fold-in engine and
/// batcher, and query engine on a device of their own.
struct Stack {
  explicit Stack(cstf::ThreadPool& pool)
      : device(cstf::simgpu::a100()), runtime(device, pool) {}

  cstf::simgpu::Device device;
  serve::ServeRuntime runtime;
  std::unique_ptr<serve::ModelStore> store;
  std::unique_ptr<serve::FoldInEngine> engine;
  std::unique_ptr<serve::FoldInBatcher> batcher;
  std::unique_ptr<serve::QueryEngine> queries;

  /// Tears down in dependency order (the batcher joins its collector).
  void reset() {
    batcher.reset();
    queries.reset();
    engine.reset();
    store.reset();
  }
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

void run_serving(const cstf::KTensor& model, const cstf::Proximity& prox,
                 const ServeConfig& cfg, JsonOut& out) {
  serve::SavedModel saved;
  saved.model = model;
  saved.meta.name = kModelName;
  saved.meta.set_constraint(prox);

  Stack stack(cstf::global_pool());
  cstf::simgpu::Tracer tracer;
  if (cfg.trace) stack.device.set_tracer(&tracer);

  // Set-up: model publish (Gram caches, pre-factorized fold-in systems)
  // plus engine and batcher construction. Half the repetitions run here
  // (the last one serves), half after the timed phases, so a drift in the
  // host's speed over the run reaches both.
  std::vector<double> setup_s;
  std::vector<double> publish_s;
  auto set_up = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      stack.reset();
      cstf::Timer total;
      stack.store = std::make_unique<serve::ModelStore>();
      cstf::Timer publish;
      stack.store->publish(saved);
      publish_s.push_back(publish.seconds());
      stack.engine = std::make_unique<serve::FoldInEngine>(stack.runtime);
      stack.batcher = std::make_unique<serve::FoldInBatcher>(
          *stack.engine, *stack.store, kModelName);
      stack.queries = std::make_unique<serve::QueryEngine>(stack.runtime);
      setup_s.push_back(total.seconds());
    }
  };
  const int reps_now = (cfg.setup_reps + 1) / 2;
  set_up(reps_now);
  serve::ModelStore& store = *stack.store;
  serve::FoldInEngine& engine = *stack.engine;
  serve::FoldInBatcher& batcher = *stack.batcher;
  serve::QueryEngine& queries = *stack.queries;

  cstf::Rng rng(cfg.seed ^ 0x5e7e5e7e5e7eULL);
  const std::vector<Request> reqs = make_open_loop(rng, model, cfg);
  const std::size_t n = reqs.size();
  std::vector<Record> rec(n);
  std::vector<std::vector<real_t>> rows(n);

  // ---- Open loop: requests are sent on schedule whatever the backlog.
  stack.device.reset();
  tracer.clear();
  Queue<std::pair<std::size_t, std::future<serve::FoldInResult>>> pending;
  Queue<std::size_t> query_queue;
  std::vector<std::thread> threads;
  // Closes both queues and joins every client thread on any exit from this
  // scope, so an exception cannot leave a thread running or unjoined.
  struct Joiner {
    decltype(pending)& p;
    decltype(query_queue)& q;
    std::vector<std::thread>& ts;
    ~Joiner() {
      p.close();
      q.close();
      for (std::thread& t : ts) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{pending, query_queue, threads};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  threads.emplace_back([&] {
    // Futures complete in submission order up to mode grouping within one
    // drain, so waiting in order observes each completion promptly.
    while (auto item = pending.pop()) {
      item->second.wait();
      rec[item->first].done_s = since(t0);
      rec[item->first].outcome = outcome_of(item->second, &rows[item->first]);
    }
  });
  for (int w = 0; w < cfg.query_workers; ++w) {
    threads.emplace_back([&] {
      while (auto i = query_queue.pop()) {
        int outcome = kError;
        try {
          outcome = run_query(queries, store, reqs[*i], cfg);
        } catch (...) {
          outcome = kError;
        }
        rec[*i].done_s = since(t0);
        rec[*i].outcome = outcome;
      }
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(reqs[i].due_s)));
    rec[i].sent_s = since(t0);
    if (reqs[i].kind == kFoldIn) {
      pending.push({i, batcher.submit(reqs[i].foldin)});
    } else {
      query_queue.push(i);
    }
  }
  pending.close();
  query_queue.close();
  for (std::thread& t : threads) t.join();

  // Per-layer readings of the open-loop phase, taken before anything else
  // touches the serving device or the recorders.
  const std::int64_t solves = engine.latency().count();
  const double solve_p50 = engine.latency().quantile(0.5);
  const double solve_p99 = engine.latency().quantile(0.99);
  const double query_p50 = queries.latency().quantile(0.5);
  const serve::ReliabilitySnapshot reliability =
      batcher.reliability().snapshot();
  const double batch_mean = batcher.batch_sizes().mean_batch_size();
  const std::int64_t rows_solved = batcher.batch_sizes().requests();
  const double ready_mean_s = batcher.latency().summary().mean_s;
  double foldin_launches = 0.0;
  double admm_bytes = 0.0;
  for (const auto& [name, stats] : stack.device.per_kernel()) {
    if (name == "serve_predict_batch" || name == "serve_topk_score") continue;
    foldin_launches += static_cast<double>(stats.launches);
    if (name != "serve_foldin_rhs") admm_bytes += stats.total_bytes();
  }
  // Request-weighted solve time: each fused solve is one SERVE_FOLDIN
  // tracer phase, and its right-hand-side kernel carries the batch size.
  double weighted_solve_s = 0.0;
  double weighted_rows = 0.0;
  if (cfg.trace) {
    std::vector<double> solve_walls;
    for (const auto& ph : tracer.phase_spans()) {
      if (ph.phase == cstf::phase::kServeFoldIn) solve_walls.push_back(ph.wall_s);
    }
    std::vector<double> batch_rows;
    for (const auto& sp : tracer.spans()) {
      if (sp.kernel == "serve_foldin_rhs") {
        batch_rows.push_back(sp.stats.parallel_items);
      }
    }
    const std::size_t k = std::min(solve_walls.size(), batch_rows.size());
    for (std::size_t b = 0; b < k; ++b) {
      weighted_solve_s += solve_walls[b] * batch_rows[b];
      weighted_rows += batch_rows[b];
    }
  }

  // ---- Closed loop: a fixed window of outstanding fold-ins.
  std::vector<serve::FoldInRequest> pool_reqs;
  for (int i = 0; i < 1024; ++i) {
    pool_reqs.push_back(make_foldin(rng, model, cfg));
  }
  std::vector<double> closed_done;
  std::int64_t closed_failed = 0;
  std::size_t next = 0;
  std::deque<std::future<serve::FoldInResult>> window;
  cstf::Timer closed_timer;
  for (int w = 0; w < cfg.window; ++w) {
    window.push_back(batcher.submit(pool_reqs[next++ % pool_reqs.size()]));
  }
  double closed_elapsed = 0.0;
  while (!window.empty()) {
    std::future<serve::FoldInResult> fut = std::move(window.front());
    window.pop_front();
    fut.wait();
    closed_elapsed = closed_timer.seconds();
    closed_done.push_back(closed_elapsed);
    if (outcome_of(fut, nullptr) != kOk) ++closed_failed;
    if (closed_elapsed < cfg.closed_s) {
      window.push_back(batcher.submit(pool_reqs[next++ % pool_reqs.size()]));
    }
  }
  const serve::ReliabilitySnapshot after = batcher.reliability().snapshot();

  // ---- Checks after the timed phases.
  std::int64_t checks = 0;
  std::int64_t checks_failed = 0;
  std::vector<std::size_t> solved;
  for (std::size_t i = 0; i < n; ++i) {
    if (reqs[i].kind != kFoldIn || rec[i].outcome != kOk) continue;
    if (row_feasible(rows[i], model.rank())) {
      solved.push_back(i);
    } else {
      rec[i].outcome = kCheckFailed;
    }
  }
  // Batched rows must equal single-row solves bit for bit.
  serve::ServableModelPtr snap = store.get(kModelName);
  const std::size_t sample =
      std::min(solved.size(), static_cast<std::size_t>(cfg.resolve_sample));
  for (std::size_t s = 0; s < sample; ++s) {
    const std::size_t pick = s + static_cast<std::size_t>(rng.uniform_index(
                                     solved.size() - s));
    std::swap(solved[s], solved[pick]);
    const std::size_t i = solved[s];
    ++checks;
    const serve::FoldInResult single = engine.fold_in(*snap, reqs[i].foldin);
    if (single.row.size() != rows[i].size() ||
        std::memcmp(single.row.data(), rows[i].data(),
                    rows[i].size() * sizeof(real_t)) != 0) {
      ++checks_failed;
    }
  }
  set_up(cfg.setup_reps - reps_now);
  stack.reset();

  out.begin_object("serve");
  out.nums("setup_s", setup_s);
  out.nums("publish_s", publish_s);
  out.begin_object("open");
  {
    std::vector<double> due, sent, done;
    std::vector<int> kind, outcome;
    for (std::size_t i = 0; i < n; ++i) {
      due.push_back(reqs[i].due_s);
      sent.push_back(rec[i].sent_s);
      done.push_back(rec[i].done_s);
      kind.push_back(reqs[i].kind);
      outcome.push_back(rec[i].outcome);
    }
    out.nums("due", due).nums("sent", sent).nums("done", done);
    out.ints("kind", kind).ints("outcome", outcome);
  }
  out.end_object();
  out.begin_object("closed");
  out.nums("done", closed_done);
  out.num("failed", static_cast<double>(closed_failed));
  out.num("shed", static_cast<double>(after.shed - reliability.shed));
  out.end_object();
  out.begin_object("checks");
  out.num("attempted", static_cast<double>(checks));
  out.num("failed", static_cast<double>(checks_failed));
  out.end_object();
  out.begin_object("layer");
  out.num("solve_p50_s", solve_p50);
  out.num("solve_p99_s", solve_p99);
  out.num("launches_per_batch",
          solves > 0 ? foldin_launches / static_cast<double>(solves) : 0.0);
  out.num("admm_bytes_per_row",
          rows_solved > 0 ? admm_bytes / static_cast<double>(rows_solved)
                          : 0.0);
  out.num("batch_mean", batch_mean);
  out.num("ready_mean_s", ready_mean_s);
  out.num("weighted_solve_s",
          weighted_rows > 0.0 ? weighted_solve_s / weighted_rows : 0.0);
  out.num("query_p50_s", query_p50);
  out.num("retries", static_cast<double>(reliability.retries));
  out.num("shed", static_cast<double>(reliability.shed));
  out.end_object();
  out.end_object();
}

}  // namespace perfbench
