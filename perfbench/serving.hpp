// The serving half of a workload: publish a trained model, then drive the
// fold-in batcher and the query engine with an open loop (one generator
// thread, constant rate, a mix of fold-ins and queries) and a closed loop
// (a fixed window of outstanding fold-ins, to measure capacity).
#pragma once

#include <cstdint>

#include "cstf/ktensor.hpp"
#include "json_out.hpp"
#include "updates/prox.hpp"

namespace perfbench {

/// The request mix. The request shapes follow the repository's serving
/// client (tools/cstf_serve.cpp): 4-11 observed entries per fold-in, and of
/// the queries three in four are predict() over 8 coordinates and one is a
/// top_k of 5 over a random mode. Fold-ins go mostly to the longest mode,
/// where a new user or item is most likely to appear; the rest to a random
/// mode, as in the client.
struct ServeConfig {
  double open_s = 0.0;         // open-loop duration (per workload)
  double closed_s = 0.0;       // closed-loop duration (per workload)
  double rate_rps = 2000.0;    // open-loop arrival rate, all request kinds;
                               // low enough that a slow spell of a shared
                               // host does not fill the admission queue
  double foldin_share = 0.7;   // of open-loop requests
  double predict_share = 0.75; // of the remaining (query) requests
  double longest_mode_share = 0.8;  // of fold-ins
  int foldin_min_nnz = 4;      // observed entries per fold-in: uniform in
  int foldin_max_nnz = 11;     // [min, max]
  int predict_batch = 8;       // coordinates per predict() call
  int topk_k = 5;              // top_k size
  int window = 64;             // closed-loop outstanding fold-ins
  int query_workers = 8;       // client threads executing queries; enough
                               // that queries do not queue behind each other
                               // in the harness, only inside the server
  int setup_reps = 3;          // publish + engine/batcher constructions
  int resolve_sample = 64;     // fold-ins re-solved one at a time
  std::uint64_t seed = 1;      // request stream
  bool trace = false;          // attach a tracer to the serving device
};

/// Runs both phases against `model` and writes the "serve" object (raw
/// per-request records, counters and check tallies) into `out`.
void run_serving(const cstf::KTensor& model, const cstf::Proximity& prox,
                 const ServeConfig& cfg, JsonOut& out);

}  // namespace perfbench
