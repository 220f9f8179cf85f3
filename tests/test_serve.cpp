// Serving-layer tests: model persistence (round trip + typed corruption
// rejection), ServableModel caches, the query/fold-in engines, the request
// batcher, hot-swap under concurrent load, and the latency recorders.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "device_program.hpp"
#include "la/blas.hpp"
#include "la/elementwise.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/fold_in.hpp"
#include "serve/model_io.hpp"
#include "serve/model_store.hpp"
#include "serve/query_engine.hpp"
#include "serve/runtime.hpp"
#include "serve/serve_stats.hpp"
#include "simgpu/device.hpp"
#include "simgpu/fault.hpp"
#include "updates/admm.hpp"

namespace cstf::serve {
namespace {

/// A small strictly-positive model (valid under the non-negative constraint
/// its metadata declares).
SavedModel make_saved_model(std::uint64_t seed = 5,
                            const std::string& name = "test-model") {
  Rng rng(seed);
  SavedModel saved;
  saved.model.factors.emplace_back(9, 3);
  saved.model.factors.emplace_back(7, 3);
  saved.model.factors.emplace_back(5, 3);
  for (Matrix& f : saved.model.factors) f.fill_uniform(rng, 0.1, 1.0);
  saved.model.lambda = {2.0, 1.5, 0.5};
  saved.meta.name = name;
  saved.meta.set_constraint(Proximity::non_negative());
  saved.meta.final_fit = 0.875;
  saved.meta.options_digest = 0xfeedbeefcafe1234ULL;
  saved.meta.seed = seed;
  saved.meta.iterations = 11;
  return saved;
}

/// A deterministic fold-in request against `model` (coords within bounds).
FoldInRequest make_request(const ServableModel& model, int mode,
                           std::uint64_t seed) {
  Rng rng(seed);
  FoldInRequest req;
  req.mode = mode;
  const int nnz = 3 + static_cast<int>(rng.uniform_index(4));
  for (int j = 0; j < nnz; ++j) {
    for (int m = 0; m < model.num_modes(); ++m) {
      if (m == mode) continue;
      req.coords.push_back(static_cast<index_t>(
          rng.uniform_index(static_cast<std::uint64_t>(model.mode_size(m)))));
    }
    req.values.push_back(rng.uniform(0.5, 2.0));
  }
  return req;
}

ModelIoStatus load_status(const std::string& path) {
  try {
    load_model(path);
  } catch (const ModelIoError& e) {
    return e.status();
  }
  ADD_FAILURE() << "load_model(" << path << ") unexpectedly succeeded";
  return ModelIoStatus::kOpenFailed;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ModelIo, RoundTripIsBitIdentical) {
  const SavedModel saved = make_saved_model();
  const std::string path = ::testing::TempDir() + "/roundtrip.cstf";
  save_model(saved, path);
  const SavedModel loaded = load_model(path);

  ASSERT_EQ(loaded.model.num_modes(), saved.model.num_modes());
  ASSERT_EQ(loaded.model.rank(), saved.model.rank());
  for (int m = 0; m < saved.model.num_modes(); ++m) {
    const Matrix& a = saved.model.factors[static_cast<std::size_t>(m)];
    const Matrix& b = loaded.model.factors[static_cast<std::size_t>(m)];
    ASSERT_EQ(a.rows(), b.rows());
    for (index_t i = 0; i < a.rows(); ++i) {
      for (index_t j = 0; j < a.cols(); ++j) {
        EXPECT_EQ(a(i, j), b(i, j)) << "mode " << m;  // exact, not NEAR
      }
    }
  }
  EXPECT_EQ(loaded.model.lambda, saved.model.lambda);
  EXPECT_EQ(loaded.meta.name, saved.meta.name);
  EXPECT_EQ(loaded.meta.constraint, saved.meta.constraint);
  EXPECT_EQ(loaded.meta.constraint_a, saved.meta.constraint_a);
  EXPECT_EQ(loaded.meta.constraint_b, saved.meta.constraint_b);
  EXPECT_EQ(loaded.meta.final_fit, saved.meta.final_fit);
  EXPECT_EQ(loaded.meta.options_digest, saved.meta.options_digest);
  EXPECT_EQ(loaded.meta.seed, saved.meta.seed);
  EXPECT_EQ(loaded.meta.iterations, saved.meta.iterations);
}

TEST(ModelIo, SaveLeavesNoTmpFile) {
  const std::string path = ::testing::TempDir() + "/notmp.cstf";
  save_model(make_saved_model(), path);
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
}

TEST(ModelIo, LoadRejectsMissingFile) {
  EXPECT_EQ(load_status(::testing::TempDir() + "/no_such_model.cstf"),
            ModelIoStatus::kOpenFailed);
}

TEST(ModelIo, LoadRejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "/badmagic.cstf";
  std::ofstream(path, std::ios::binary) << "definitely not a model file";
  EXPECT_EQ(load_status(path), ModelIoStatus::kBadMagic);
}

TEST(ModelIo, LoadRejectsBadVersion) {
  const std::string path = ::testing::TempDir() + "/badversion.cstf";
  save_model(make_saved_model(), path);
  std::vector<char> bytes = read_bytes(path);
  bytes[8] = static_cast<char>(bytes[8] + 1);  // version u32 follows the magic
  write_bytes(path, bytes);
  EXPECT_EQ(load_status(path), ModelIoStatus::kBadVersion);
}

TEST(ModelIo, LoadRejectsPreviousVersion) {
  // Models saved before the last options-digest change carry a digest that
  // means something else now.
  const std::string path = ::testing::TempDir() + "/previous_version.cstf";
  save_model(make_saved_model(), path);
  std::vector<char> bytes = read_bytes(path);
  const std::uint32_t previous = kModelFormatVersion - 1;
  std::memcpy(bytes.data() + 8, &previous, sizeof(previous));
  write_bytes(path, bytes);
  EXPECT_EQ(load_status(path), ModelIoStatus::kBadVersion);
}

TEST(ModelIo, LoadRejectsTruncation) {
  const std::string path = ::testing::TempDir() + "/truncated.cstf";
  save_model(make_saved_model(), path);
  std::vector<char> bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes.resize(bytes.size() - 24);  // chop the footer + end of payload
  write_bytes(path, bytes);
  EXPECT_EQ(load_status(path), ModelIoStatus::kTruncated);
}

TEST(ModelIo, LoadRejectsBitFlip) {
  const std::string path = ::testing::TempDir() + "/bitflip.cstf";
  save_model(make_saved_model(), path);
  std::vector<char> bytes = read_bytes(path);
  // Flip one payload bit (well before the 8-byte checksum footer).
  bytes[bytes.size() - 32] ^= 0x10;
  write_bytes(path, bytes);
  EXPECT_EQ(load_status(path), ModelIoStatus::kChecksumMismatch);
}

// The bytes of a .cstf file whose header declares one factor of 2^40 rows
// at rank 16 (128 TiB of factor data) and that ends 8 reals into it: 280
// bytes in all.
std::vector<char> oversized_model_header() {
  std::vector<char> bytes;
  const auto put = [&bytes](const auto& v) {
    const char* p = reinterpret_cast<const char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
  };
  const char magic[8] = {'C', 'S', 'T', 'F', 'S', 'R', 'V', '\n'};
  bytes.insert(bytes.end(), magic, magic + sizeof(magic));
  put(kModelFormatVersion);
  put(std::uint64_t{1});        // modes
  put(std::uint64_t{16});       // rank
  put(std::uint64_t{1} << 40);  // factor height
  put(std::uint32_t{0});        // constraint kind
  put(0.0);                     // constraint param a
  put(0.0);                     // constraint param b
  put(0.0);                     // final fit
  put(std::uint64_t{0});        // options digest
  put(std::uint64_t{0});        // seed
  put(std::uint32_t{0});        // iterations
  put(std::uint32_t{0});        // name length
  for (int r = 0; r < 16; ++r) put(1.0);  // lambda
  bytes.resize(280, 0);
  return bytes;
}

TEST(ModelIo, LoadRejectsOversizedHeaderBeforeAllocating) {
  const std::string path = ::testing::TempDir() + "/oversized.cstf";
  const std::vector<char> bytes = oversized_model_header();
  ASSERT_EQ(bytes.size(), 280u);
  write_bytes(path, bytes);
  EXPECT_EQ(load_status(path), ModelIoStatus::kTruncated);
}

TEST(ModelIo, FactorPayloadIsColumnMajor) {
  // A hand-filled 2-mode model: the file holds each factor column by
  // column, (0,0), (1,0), ..., whatever the in-memory layout.
  SavedModel saved;
  for (int m = 0; m < 2; ++m) {
    Matrix f(3 + m, 2);
    for (index_t i = 0; i < f.rows(); ++i) {
      for (index_t j = 0; j < f.cols(); ++j) f(i, j) = 100.0 * m + 10.0 * i + j;
    }
    saved.model.factors.push_back(std::move(f));
  }
  saved.model.lambda = {1.0, 2.0};
  const std::string path = ::testing::TempDir() + "/column_major.cstf";
  save_model(saved, path);
  const std::vector<char> bytes = read_bytes(path);
  // The factors are the last payload before the 8-byte checksum.
  const std::size_t words = 3 * 2 + 4 * 2;
  ASSERT_GT(bytes.size(), 8 + words * sizeof(real_t));
  std::size_t at = bytes.size() - 8 - words * sizeof(real_t);
  for (const Matrix& f : saved.model.factors) {
    for (index_t j = 0; j < f.cols(); ++j) {
      for (index_t i = 0; i < f.rows(); ++i) {
        real_t stored = 0.0;
        std::memcpy(&stored, bytes.data() + at, sizeof(stored));
        EXPECT_EQ(stored, f(i, j)) << "(" << i << "," << j << ")";
        at += sizeof(real_t);
      }
    }
  }
}

TEST(ModelIo, SaveRejectsInvalidModel) {
  SavedModel saved = make_saved_model();
  saved.model.factors[1](2, 1) = std::nan("");
  const std::string path = ::testing::TempDir() + "/invalid.cstf";
  try {
    save_model(saved, path);
    FAIL() << "save_model accepted a NaN factor";
  } catch (const ModelIoError& e) {
    EXPECT_EQ(e.status(), ModelIoStatus::kInvalidModel);
  }
}

TEST(ModelIo, DigestTracksOptions) {
  FrameworkOptions a;
  FrameworkOptions b = a;
  EXPECT_EQ(digest_options(a), digest_options(b));
  b.rank = a.rank + 1;
  EXPECT_NE(digest_options(a), digest_options(b));
  b = a;
  b.prox = Proximity::l1_non_negative(0.25);
  EXPECT_NE(digest_options(a), digest_options(b));
}

TEST(ServableModel, CachesMatchDirectComputation) {
  const SavedModel saved = make_saved_model();
  const ServableModel snapshot(saved, /*generation=*/1);

  const index_t rank = saved.model.rank();
  for (int m = 0; m < saved.model.num_modes(); ++m) {
    Matrix expected_gram(rank, rank);
    la::gram(saved.model.factors[static_cast<std::size_t>(m)], expected_gram);
    for (index_t r = 0; r < rank; ++r) {
      for (index_t c = 0; c < rank; ++c) {
        EXPECT_DOUBLE_EQ(snapshot.gram(m)(r, c), expected_gram(r, c));
      }
    }
  }

  // S_0 = (lambda lambda^T) .* gram(1) .* gram(2).
  Matrix expected(rank, rank);
  expected.set_all(1.0);
  la::hadamard_inplace(expected, snapshot.gram(1));
  la::hadamard_inplace(expected, snapshot.gram(2));
  for (index_t r = 0; r < rank; ++r) {
    for (index_t c = 0; c < rank; ++c) {
      expected(r, c) *= saved.model.lambda[static_cast<std::size_t>(r)] *
                        saved.model.lambda[static_cast<std::size_t>(c)];
      EXPECT_DOUBLE_EQ(snapshot.fold_in_system(0)(r, c), expected(r, c));
    }
  }
  EXPECT_TRUE(snapshot.fold_in_gram(0).preinverted());
  EXPECT_GT(snapshot.fold_in_gram(0).rho, 0.0);
}

TEST(ModelStore, PublishGetEraseAndGenerations) {
  ModelStore store;
  EXPECT_EQ(store.get("test-model"), nullptr);
  ServableModelPtr first = store.publish(make_saved_model(5));
  EXPECT_EQ(first->generation(), 1u);
  EXPECT_EQ(store.get("test-model"), first);

  ServableModelPtr second = store.publish(make_saved_model(6));
  EXPECT_EQ(second->generation(), 2u);
  EXPECT_EQ(store.get("test-model"), second);
  // The swapped-out snapshot stays fully usable for in-flight holders.
  EXPECT_EQ(first->num_modes(), 3);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.generation(), 2u);

  EXPECT_TRUE(store.erase("test-model"));
  EXPECT_FALSE(store.erase("test-model"));
  EXPECT_EQ(store.get("test-model"), nullptr);
}

TEST(ModelStore, LoadAndPublishRoundTrip) {
  const std::string path = ::testing::TempDir() + "/published.cstf";
  save_model(make_saved_model(), path);
  ModelStore store;
  ServableModelPtr snapshot = store.load_and_publish(path);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->meta().name, "test-model");
  EXPECT_EQ(store.get("test-model"), snapshot);
}

TEST(QueryEngine, PredictMatchesValueAt) {
  const SavedModel saved = make_saved_model();
  const ServableModel snapshot(saved, 1);
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  QueryEngine engine(runtime);

  std::vector<index_t> coords;
  std::vector<real_t> expected;
  Rng rng(17);
  for (int q = 0; q < 12; ++q) {
    index_t tuple[3];
    for (int m = 0; m < 3; ++m) {
      tuple[m] = static_cast<index_t>(rng.uniform_index(
          static_cast<std::uint64_t>(snapshot.mode_size(m))));
      coords.push_back(tuple[m]);
    }
    expected.push_back(saved.model.value_at(tuple));
  }
  const std::vector<real_t> got = engine.predict(snapshot, coords);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], expected[i]);
  }
  EXPECT_EQ(engine.latency().count(), 1);
}

TEST(QueryEngine, PredictRejectsOutOfRangeCoordinate) {
  const ServableModel snapshot(make_saved_model(), 1);
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  QueryEngine engine(runtime);
  const std::vector<index_t> coords = {0, 0, snapshot.mode_size(2)};
  EXPECT_THROW(engine.predict(snapshot, coords), Error);
}

TEST(QueryEngine, TopKReturnsLargestScoresSorted) {
  const SavedModel saved = make_saved_model();
  const ServableModel snapshot(saved, 1);
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  QueryEngine engine(runtime);

  const int target = 0;
  const std::vector<index_t> fixed = {0, 2, 3};
  const int k = 4;
  const std::vector<ScoredEntry> top =
      engine.top_k(snapshot, target, fixed, k);
  ASSERT_EQ(top.size(), static_cast<std::size_t>(k));

  std::vector<real_t> all(static_cast<std::size_t>(snapshot.mode_size(target)));
  for (index_t i = 0; i < snapshot.mode_size(target); ++i) {
    index_t tuple[3] = {i, fixed[1], fixed[2]};
    all[static_cast<std::size_t>(i)] = saved.model.value_at(tuple);
  }
  std::vector<real_t> sorted = all;
  std::sort(sorted.rbegin(), sorted.rend());
  for (int i = 0; i < k; ++i) {
    EXPECT_DOUBLE_EQ(top[static_cast<std::size_t>(i)].score,
                     sorted[static_cast<std::size_t>(i)]);
    EXPECT_DOUBLE_EQ(
        top[static_cast<std::size_t>(i)].score,
        all[static_cast<std::size_t>(top[static_cast<std::size_t>(i)].index)]);
    if (i > 0) {
      EXPECT_GE(top[static_cast<std::size_t>(i - 1)].score,
                top[static_cast<std::size_t>(i)].score);
    }
  }
}

TEST(FoldIn, RowIsFeasibleAndMatchesFromScratchSolve) {
  const SavedModel saved = make_saved_model();
  const ServableModel snapshot(saved, 1);
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);

  const int mode = 1;
  const FoldInRequest req = make_request(snapshot, mode, 23);
  const FoldInResult result = engine.fold_in(snapshot, req);
  const index_t rank = snapshot.rank();
  ASSERT_EQ(result.row.size(), static_cast<std::size_t>(rank));
  for (real_t v : result.row) {
    EXPECT_GE(v, 0.0);  // non-negative constraint holds exactly
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(result.generation, 1u);

  // From scratch: rebuild the same subproblem with no serving caches and run
  // the trainer's full metered update (rho + Cholesky + inverse recomputed).
  Matrix s(rank, rank);
  s.set_all(1.0);
  for (int n = 0; n < snapshot.num_modes(); ++n) {
    if (n == mode) continue;
    Matrix g(rank, rank);
    la::gram(saved.model.factors[static_cast<std::size_t>(n)], g);
    la::hadamard_inplace(s, g);
  }
  for (index_t r = 0; r < rank; ++r) {
    for (index_t c = 0; c < rank; ++c) {
      s(r, c) *= saved.model.lambda[static_cast<std::size_t>(r)] *
                 saved.model.lambda[static_cast<std::size_t>(c)];
    }
  }
  Matrix m(1, rank);
  const auto width = static_cast<std::size_t>(snapshot.num_modes() - 1);
  for (std::size_t j = 0; j < req.values.size(); ++j) {
    const index_t* c = req.coords.data() + j * width;
    for (index_t r = 0; r < rank; ++r) {
      real_t term = req.values[j] * saved.model.lambda[static_cast<std::size_t>(r)];
      std::size_t pos = 0;
      for (int n = 0; n < snapshot.num_modes(); ++n) {
        if (n == mode) continue;
        term *= saved.model.factors[static_cast<std::size_t>(n)](c[pos++], r);
      }
      m(0, r) += term;
    }
  }
  AdmmOptions admm_options;
  admm_options.prox = saved.meta.prox();
  admm_options.tolerance = 0.0;
  AdmmUpdate admm(admm_options);
  simgpu::Device scratch_device(simgpu::a100());
  Matrix h(1, rank);
  ModeState state;
  admm.update(scratch_device, s, m, h, state);
  for (index_t r = 0; r < rank; ++r) {
    EXPECT_NEAR(result.row[static_cast<std::size_t>(r)], h(0, r), 1e-8);
  }
}

TEST(FoldIn, BatchRowsBitIdenticalToSingleRowSolves) {
  // Rank 6: the row-tiled pass runs its 4-column micro-kernel and a ragged
  // scalar column pair. The batch sizes reach the 8-row micro-kernel block,
  // a full 64-row tile, and a second and third tile.
  SavedModel saved = make_saved_model();
  Rng rng(9);
  for (Matrix& f : saved.model.factors) {
    f.resize(f.rows(), 6);
    f.fill_uniform(rng, 0.1, 1.0);
  }
  saved.model.lambda = {2.0, 1.5, 0.5, 1.0, 0.75, 1.25};
  const ServableModel snapshot(std::move(saved), 1);
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);

  const int mode = 2;
  for (std::uint64_t batch : {6, 8, 64, 65, 130}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    std::vector<FoldInRequest> reqs;
    for (std::uint64_t i = 0; i < batch; ++i) {
      reqs.push_back(make_request(snapshot, mode, 100 + i));
    }
    const std::vector<FoldInResult> batched =
        engine.fold_in_batch(snapshot, reqs);
    ASSERT_EQ(batched.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const FoldInResult single = engine.fold_in(snapshot, reqs[i]);
      ASSERT_EQ(batched[i].row.size(), single.row.size());
      for (std::size_t r = 0; r < single.row.size(); ++r) {
        EXPECT_EQ(batched[i].row[r], single.row[r]);  // bit-identical
      }
    }
  }
}

TEST(FoldIn, PerRequestPathMatchesCachedGramPath) {
  const ServableModel snapshot(make_saved_model(), 1);
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine cached(runtime);
  FoldInOptions baseline_options;
  baseline_options.use_cached_gram = false;
  FoldInEngine baseline(runtime, baseline_options);

  const FoldInRequest req = make_request(snapshot, 0, 77);
  const FoldInResult fast = cached.fold_in(snapshot, req);
  const FoldInResult slow = baseline.fold_in(snapshot, req);
  ASSERT_EQ(fast.row.size(), slow.row.size());
  for (std::size_t r = 0; r < fast.row.size(); ++r) {
    EXPECT_NEAR(fast.row[r], slow.row[r], 1e-12);
  }
}

TEST(FoldIn, RejectsMalformedRequests) {
  const ServableModel snapshot(make_saved_model(), 1);
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);

  FoldInRequest bad_mode = make_request(snapshot, 0, 1);
  bad_mode.mode = 3;
  EXPECT_THROW(engine.fold_in(snapshot, bad_mode), Error);

  FoldInRequest bad_coord = make_request(snapshot, 0, 2);
  bad_coord.coords[0] = snapshot.mode_size(1);
  EXPECT_THROW(engine.fold_in(snapshot, bad_coord), Error);

  FoldInRequest empty;
  empty.mode = 0;
  EXPECT_THROW(engine.fold_in(snapshot, empty), Error);

  FoldInRequest mixed_a = make_request(snapshot, 0, 3);
  FoldInRequest mixed_b = make_request(snapshot, 1, 4);
  EXPECT_THROW(engine.fold_in_batch(snapshot, {mixed_a, mixed_b}), Error);
}

// The device program of one fused fold-in of two rows on mode 1 of the
// rank-3 test model: the right-hand-side gather, then (per-request path
// only) the Gram factorization, then ten cuADMM rounds on 2 x 3 rows.
std::vector<FoldInRequest> program_requests(const ServableModel& snapshot) {
  return {make_request(snapshot, 1, 23), make_request(snapshot, 1, 24)};
}

const golden::ExpectedSpan kFoldInRhs = {
    "serve_foldin_rhs", {.flops = 108, .bytes_streamed = 264,
                         .bytes_random = 432, .parallel_items = 2,
                         .launches = 1}};

const golden::AdmmRoundStats kFoldInRound = {
    .auxiliary = {.flops = 18, .bytes_streamed = 192, .parallel_items = 6,
                  .launches = 1},
    .gemm = {.flops = 36, .bytes_streamed = 120, .bytes_reused = 48,
             .working_set_bytes = 48, .parallel_items = 6, .launches = 1},
    .proximity = {.flops = 24, .bytes_streamed = 192, .parallel_items = 6,
                  .launches = 1},
    .dual = {.flops = 48, .bytes_streamed = 192, .parallel_items = 6,
             .launches = 1}};

TEST(FoldInProgram, CachedGramPathIssuesRhsThenTenAdmmRounds) {
  const ServableModel snapshot(make_saved_model(), 1);
  simgpu::Tracer tracer;
  simgpu::Device device(simgpu::a100());
  device.set_tracer(&tracer);
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  engine.fold_in_batch(snapshot, program_requests(snapshot));

  std::vector<golden::ExpectedSpan> program = {kFoldInRhs};
  golden::append_admm_rounds(program, kFoldInRound, 10);
  golden::expect_device_program(tracer, program);
}

TEST(FoldInProgram, PerRequestPathFactorsTheGramBeforeTheAdmmRounds) {
  const ServableModel snapshot(make_saved_model(), 1);
  simgpu::Tracer tracer;
  simgpu::Device device(simgpu::a100());
  device.set_tracer(&tracer);
  ServeRuntime runtime(device, global_pool());
  FoldInOptions options;
  options.use_cached_gram = false;
  FoldInEngine engine(runtime, options);
  engine.fold_in_batch(snapshot, program_requests(snapshot));

  std::vector<golden::ExpectedSpan> program = {
      kFoldInRhs,
      {"dpotrf", {.flops = 9, .bytes_streamed = 144, .serial_depth = 9,
                  .parallel_items = 3, .launches = 1}},
      {"dpotri", {.flops = 54, .bytes_streamed = 144, .serial_depth = 18,
                  .parallel_items = 3, .launches = 1}}};
  golden::append_admm_rounds(program, kFoldInRound, 10);
  golden::expect_device_program(tracer, program);
}

TEST(FoldInBatcher, ManualFlushIsDeterministic) {
  ModelStore store;
  store.publish(make_saved_model());
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher::Options options;
  options.background = false;
  FoldInBatcher batcher(engine, store, "test-model", options);

  const int mode = 1;
  std::vector<FoldInRequest> reqs;
  std::vector<std::future<FoldInResult>> futures;
  for (std::uint64_t i = 0; i < 6; ++i) {
    reqs.push_back(make_request(*store.get("test-model"), mode, 300 + i));
    futures.push_back(batcher.submit(reqs.back()));
  }
  // Nothing runs until flush in manual mode.
  EXPECT_EQ(futures.front().wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(batcher.flush(), 6u);
  EXPECT_EQ(batcher.batch_sizes().batches(), 1);
  EXPECT_EQ(batcher.batch_sizes().requests(), 6);
  EXPECT_DOUBLE_EQ(batcher.batch_sizes().mean_batch_size(), 6.0);

  // Batched-through-the-batcher equals a direct engine solve, bit for bit.
  FoldInEngine direct(runtime);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const FoldInResult via_batcher = futures[i].get();
    const FoldInResult expected =
        direct.fold_in(*store.get("test-model"), reqs[i]);
    EXPECT_EQ(via_batcher.row, expected.row);
  }
  EXPECT_EQ(batcher.latency().count(), 6);
}

TEST(FoldInBatcher, BackgroundCollectorServesSubmissions) {
  ModelStore store;
  store.publish(make_saved_model());
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher batcher(engine, store, "test-model");

  std::vector<std::future<FoldInResult>> futures;
  for (std::uint64_t i = 0; i < 8; ++i) {
    futures.push_back(
        batcher.submit(make_request(*store.get("test-model"), 0, 400 + i)));
  }
  for (auto& f : futures) {
    const FoldInResult result = f.get();
    for (real_t v : result.row) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(batcher.batch_sizes().requests(), 8);
}

TEST(FoldInBatcher, FailsRequestsWhenModelMissing) {
  ModelStore store;  // deliberately empty
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher::Options options;
  options.background = false;
  FoldInBatcher batcher(engine, store, "absent", options);

  SavedModel shape_donor = make_saved_model();
  const ServableModel shape(shape_donor, 1);
  std::future<FoldInResult> future =
      batcher.submit(make_request(shape, 0, 9));
  EXPECT_EQ(batcher.flush(), 0u);
  EXPECT_THROW(future.get(), Error);
}

TEST(FoldInBatcher, StopFailsQueuedRequests) {
  ModelStore store;
  store.publish(make_saved_model());
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher::Options options;
  options.background = false;
  FoldInBatcher batcher(engine, store, "test-model", options);
  std::future<FoldInResult> future =
      batcher.submit(make_request(*store.get("test-model"), 0, 1));
  batcher.stop();
  EXPECT_THROW(future.get(), Error);
  EXPECT_THROW(batcher.submit(make_request(*store.get("test-model"), 0, 2)),
               Error);
}

TEST(FoldInBatcher, ShedsWhenAdmissionQueueIsFull) {
  ModelStore store;
  store.publish(make_saved_model());
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher::Options options;
  options.background = false;
  options.max_queue = 2;
  FoldInBatcher batcher(engine, store, "test-model", options);

  const ServableModelPtr model = store.get("test-model");
  std::future<FoldInResult> a = batcher.submit(make_request(*model, 0, 1));
  std::future<FoldInResult> b = batcher.submit(make_request(*model, 0, 2));
  std::future<FoldInResult> c = batcher.submit(make_request(*model, 0, 3));

  EXPECT_THROW(c.get(), ShedError);  // over the bound: shed at admission
  EXPECT_EQ(batcher.flush(), 2u);    // the queue itself was protected
  EXPECT_NO_THROW(a.get());
  EXPECT_NO_THROW(b.get());

  const ReliabilitySnapshot rel = batcher.reliability().snapshot();
  EXPECT_EQ(rel.submitted, 3);
  EXPECT_EQ(rel.shed, 1);
  EXPECT_EQ(rel.served, 2);
  EXPECT_EQ(rel.failed, 0);
}

TEST(FoldInBatcher, ExpiredDeadlineFailsWithDeadlineError) {
  ModelStore store;
  store.publish(make_saved_model());
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher::Options options;
  options.background = false;
  FoldInBatcher batcher(engine, store, "test-model", options);

  const ServableModelPtr model = store.get("test-model");
  FoldInRequest rushed = make_request(*model, 0, 1);
  rushed.timeout_s = 1e-6;
  std::future<FoldInResult> doomed = batcher.submit(std::move(rushed));
  std::future<FoldInResult> patient =
      batcher.submit(make_request(*model, 0, 2));  // no deadline

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(batcher.flush(), 1u);
  EXPECT_THROW(doomed.get(), DeadlineError);
  EXPECT_NO_THROW(patient.get());
  EXPECT_EQ(batcher.reliability().snapshot().timed_out, 1);
}

TEST(FoldInBatcher, TransientFaultIsRetriedInvisibly) {
  ModelStore store;
  store.publish(make_saved_model());
  simgpu::Device device(simgpu::a100());
  simgpu::FaultPlan plan("launch:k=1");
  device.set_fault_plan(&plan);
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher::Options options;
  options.background = false;
  options.retry_backoff_s = 0.0;
  FoldInBatcher batcher(engine, store, "test-model", options);

  const ServableModelPtr model = store.get("test-model");
  std::future<FoldInResult> a = batcher.submit(make_request(*model, 0, 1));
  std::future<FoldInResult> b = batcher.submit(make_request(*model, 0, 2));
  EXPECT_EQ(batcher.flush(), 2u);
  for (real_t v : a.get().row) EXPECT_TRUE(std::isfinite(v));
  for (real_t v : b.get().row) EXPECT_TRUE(std::isfinite(v));

  const ReliabilitySnapshot rel = batcher.reliability().snapshot();
  EXPECT_EQ(plan.injected(), 1);
  EXPECT_EQ(rel.retries, 1);
  EXPECT_EQ(rel.failed, 0);
  EXPECT_EQ(rel.served, 2);
}

TEST(FoldInBatcher, RetryBackoffStaysDefinedPastThirtyOneRetries) {
  // Every launch faults, so the request exhausts all 40 retries; the
  // backoff of attempts 31..39 must stay a finite, capped sleep.
  ModelStore store;
  store.publish(make_saved_model());
  simgpu::Device device(simgpu::a100());
  simgpu::FaultPlan plan("launch:p=1");
  device.set_fault_plan(&plan);
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher::Options options;
  options.background = false;
  options.max_retries = 40;
  options.retry_backoff_s = 1e-12;
  options.degraded_fallback = false;
  FoldInBatcher batcher(engine, store, "test-model", options);

  std::future<FoldInResult> doomed =
      batcher.submit(make_request(*store.get("test-model"), 0, 1));
  EXPECT_EQ(batcher.flush(), 0u);
  EXPECT_THROW(doomed.get(), simgpu::FaultError);
  const ReliabilitySnapshot rel = batcher.reliability().snapshot();
  EXPECT_EQ(rel.retries, 40);
  EXPECT_EQ(rel.failed, 1);
}

TEST(RetryBackoff, DoublesPerAttemptUpToTheCap) {
  EXPECT_EQ(retry_backoff_s(0.5, 0), 0.5);
  EXPECT_EQ(retry_backoff_s(0.5, 3), 4.0);
  const double capped = retry_backoff_s(1.0, kMaxBackoffDoublings);
  EXPECT_EQ(capped, 65536.0);
  EXPECT_EQ(retry_backoff_s(1.0, 31), capped);
  EXPECT_EQ(retry_backoff_s(1.0, 40), capped);
  EXPECT_EQ(retry_backoff_s(0.0, 40), 0.0);
}

TEST(FoldInBatcher, FatalFaultIsolatesRequestsInsteadOfFailingBatch) {
  ModelStore store;
  store.publish(make_saved_model());
  simgpu::Device device(simgpu::a100());
  // Fatal: the retry loop must NOT absorb it; the fused solve dies and the
  // batcher falls back to per-request isolation (the arm is spent by then).
  simgpu::FaultPlan plan("launch:k=1,fatal=1");
  device.set_fault_plan(&plan);
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher::Options options;
  options.background = false;
  options.retry_backoff_s = 0.0;
  FoldInBatcher batcher(engine, store, "test-model", options);

  const ServableModelPtr model = store.get("test-model");
  std::future<FoldInResult> a = batcher.submit(make_request(*model, 0, 1));
  std::future<FoldInResult> b = batcher.submit(make_request(*model, 0, 2));
  EXPECT_EQ(batcher.flush(), 2u);
  EXPECT_NO_THROW(a.get());
  EXPECT_NO_THROW(b.get());

  const ReliabilitySnapshot rel = batcher.reliability().snapshot();
  EXPECT_EQ(rel.retries, 0);  // fatal faults are never retried
  EXPECT_EQ(rel.degraded, 2);
  EXPECT_EQ(rel.failed, 0);
}

TEST(FoldInBatcher, ServesFromLastGoodSnapshotWhenModelVanishes) {
  ModelStore store;
  const ServableModelPtr published = store.publish(make_saved_model());
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher::Options options;
  options.background = false;
  FoldInBatcher batcher(engine, store, "test-model", options);

  // One successful batch caches the snapshot.
  std::future<FoldInResult> warm =
      batcher.submit(make_request(*published, 0, 1));
  ASSERT_EQ(batcher.flush(), 1u);
  warm.get();

  // The model vanishes (unpublish / botched hot-swap): degraded mode keeps
  // serving against the cached generation instead of failing the batch.
  ASSERT_TRUE(store.erase("test-model"));
  std::future<FoldInResult> stale =
      batcher.submit(make_request(*published, 0, 2));
  EXPECT_EQ(batcher.flush(), 1u);
  const FoldInResult result = stale.get();
  EXPECT_EQ(result.generation, published->generation());
  EXPECT_EQ(batcher.reliability().snapshot().degraded, 1);
}

TEST(FoldInBatcher, DegradedFallbackCanBeDisabled) {
  ModelStore store;
  const ServableModelPtr published = store.publish(make_saved_model());
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  FoldInEngine engine(runtime);
  FoldInBatcher::Options options;
  options.background = false;
  options.degraded_fallback = false;
  FoldInBatcher batcher(engine, store, "test-model", options);

  std::future<FoldInResult> warm =
      batcher.submit(make_request(*published, 0, 1));
  ASSERT_EQ(batcher.flush(), 1u);
  warm.get();

  ASSERT_TRUE(store.erase("test-model"));
  std::future<FoldInResult> strict =
      batcher.submit(make_request(*published, 0, 2));
  EXPECT_EQ(batcher.flush(), 0u);
  EXPECT_THROW(strict.get(), Error);
  EXPECT_EQ(batcher.reliability().snapshot().failed, 1);
}

TEST(ModelStore, HotSwapUnderConcurrentServingLoad) {
  ModelStore store;
  store.publish(make_saved_model(1));
  simgpu::Device device(simgpu::a100());
  ServeRuntime runtime(device, global_pool());
  QueryEngine queries(runtime);
  FoldInEngine fold_ins(runtime);

  constexpr int kSwaps = 12;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> max_seen_generation{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 900);
      std::uint64_t last_generation = 0;
      while (!done.load(std::memory_order_relaxed)) {
        ServableModelPtr snapshot = store.get("test-model");
        if (snapshot == nullptr) { failures.fetch_add(1); return; }
        // Generations must be monotone per thread: a swap never goes back.
        if (snapshot->generation() < last_generation) failures.fetch_add(1);
        last_generation = snapshot->generation();
        try {
          if (t % 2 == 0) {
            std::vector<index_t> coords;
            for (int m = 0; m < snapshot->num_modes(); ++m) {
              coords.push_back(static_cast<index_t>(rng.uniform_index(
                  static_cast<std::uint64_t>(snapshot->mode_size(m)))));
            }
            for (real_t v : queries.predict(*snapshot, coords)) {
              if (!std::isfinite(v)) failures.fetch_add(1);
            }
          } else {
            const FoldInResult result = fold_ins.fold_in(
                *snapshot, make_request(*snapshot, 0, rng()));
            if (result.generation != snapshot->generation()) {
              failures.fetch_add(1);
            }
          }
        } catch (const Error&) {
          failures.fetch_add(1);
        }
        std::uint64_t seen = max_seen_generation.load();
        while (last_generation > seen &&
               !max_seen_generation.compare_exchange_weak(seen,
                                                          last_generation)) {
        }
      }
    });
  }

  for (int swap = 0; swap < kSwaps; ++swap) {
    store.publish(make_saved_model(static_cast<std::uint64_t>(swap) + 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true);
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.generation(), static_cast<std::uint64_t>(kSwaps) + 1);
  // The workers actually observed swapped-in snapshots, not just the first.
  EXPECT_GT(max_seen_generation.load(), 1u);
}

TEST(ServeStats, LatencyQuantilesAreNearestRank) {
  LatencyRecorder recorder;
  for (int i = 100; i >= 1; --i) {  // insertion order must not matter
    recorder.record(static_cast<double>(i) * 1e-3);
  }
  const LatencySummary s = recorder.summary();
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.p50_s, 0.050);
  EXPECT_DOUBLE_EQ(s.p95_s, 0.095);
  EXPECT_DOUBLE_EQ(s.p99_s, 0.099);
  EXPECT_DOUBLE_EQ(s.max_s, 0.100);
  EXPECT_NEAR(s.mean_s, 0.0505, 1e-12);
  EXPECT_DOUBLE_EQ(recorder.quantile(1.0), 0.100);
  recorder.clear();
  EXPECT_EQ(recorder.count(), 0);
  EXPECT_EQ(recorder.summary().count, 0);
}

TEST(ServeStats, BatchSizeRecorderAggregates) {
  BatchSizeRecorder recorder;
  recorder.record(2);
  recorder.record(4);
  recorder.record(4);
  EXPECT_EQ(recorder.batches(), 3);
  EXPECT_EQ(recorder.requests(), 10);
  EXPECT_NEAR(recorder.mean_batch_size(), 10.0 / 3.0, 1e-12);
  const auto histogram = recorder.histogram();
  EXPECT_EQ(histogram.at(2), 1);
  EXPECT_EQ(histogram.at(4), 2);
  recorder.clear();
  EXPECT_EQ(recorder.batches(), 0);
  EXPECT_EQ(recorder.mean_batch_size(), 0.0);
}

}  // namespace
}  // namespace cstf::serve
