// Tests for the streaming cSTF extension.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "cstf/metrics.hpp"
#include "device_program.hpp"
#include "parallel/parallel_for.hpp"
#include "simgpu/fault.hpp"
#include "streaming/streaming_cstf.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

// Builds a fully observed (space x item x time) tensor from planted
// non-negative factors, then returns it alongside its per-time slices.
struct StreamScenario {
  SparseTensor full;                 // 3-mode, time last
  std::vector<SparseTensor> slices;  // one 2-mode tensor per time step
};

StreamScenario make_scenario(index_t dim0, index_t dim1, index_t steps,
                             index_t rank, std::uint64_t seed,
                             real_t noise = 0.01) {
  LowRankTensorParams params;
  params.dims = {dim0, dim1, steps};
  params.rank = rank;
  params.target_nnz = dim0 * dim1 * steps;  // fully observed
  params.noise = noise;
  params.seed = seed;
  LowRankTensor lr = generate_low_rank(params);

  StreamScenario scenario;
  scenario.slices.assign(static_cast<std::size_t>(steps),
                         SparseTensor({dim0, dim1}));
  for (index_t i = 0; i < lr.tensor.nnz(); ++i) {
    const index_t t = lr.tensor.indices(2)[static_cast<std::size_t>(i)];
    const index_t coords[2] = {
        lr.tensor.indices(0)[static_cast<std::size_t>(i)],
        lr.tensor.indices(1)[static_cast<std::size_t>(i)]};
    scenario.slices[static_cast<std::size_t>(t)].append(
        coords, lr.tensor.values()[static_cast<std::size_t>(i)]);
  }
  scenario.full = std::move(lr.tensor);
  return scenario;
}

TEST(Streaming, TracksSliceCountAndTemporalShape) {
  StreamScenario scenario = make_scenario(12, 10, 6, 2, 1);
  StreamingOptions opt;
  opt.rank = 3;
  StreamingCstf stream({12, 10}, opt);
  EXPECT_EQ(stream.num_slices(), 0);
  for (const auto& slice : scenario.slices) {
    const auto row = stream.ingest(slice);
    EXPECT_EQ(row.size(), 3u);
  }
  EXPECT_EQ(stream.num_slices(), 6);
  const Matrix t = stream.temporal();
  EXPECT_EQ(t.rows(), 6);
  EXPECT_EQ(t.cols(), 3);
}

TEST(Streaming, FactorsStayNonNegative) {
  StreamScenario scenario = make_scenario(15, 12, 5, 2, 2);
  StreamingOptions opt;
  opt.rank = 3;
  StreamingCstf stream({15, 12}, opt);
  for (const auto& slice : scenario.slices) stream.ingest(slice);
  for (const auto& f : stream.factors()) {
    EXPECT_TRUE(Proximity::non_negative().is_feasible(f, 1e-9));
  }
  const Matrix t = stream.temporal();
  EXPECT_TRUE(Proximity::non_negative().is_feasible(t, 1e-9));
}

TEST(Streaming, ConvergesToGoodFitOnStationaryData) {
  // Repeat the stream a few epochs (standard warm-up for streaming CP with
  // random initialization); with mu = 1 the accumulators approach the batch
  // normal equations, so the fit over the final epoch must be high.
  StreamScenario scenario = make_scenario(20, 16, 8, 3, 3);
  StreamingOptions opt;
  opt.rank = 5;
  opt.forgetting = 1.0;
  StreamingCstf stream({20, 16}, opt);
  real_t final_epoch_residual = 0.0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    final_epoch_residual = 0.0;
    for (const auto& slice : scenario.slices) {
      stream.ingest(slice);
      final_epoch_residual += stream.last_slice_residual();
    }
    final_epoch_residual /= static_cast<real_t>(scenario.slices.size());
  }
  // Relative per-slice residual well below 1 (one = predicting zeros).
  EXPECT_LT(final_epoch_residual, 0.35);
}

TEST(Streaming, ResidualSpikesOnAnomalousSlice) {
  StreamScenario scenario = make_scenario(18, 14, 10, 2, 4);
  StreamingOptions opt;
  opt.rank = 4;
  StreamingCstf stream({18, 14}, opt);
  // Warm up on the normal stream.
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (const auto& slice : scenario.slices) stream.ingest(slice);
  }
  // Baseline residual for a normal slice.
  stream.ingest(scenario.slices[0]);
  const real_t normal_residual = stream.last_slice_residual();
  // Inject an anomalous slice: large spikes at random cells. (A *uniform*
  // burst would be near rank-1 and thus easy for the model to absorb; the
  // anomaly must be unstructured to be unfittable.)
  SparseTensor burst({18, 14});
  Rng rng(5);
  index_t coords[2];
  for (int k = 0; k < 40; ++k) {
    coords[0] = static_cast<index_t>(rng.uniform_index(18));
    coords[1] = static_cast<index_t>(rng.uniform_index(14));
    burst.append(coords, rng.uniform(20.0, 30.0));
  }
  burst.sort_by_mode(0);
  burst.dedup_sum();
  stream.ingest(burst);
  EXPECT_GT(stream.last_slice_residual(), 2.0 * normal_residual);
}

TEST(Streaming, ForgettingTracksRegimeChange) {
  // Two regimes with disjoint structure; after the switch, a forgetful model
  // must fit new slices better than a never-forgetting one.
  StreamScenario regime_a = make_scenario(16, 12, 6, 2, 6);
  StreamScenario regime_b = make_scenario(16, 12, 6, 2, 7);

  auto final_residual = [&](real_t mu) {
    StreamingOptions opt;
    opt.rank = 4;
    opt.forgetting = mu;
    StreamingCstf stream({16, 12}, opt);
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (const auto& slice : regime_a.slices) stream.ingest(slice);
    }
    real_t residual = 0.0;
    for (int epoch = 0; epoch < 3; ++epoch) {
      residual = 0.0;
      for (const auto& slice : regime_b.slices) {
        stream.ingest(slice);
        residual += stream.last_slice_residual();
      }
      residual /= static_cast<real_t>(regime_b.slices.size());
    }
    return residual;
  };

  EXPECT_LT(final_residual(0.5), final_residual(1.0) + 0.05);
}

TEST(Streaming, KtensorIncludesTemporalMode) {
  StreamScenario scenario = make_scenario(10, 8, 4, 2, 8);
  StreamingOptions opt;
  opt.rank = 2;
  StreamingCstf stream({10, 8}, opt);
  for (const auto& slice : scenario.slices) stream.ingest(slice);
  const KTensor kt = stream.ktensor();
  ASSERT_EQ(kt.num_modes(), 3);
  EXPECT_EQ(kt.factors[2].rows(), 4);
  EXPECT_TRUE(std::isfinite(kt.fit_to(scenario.full)));
}

// `count` random slices of `dims`, nonzero counts drawn from `nnz_choices`
// in order (duplicates summed, so a slice may hold slightly fewer).
std::vector<SparseTensor> random_slices(index_t dim0, index_t dim1,
                                        std::vector<index_t> nnz_choices,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SparseTensor> slices;
  index_t coords[2];
  for (index_t nnz : nnz_choices) {
    SparseTensor slice({dim0, dim1});
    for (index_t k = 0; k < nnz; ++k) {
      coords[0] = static_cast<index_t>(rng.uniform_index(dim0));
      coords[1] = static_cast<index_t>(rng.uniform_index(dim1));
      slice.append(coords, rng.uniform(0.5, 2.0));
    }
    slice.sort_by_mode(0);
    slice.dedup_sum();
    slices.push_back(std::move(slice));
  }
  return slices;
}

// The serial weighted slice MTTKRP: each nonzero's product x * s .* prod
// H^k(i_k, :), formed in mode order, added into its output row in nonzero
// order.
void slice_mttkrp_oracle(const SparseTensor& slice,
                         const std::vector<Matrix>& factors,
                         const real_t* s_row, int mode, Matrix& out) {
  const index_t rank = out.cols();
  out.set_all(0.0);
  std::vector<real_t> row(static_cast<std::size_t>(rank));
  for (index_t i = 0; i < slice.nnz(); ++i) {
    const real_t v = slice.values()[static_cast<std::size_t>(i)];
    for (index_t r = 0; r < rank; ++r) {
      row[static_cast<std::size_t>(r)] = v * s_row[r];
    }
    for (int m = 0; m < slice.num_modes(); ++m) {
      if (m == mode) continue;
      const Matrix& f = factors[static_cast<std::size_t>(m)];
      const index_t idx = slice.indices(m)[static_cast<std::size_t>(i)];
      for (index_t r = 0; r < rank; ++r) {
        row[static_cast<std::size_t>(r)] *= f(idx, r);
      }
    }
    const index_t out_row = slice.indices(mode)[static_cast<std::size_t>(i)];
    for (index_t r = 0; r < rank; ++r) {
      out(out_row, r) += row[static_cast<std::size_t>(r)];
    }
  }
}

TEST(Streaming, SliceMttkrpMatchesSerialOracleBitwise) {
  // Slices with different nonzero counts and patterns, each planned afresh.
  // The large ones sit above the parallel grain, where a tiled (privatized)
  // accumulation would regroup the per-row sums by a worker-count-dependent
  // tile count.
  const auto expect_matches_oracle =
      [](index_t dim0, index_t dim1, const std::vector<SparseTensor>& slices) {
        constexpr index_t kRank = 3;
        Rng rng(dim0 * 1000 + dim1);
        std::vector<Matrix> factors;
        for (index_t dim : {dim0, dim1}) {
          Matrix f(dim, kRank);
          f.fill_uniform(rng, 0.0, 1.0);
          factors.push_back(std::move(f));
        }
        const real_t s_row[kRank] = {0.7, 0.2, 1.3};
        for (std::size_t t = 0; t < slices.size(); ++t) {
          for (int mode = 0; mode < 2; ++mode) {
            const index_t rows = slices[t].dim(mode);
            Matrix got(rows, kRank);
            Matrix want(rows, kRank);
            slice_mttkrp(slices[t], factors, s_row, mode, got);
            slice_mttkrp_oracle(slices[t], factors, s_row, mode, want);
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  static_cast<std::size_t>(got.size()) *
                                      sizeof(real_t)),
                      0)
                << "slice " << t << " mode " << mode;
          }
        }
      };
  expect_matches_oracle(8, 6, random_slices(8, 6, {20, 17, 11, 26}, 17));
  const std::vector<SparseTensor> large =
      random_slices(300, 200, {5000, 7000, 6000}, 29);
  for (const SparseTensor& slice : large) {
    ASSERT_GT(slice.nnz(), kParallelGrainDefault);
  }
  expect_matches_oracle(300, 200, large);
}

TEST(StreamingProgram, EachSliceProjectsSolvesTimeThenUpdatesEveryMode) {
  // Two rank-2 slices of a 4 x 3 stream. Per slice: the temporal projection,
  // the temporal row's converged ADMM solve (tolerance-driven, so its round
  // count is part of the program), then per mode the weighted slice MTTKRP
  // and a ten-round factor update, in that order.
  StreamingOptions opt;
  opt.rank = 2;
  simgpu::Tracer tracer;
  StreamingCstf stream({4, 3}, opt);
  stream.device().set_tracer(&tracer);
  const std::vector<SparseTensor> slices = random_slices(4, 3, {5, 8}, 31);
  ASSERT_EQ(slices[0].nnz(), 4);
  ASSERT_EQ(slices[1].nnz(), 5);
  for (const SparseTensor& slice : slices) stream.ingest(slice);

  const golden::AdmmRoundStats round_1x2 = {
      .auxiliary = {.flops = 6, .bytes_streamed = 64, .parallel_items = 2,
                    .launches = 1},
      .gemm = {.flops = 8, .bytes_streamed = 48, .bytes_reused = 16,
               .working_set_bytes = 16, .parallel_items = 2, .launches = 1},
      .proximity = {.flops = 8, .bytes_streamed = 64, .parallel_items = 2,
                    .launches = 1},
      .dual = {.flops = 16, .bytes_streamed = 64, .parallel_items = 2,
               .launches = 1}};
  const golden::AdmmRoundStats round_4x2 = {
      .auxiliary = {.flops = 24, .bytes_streamed = 256, .parallel_items = 8,
                    .launches = 1},
      .gemm = {.flops = 32, .bytes_streamed = 128, .bytes_reused = 32,
               .working_set_bytes = 32, .parallel_items = 8, .launches = 1},
      .proximity = {.flops = 32, .bytes_streamed = 256, .parallel_items = 8,
                    .launches = 1},
      .dual = {.flops = 64, .bytes_streamed = 256, .parallel_items = 8,
               .launches = 1}};
  const golden::AdmmRoundStats round_3x2 = {
      .auxiliary = {.flops = 18, .bytes_streamed = 192, .parallel_items = 6,
                    .launches = 1},
      .gemm = {.flops = 24, .bytes_streamed = 96, .bytes_reused = 32,
               .working_set_bytes = 32, .parallel_items = 6, .launches = 1},
      .proximity = {.flops = 24, .bytes_streamed = 192, .parallel_items = 6,
                    .launches = 1},
      .dual = {.flops = 48, .bytes_streamed = 192, .parallel_items = 6,
               .launches = 1}};
  const golden::ExpectedSpan factor = {
      "dpotrf", {.flops = 8.0 / 3.0, .bytes_streamed = 64, .serial_depth = 4,
                 .parallel_items = 2, .launches = 1}};
  const golden::ExpectedSpan invert = {
      "dpotri", {.flops = 16, .bytes_streamed = 64, .serial_depth = 8,
                 .parallel_items = 2, .launches = 1}};

  std::vector<golden::ExpectedSpan> program;
  const auto append_slice = [&](double nnz, int temporal_rounds) {
    program.push_back({"stream_slice_project",
                       {.flops = 6 * nnz, .bytes_streamed = 24 * nnz,
                        .bytes_random = 32 * nnz, .parallel_items = nnz}});
    program.push_back(factor);
    program.push_back(invert);
    golden::append_admm_rounds(program, round_1x2, temporal_rounds);
    for (const golden::AdmmRoundStats& round : {round_4x2, round_3x2}) {
      program.push_back({"stream_slice_mttkrp",
                         {.flops = 8 * nnz, .bytes_random = 48 * nnz,
                          .parallel_items = nnz}});
      program.push_back(factor);
      program.push_back(invert);
      golden::append_admm_rounds(program, round, 10);
    }
  };
  append_slice(4, 22);
  append_slice(5, 64);
  golden::expect_device_program(tracer, program);
}

TEST(Streaming, IngestFaultPoisonsTheStream) {
  // A fault mid-ingest can leave the aged accumulators with a half-applied
  // slice; the stream must refuse further ingests instead of diverging.
  StreamScenario scenario = make_scenario(10, 8, 3, 2, 21);
  StreamingOptions opt;
  opt.rank = 2;
  StreamingCstf stream({10, 8}, opt);
  stream.ingest(scenario.slices[0]);  // healthy warm-up ingest

  simgpu::FaultPlan plan("launch:k=1,fatal=1");
  stream.device().set_fault_plan(&plan);
  EXPECT_THROW(stream.ingest(scenario.slices[1]), simgpu::FaultError);
  EXPECT_EQ(stream.num_slices(), 1);  // the failed slice was not appended

  // Even with the faults gone, the instance stays poisoned.
  stream.device().set_fault_plan(nullptr);
  EXPECT_THROW(stream.ingest(scenario.slices[2]), Error);
}

TEST(Streaming, MismatchedSliceRejected) {
  StreamingOptions opt;
  opt.rank = 2;
  StreamingCstf stream({10, 8}, opt);
  SparseTensor bad_modes({10, 8, 3});
  bad_modes.append({0, 0, 0}, 1.0);
  EXPECT_THROW(stream.ingest(bad_modes), Error);
  SparseTensor bad_dim({10, 9});
  bad_dim.append({0, 0}, 1.0);
  EXPECT_THROW(stream.ingest(bad_dim), Error);
}

}  // namespace
}  // namespace cstf
