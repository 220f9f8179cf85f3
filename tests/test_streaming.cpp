// Tests for the streaming cSTF extension.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "cstf/metrics.hpp"
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

TEST(Streaming, ModelStagingIsBitIdenticalAndOverlapBounded) {
  // model_staging only adds copy-stream spans to the time model: the
  // factorization itself is unchanged, and the double-buffered makespan
  // never exceeds the serial copy-then-compute sum.
  StreamScenario scenario = make_scenario(14, 11, 6, 2, 8);
  StreamingOptions opt;
  opt.rank = 3;
  StreamingCstf plain({14, 11}, opt);
  opt.model_staging = true;
  StreamingCstf staged({14, 11}, opt);
  for (const auto& slice : scenario.slices) {
    const auto a = plain.ingest(slice);
    const auto b = staged.ingest(slice);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) EXPECT_DOUBLE_EQ(a[r], b[r]);
  }
  for (std::size_t m = 0; m < plain.factors().size(); ++m) {
    EXPECT_DOUBLE_EQ(max_abs_diff(plain.factors()[m], staged.factors()[m]),
                     0.0);
  }
  EXPECT_FALSE(plain.device().timeline().concurrent());
  EXPECT_TRUE(staged.device().timeline().concurrent());
  EXPECT_GT(staged.device().per_kernel().count("stream_stage_slice"), 0u);
  EXPECT_LE(staged.device().modeled_time_s(),
            staged.device().serial_modeled_time_s() * (1.0 + 1e-9));
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

TEST(Streaming, ScatterEngineIsBitIdenticalToReferenceAcrossChangingSlices) {
  // Default options (scatter engine on) against the serial reference loop.
  // Small slices with DIFFERENT nonzero counts and patterns: a plan cached
  // from slice t would permute the wrong nonzeros of slice t+1 (or trip the
  // engine's size check), so this also regression-tests the per-ingest
  // plan-cache invalidation. Large slices sit above the parallel grain,
  // where a tiled (privatized) accumulation would regroup the per-row sums
  // by a worker-count-dependent tile count.
  const auto expect_engine_matches_reference =
      [](index_t dim0, index_t dim1, const std::vector<SparseTensor>& slices) {
        StreamingOptions engine_opt;
        engine_opt.rank = 3;
        ASSERT_TRUE(engine_opt.use_scatter_engine);
        StreamingCstf engine({dim0, dim1}, engine_opt);

        StreamingOptions reference_opt = engine_opt;
        reference_opt.use_scatter_engine = false;
        StreamingCstf reference({dim0, dim1}, reference_opt);

        for (const auto& slice : slices) {
          const auto a = reference.ingest(slice);
          const auto b = engine.ingest(slice);
          ASSERT_EQ(a.size(), b.size());
          for (std::size_t r = 0; r < a.size(); ++r) {
            EXPECT_EQ(a[r], b[r]) << "temporal row component " << r;
          }
        }
        for (std::size_t m = 0; m < reference.factors().size(); ++m) {
          const Matrix& fa = reference.factors()[m];
          const Matrix& fb = engine.factors()[m];
          ASSERT_EQ(fa.rows(), fb.rows());
          ASSERT_EQ(fa.cols(), fb.cols());
          EXPECT_EQ(std::memcmp(fa.data(), fb.data(),
                                static_cast<std::size_t>(fa.size()) *
                                    sizeof(real_t)),
                    0)
              << "mode " << m << " factors differ bitwise";
        }
        EXPECT_GT(engine.device().per_kernel().count("stream_slice_mttkrp"),
                  0u);
      };
  expect_engine_matches_reference(8, 6,
                                  random_slices(8, 6, {20, 17, 11, 26}, 17));
  const std::vector<SparseTensor> large =
      random_slices(300, 200, {5000, 7000, 6000}, 29);
  for (const SparseTensor& slice : large) {
    ASSERT_GT(slice.nnz(), kParallelGrainDefault);
  }
  expect_engine_matches_reference(300, 200, large);
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
