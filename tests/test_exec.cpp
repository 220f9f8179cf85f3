// Execution-graph layer tests: OpGraph/Plan validation and analysis, the
// Executor's stream/event realization against hand-rolled choreography,
// plan-cache invalidation on the trainer path, and the stability of the
// persisted options digests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/digest.hpp"
#include "common/random.hpp"
#include "cstf/checkpoint.hpp"
#include "cstf/framework.hpp"
#include "exec/executor.hpp"
#include "exec/op_graph.hpp"
#include "exec/planner.hpp"
#include "serve/model_io.hpp"
#include "simgpu/device.hpp"
#include "tensor/coo.hpp"

namespace cstf {
namespace {

using exec::ExecContext;
using exec::Op;
using exec::OpGraph;
using exec::OpKind;
using exec::Plan;
using exec::PlanCache;
using exec::PlanKey;

void noop(ExecContext&) {}

Op make_op(const std::string& name, int lane, std::vector<int> deps) {
  Op op;
  op.name = name;
  op.lane = lane;
  op.deps = std::move(deps);
  op.run = noop;
  return op;
}

SparseTensor small_tensor(std::uint64_t seed = 7, index_t nnz = 60) {
  SparseTensor t({12, 10, 8});
  Rng rng(seed);
  for (index_t i = 0; i < nnz; ++i) {
    const index_t coords[3] = {
        static_cast<index_t>(rng.uniform_index(12)),
        static_cast<index_t>(rng.uniform_index(10)),
        static_cast<index_t>(rng.uniform_index(8))};
    t.append(coords, static_cast<real_t>(rng.uniform(0.1, 1.0)));
  }
  return t;
}

// ---------------------------------------------------------------------------
// OpGraph / Plan structural analysis.

TEST(OpGraph, RejectsForwardDepsBadBuffersAndBodylessOps) {
  OpGraph g;
  const int buf = g.add_buffer("b", 64.0);

  EXPECT_THROW(g.add_op(make_op("forward_dep", 0, {0})), Error);
  {
    Op op = make_op("bad_buffer", 0, {});
    op.reads = {buf + 1};
    EXPECT_THROW(g.add_op(std::move(op)), Error);
  }
  {
    Op op = make_op("no_body", 0, {});
    op.run = nullptr;
    EXPECT_THROW(g.add_op(std::move(op)), Error);
  }
  // A checkpoint barrier is a structural marker: no body required.
  {
    Op op = make_op("barrier", 0, {});
    op.kind = OpKind::kCheckpointBarrier;
    op.run = nullptr;
    EXPECT_EQ(g.add_op(std::move(op)), 0);
  }
  // Fixed-duration spans need no body either.
  {
    Op op = make_op("fixed", 0, {});
    op.run = nullptr;
    op.fixed_s = 0.5;
    EXPECT_EQ(g.add_op(std::move(op)), 1);
  }
}

TEST(Plan, DerivesLifetimesPeakAndEventNeeds) {
  OpGraph g;
  const int a = g.add_buffer("a", 100.0);
  const int b = g.add_buffer("b", 60.0);
  const int unused = g.add_buffer("unused", 1000.0);
  (void)unused;

  {
    Op op = make_op("produce_a", 0, {});
    op.writes = {a};
    g.add_op(std::move(op));
  }
  {
    Op op = make_op("side_lane", 1, {0});  // cross-lane dependent of op 0
    op.reads = {a};
    op.writes = {b};
    g.add_op(std::move(op));
  }
  {
    Op op = make_op("consume", 0, {1});
    op.reads = {b};
    g.add_op(std::move(op));
  }

  const Plan plan(std::move(g), {"default", "side"});
  ASSERT_EQ(plan.lifetimes().size(), 3u);
  EXPECT_EQ(plan.lifetimes()[0].first_use, 0);
  EXPECT_EQ(plan.lifetimes()[0].last_use, 1);
  EXPECT_EQ(plan.lifetimes()[1].first_use, 1);
  EXPECT_EQ(plan.lifetimes()[1].last_use, 2);
  EXPECT_EQ(plan.lifetimes()[2].first_use, -1);  // never touched

  // a and b are both live at op 1: peak is their sum (the unused buffer does
  // not contribute).
  EXPECT_DOUBLE_EQ(plan.peak_bytes(), 160.0);

  // Op 0 has a dependent on lane 1 -> event; op 1's dependent is cross-lane
  // too (lane 1 -> lane 0); op 2 has no dependents.
  EXPECT_TRUE(plan.needs_event(0));
  EXPECT_TRUE(plan.needs_event(1));
  EXPECT_FALSE(plan.needs_event(2));

  const std::string dump = plan.describe();
  EXPECT_NE(dump.find("produce_a"), std::string::npos);
  EXPECT_NE(dump.find("(event)"), std::string::npos);
  EXPECT_NE(dump.find("peak modeled device bytes"), std::string::npos);
}

TEST(Plan, RequiresDefaultLaneFirst) {
  OpGraph g;
  g.add_op(make_op("only", 0, {}));
  EXPECT_THROW(Plan(std::move(g), {"gram"}), Error);
}

// ---------------------------------------------------------------------------
// Executor vs hand-rolled stream choreography.

TEST(Executor, FixedPipelineMatchesHandRolledMakespan) {
  std::vector<exec::FixedModePhases> modes(3);
  for (std::size_t m = 0; m < modes.size(); ++m) {
    modes[m].gram_s = 0.004 + 0.001 * static_cast<double>(m);
    modes[m].mttkrp_s = 0.010;
    modes[m].update_s = 0.006;
    modes[m].normalize_s = 0.001;
  }

  // Hand-rolled: the overlap choreography the benches used to carry inline.
  simgpu::Device legacy(simgpu::a100());
  {
    const simgpu::Stream gram_stream = legacy.create_stream("gram");
    simgpu::Event prev_normalize;
    for (const exec::FixedModePhases& m : modes) {
      legacy.wait_event(gram_stream, prev_normalize);
      legacy.record_fixed("gram", m.gram_s, gram_stream);
      const simgpu::Event gram_done = legacy.record_event(gram_stream);
      legacy.record_fixed("mttkrp", m.mttkrp_s);
      legacy.wait_event(simgpu::Stream{}, gram_done);
      legacy.record_fixed("update", m.update_s);
      legacy.record_fixed("normalize", m.normalize_s);
      prev_normalize = legacy.record_event(simgpu::Stream{});
    }
  }

  simgpu::Device planned(simgpu::a100());
  exec::Executor executor(
      planned, std::make_shared<const Plan>(
                   exec::Planner::compile_fixed_pipeline(modes)));
  executor.run();

  EXPECT_TRUE(planned.timeline().concurrent());
  EXPECT_DOUBLE_EQ(planned.modeled_makespan_s(), legacy.modeled_makespan_s());
}

TEST(Executor, ChunkedAllReduceOverlapsCommunication) {
  exec::ChunkedAllReduceSpec spec;
  spec.shard_compute_s = {0.010, 0.012};
  spec.chunk_comm_s = 0.004;
  spec.chunks = 1;

  const auto makespan = [](const exec::ChunkedAllReduceSpec& s) {
    simgpu::Device dev(simgpu::a100());
    exec::Executor ex(dev, std::make_shared<const Plan>(
                               exec::Planner::compile_chunked_allreduce(s)));
    ex.run();
    return dev.modeled_makespan_s();
  };

  const double serial = makespan(spec);
  // One chunk: compute then communicate, no overlap.
  EXPECT_NEAR(serial, 0.012 + 0.004, 1e-12);

  spec.chunks = 4;
  spec.chunk_comm_s = 0.001;  // same total communication, 4 chunks
  const double overlapped = makespan(spec);
  EXPECT_LT(overlapped, serial);
  // Lower bound: the slowest shard's compute plus one trailing chunk comm.
  EXPECT_GE(overlapped, 0.012 + 0.001 - 1e-12);
}

TEST(Executor, RunsObserverHooksInIssueOrder) {
  OpGraph g;
  Op op1 = make_op("first", 0, {});
  op1.fixed_s = 0.001;
  op1.run = nullptr;
  g.add_op(std::move(op1));
  Op op2 = make_op("second", 0, {0});
  op2.fixed_s = 0.001;
  op2.run = nullptr;
  g.add_op(std::move(op2));

  class Recorder final : public exec::OpObserver {
   public:
    void on_op_begin(const Op& op, int index) override {
      names.push_back("begin:" + op.name);
      indices.push_back(index);
    }
    void on_op_end(const Op& op, int) override {
      names.push_back("end:" + op.name);
    }
    std::vector<std::string> names;
    std::vector<int> indices;
  };

  simgpu::Device dev(simgpu::a100());
  exec::Executor executor(
      dev, std::make_shared<const Plan>(Plan(std::move(g), {"default"})));
  Recorder recorder;
  executor.run(&recorder);
  ASSERT_EQ(recorder.names.size(), 4u);
  EXPECT_EQ(recorder.names[0], "begin:first");
  EXPECT_EQ(recorder.names[1], "end:first");
  EXPECT_EQ(recorder.names[2], "begin:second");
  EXPECT_EQ(recorder.names[3], "end:second");
  EXPECT_EQ(recorder.indices, (std::vector<int>{0, 1}));
}

// ---------------------------------------------------------------------------
// Plan-cache invalidation.

TEST(PlanCacheTest, HitsOnSameKeyRecompilesOnAnyFieldChange) {
  PlanCache cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    OpGraph g;
    g.add_op(make_op("op", 0, {}));
    return Plan(std::move(g), {"default"});
  };

  PlanKey key{1, 8, 42};
  EXPECT_FALSE(cache.cached());
  auto first = cache.get(key, build);
  auto again = cache.get(key, build);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(builds, 1);

  PlanKey rank_change = key;
  rank_change.rank = 16;
  cache.get(rank_change, build);
  EXPECT_EQ(builds, 2);

  PlanKey options_change = rank_change;
  options_change.options_digest = 43;
  cache.get(options_change, build);
  EXPECT_EQ(builds, 3);

  PlanKey tensor_change = options_change;
  tensor_change.tensor_id = 2;
  cache.get(tensor_change, build);
  EXPECT_EQ(builds, 4);
  EXPECT_EQ(cache.misses(), 4);

  cache.clear();
  EXPECT_FALSE(cache.cached());
  cache.get(tensor_change, build);
  EXPECT_EQ(builds, 5);
}

TEST(PlanCacheTest, AuntfReusesPlanAcrossIterationsAndKeysOnOptions) {
  const SparseTensor t = small_tensor();
  FrameworkOptions opts;
  opts.rank = 4;
  opts.max_iterations = 3;
  CstfFramework framework(t, opts);

  framework.driver().initialize();
  framework.driver().iterate();
  EXPECT_EQ(framework.driver().plan_cache().misses(), 1);
  framework.driver().iterate();
  framework.driver().iterate();
  EXPECT_EQ(framework.driver().plan_cache().misses(), 1);
  EXPECT_GE(framework.driver().plan_cache().hits(), 2);

  // A rank change and a scatter-strategy change each produce a different
  // plan key — fed through a shared cache, each forces a recompile.
  FrameworkOptions rank_opts = opts;
  rank_opts.rank = 8;
  CstfFramework rank_changed(t, rank_opts);
  FrameworkOptions scatter_opts = opts;
  scatter_opts.scatter.strategy = ScatterStrategy::kSorted;
  CstfFramework scatter_changed(t, scatter_opts);

  const PlanKey base_key = framework.driver().plan_key();
  const PlanKey rank_key = rank_changed.driver().plan_key();
  const PlanKey scatter_key = scatter_changed.driver().plan_key();
  EXPECT_FALSE(base_key == rank_key);
  EXPECT_FALSE(base_key == scatter_key);
  EXPECT_NE(base_key.rank, rank_key.rank);
  // Scatter options feed the options digest (they change op-body behavior
  // without touching rank or tensor identity).
  EXPECT_NE(base_key.options_digest, scatter_key.options_digest);
}

// ---------------------------------------------------------------------------
// Digest stability: these values are persisted inside CSTFCKPT checkpoints
// and CSTF model files — changing them orphans existing artifacts. The
// golden constants pin the DigestBuilder encoding and the digest field
// lists; a deliberate format change must bump the file format versions.

TEST(DigestStability, BuilderEncodingIsPinned) {
  DigestBuilder d;
  d.u64(1).f64(2.0).boolean(true).str("x");
  EXPECT_EQ(d.value(), 0x7bb000e2d9cc7e34ULL);

  // Field order is part of the definition.
  DigestBuilder swapped;
  swapped.f64(2.0).u64(1).boolean(true).str("x");
  EXPECT_NE(swapped.value(), 0x7bb000e2d9cc7e34ULL);

  // An empty builder starts at the FNV-1a offset basis.
  EXPECT_EQ(DigestBuilder().value(), 0xcbf29ce484222325ULL);
}

TEST(DigestStability, TrainingDigestIgnoresConvergenceAndCheckpointKnobs) {
  FrameworkOptions base;
  // Pinned for checkpoint format v6 (v2 added mttkrp_mode, v3 added
  // dimtree_budget_bytes — under auto the budget decides which engine the
  // resolver picks, and flat vs dimtree differ in accumulation order —
  // v4 added the autotuning policy, per-mode scatter picks, and the
  // parallel chunk knob, v5 dropped the determinism flag, and v6 dropped
  // the v4 fields again).
  EXPECT_EQ(digest_training_options(base), 0x252fc0a0501283f6ULL);

  FrameworkOptions resumable = base;
  resumable.max_iterations = 500;
  resumable.fit_tolerance = 1e-6;
  resumable.checkpoint_every = 2;
  resumable.checkpoint_path = "ckpt.cstf";
  resumable.resume_from = "old.cstf";
  resumable.pipeline_streams = true;  // modeling knob: same math
  EXPECT_EQ(digest_training_options(resumable), digest_training_options(base));

  FrameworkOptions different_rank = base;
  different_rank.rank = 16;
  EXPECT_NE(digest_training_options(different_rank),
            digest_training_options(base));
  FrameworkOptions different_seed = base;
  different_seed.seed = 43;
  EXPECT_NE(digest_training_options(different_seed),
            digest_training_options(base));
  FrameworkOptions different_scatter = base;
  different_scatter.scatter.strategy = ScatterStrategy::kSorted;
  EXPECT_NE(digest_training_options(different_scatter),
            digest_training_options(base));
  FrameworkOptions different_mttkrp = base;
  different_mttkrp.mttkrp_mode = MttkrpMode::kDimtree;
  EXPECT_NE(digest_training_options(different_mttkrp),
            digest_training_options(base));
  FrameworkOptions different_budget = base;
  different_budget.dimtree_budget_bytes = 1.0;
  EXPECT_NE(digest_training_options(different_budget),
            digest_training_options(base));
}

TEST(DigestStability, ServingDigestTracksEverythingThatChangesTheModel) {
  FrameworkOptions base;
  // Pinned for model format v2 (the determinism flag dropped).
  EXPECT_EQ(serve::digest_options(base), 0x960722465bce40feULL);

  // Unlike the checkpoint digest, the serving digest pins max_iterations —
  // two models trained for different iteration counts are different models.
  FrameworkOptions longer = base;
  longer.max_iterations = 50;
  EXPECT_NE(serve::digest_options(longer), serve::digest_options(base));
}

}  // namespace
}  // namespace cstf
