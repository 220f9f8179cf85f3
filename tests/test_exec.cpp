// Execution-graph layer tests: OpGraph/Plan validation and analysis (buffer
// lifetimes, resident buffers and the hand-computed AO footprint), the
// Executor's issue order and observer hooks, plan-cache invalidation on the
// trainer path, and the stability of the persisted options digests.
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

using exec::Op;
using exec::OpGraph;
using exec::OpKind;
using exec::Plan;
using exec::PlanCache;
using exec::PlanKey;

void noop(simgpu::Device&) {}

Op make_op(const std::string& name) {
  Op op;
  op.name = name;
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
  // Ops carry no dependency list (issue order is the order), so what is left
  // to reject is a buffer id that was never declared and an op with no body.
  OpGraph g;
  const int buf = g.add_buffer("b", 64.0);

  {
    Op op = make_op("bad_read");
    op.reads = {buf + 1};
    EXPECT_THROW(g.add_op(std::move(op)), Error);
  }
  {
    Op op = make_op("bad_write");
    op.writes = {-1};
    EXPECT_THROW(g.add_op(std::move(op)), Error);
  }
  {
    Op op = make_op("no_body");
    op.run = nullptr;
    EXPECT_THROW(g.add_op(std::move(op)), Error);
  }
  EXPECT_THROW(g.add_buffer("negative", -1.0), Error);
  EXPECT_EQ(g.add_op(make_op("ok")), 0);
}

TEST(Plan, DerivesLifetimesPeakAndEventNeeds) {
  OpGraph g;
  const int a = g.add_buffer("a", 100.0);
  const int b = g.add_buffer("b", 60.0);
  const int unused = g.add_buffer("unused", 1000.0);
  (void)unused;

  {
    Op op = make_op("produce_a");
    op.writes = {a};
    g.add_op(std::move(op));
  }
  {
    Op op = make_op("transform");
    op.reads = {a};
    op.writes = {b};
    g.add_op(std::move(op));
  }
  {
    Op op = make_op("consume");
    op.reads = {b};
    g.add_op(std::move(op));
  }

  const Plan plan(std::move(g));
  ASSERT_EQ(plan.lifetimes().size(), 3u);
  EXPECT_EQ(plan.lifetimes()[0].first_use, 0);
  EXPECT_EQ(plan.lifetimes()[0].last_use, 1);
  EXPECT_EQ(plan.lifetimes()[1].first_use, 1);
  EXPECT_EQ(plan.lifetimes()[1].last_use, 2);
  EXPECT_EQ(plan.lifetimes()[2].first_use, -1);  // never touched

  // a and b are both live at op 1: peak is their sum (the unused buffer does
  // not contribute).
  EXPECT_DOUBLE_EQ(plan.peak_bytes(), 160.0);

  const std::string dump = plan.describe();
  EXPECT_NE(dump.find("produce_a"), std::string::npos);
  EXPECT_NE(dump.find("peak modeled device bytes"), std::string::npos);
}

TEST(Plan, ResidentBufferIsLiveAtEveryOp) {
  // A resident buffer carries state across iterations: it counts at every
  // op, whether or not an op touches it.
  OpGraph g;
  const int scratch = g.add_buffer("scratch", 50.0);
  g.add_buffer("state", 30.0, /*resident=*/true);
  {
    Op op = make_op("first");
    op.writes = {scratch};
    g.add_op(std::move(op));
  }
  g.add_op(make_op("second"));

  const Plan plan(std::move(g));
  EXPECT_EQ(plan.lifetimes()[1].first_use, 0);
  EXPECT_EQ(plan.lifetimes()[1].last_use, 1);
  EXPECT_DOUBLE_EQ(plan.peak_bytes(), 80.0);
  const std::string dump = plan.describe();
  EXPECT_NE(dump.find("30 B * 0..1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("50 B   0..0"), std::string::npos) << dump;
}

TEST(Planner, AoFootprintCountsResidentStateHandComputed) {
  // Three modes with rows {5, 3, 2}, R = 2, a 100 B tensor and no fit.
  // Resident: tensor 100 + factors 8*2*(5+3+2) = 160 + duals 160 + Grams
  // 3*8*2*2 = 96 + lambda 8*2 = 16, i.e. 532 B. The longest-mode MTTKRP
  // output (80 B), the update scratch (160 B) and the Hadamard Gram (32 B)
  // are all live at update_0, so the peak is 532 + 272 = 804 B.
  exec::AoIterationSpec spec;
  spec.num_modes = 3;
  spec.rank = 2;
  spec.tensor_bytes = 100.0;
  spec.mode_rows = {5, 3, 2};
  const auto body = [](simgpu::Device&, int) {};
  spec.hadamard = body;
  spec.mttkrp = body;
  spec.update = body;
  spec.normalize = body;
  spec.gram_recompute = body;
  const Plan plan = exec::Planner::compile_ao_iteration(spec);
  EXPECT_DOUBLE_EQ(plan.peak_bytes(), 804.0);
  for (int b = 0; b < plan.graph().num_buffers(); ++b) {
    const std::string& name = plan.graph().buffer(b).name;
    const bool state = name == "tensor" || name == "lambda" ||
                       name.rfind("factor_", 0) == 0 ||
                       name.rfind("dual_", 0) == 0 ||
                       name.rfind("gram_", 0) == 0;
    EXPECT_EQ(plan.graph().buffer(b).resident, state) << name;
  }
}

// ---------------------------------------------------------------------------
// Executor.

TEST(Executor, RunsObserverHooksInIssueOrder) {
  std::vector<std::string> names;
  OpGraph g;
  Op op1 = make_op("first");
  op1.run = [&](simgpu::Device&) { names.push_back("run:first"); };
  g.add_op(std::move(op1));
  Op op2 = make_op("second");
  op2.run = [&](simgpu::Device&) { names.push_back("run:second"); };
  g.add_op(std::move(op2));

  class Recorder final : public exec::OpObserver {
   public:
    explicit Recorder(std::vector<std::string>& log) : names(log) {}
    void on_op_begin(const Op& op, int index) override {
      names.push_back("begin:" + op.name);
      indices.push_back(index);
    }
    void on_op_end(const Op& op, int) override {
      names.push_back("end:" + op.name);
    }
    std::vector<std::string>& names;
    std::vector<int> indices;
  };

  simgpu::Device dev(simgpu::a100());
  exec::Executor executor(dev,
                          std::make_shared<const Plan>(Plan(std::move(g))));
  Recorder recorder(names);
  executor.run(&recorder);
  EXPECT_EQ(names, (std::vector<std::string>{"begin:first", "run:first",
                                              "end:first", "begin:second",
                                              "run:second", "end:second"}));
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
    g.add_op(make_op("op"));
    return Plan(std::move(g));
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

  // A rank change produces a different plan key — fed through a shared
  // cache, it forces a recompile.
  FrameworkOptions rank_opts = opts;
  rank_opts.rank = 8;
  CstfFramework rank_changed(t, rank_opts);

  const PlanKey base_key = framework.driver().plan_key();
  const PlanKey rank_key = rank_changed.driver().plan_key();
  EXPECT_FALSE(base_key == rank_key);
  EXPECT_NE(base_key.rank, rank_key.rank);
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
