// Checkpoint/resume tests: CSTFCKPT round trip, bit-identical resume
// (including the ADMM dual state), corruption handling, recovery from an
// injected mid-training fault, and the stability of the options digests the
// checkpoint and model files persist.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <vector>

#include "common/digest.hpp"
#include "cstf/checkpoint.hpp"
#include "cstf/framework.hpp"
#include "serve/model_io.hpp"
#include "simgpu/fault.hpp"
#include "tensor/generate.hpp"

namespace cstf {
namespace {

// A scratch path in a directory private to this test process, removed when
// the process exits. ctest runs each "Checkpoint.*Resume*" test and its
// ".threads1" twin as two processes, in parallel under -j, and a shared
// file lets one read the other's checkpoint.
std::string temp_path(const std::string& name) {
  struct Dir {
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("cstf_checkpoint_" + std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return (dir.path / name).string();
}

SparseTensor make_tensor(std::uint64_t seed = 1) {
  LowRankTensorParams params;
  params.dims = {14, 11, 9};
  params.rank = 3;
  params.target_nnz = 14 * 11 * 9;
  params.noise = 0.01;
  params.seed = seed;
  return generate_low_rank(params).tensor;
}

FrameworkOptions base_options() {
  FrameworkOptions options;
  options.rank = 4;
  options.max_iterations = 10;
  options.fit_tolerance = 0.0;  // fixed iteration count
  options.scheme = UpdateScheme::kCuAdmm;
  return options;
}

void expect_bitwise_equal(const KTensor& a, const KTensor& b) {
  ASSERT_EQ(a.num_modes(), b.num_modes());
  ASSERT_EQ(a.lambda.size(), b.lambda.size());
  EXPECT_EQ(std::memcmp(a.lambda.data(), b.lambda.data(),
                        a.lambda.size() * sizeof(real_t)),
            0);
  for (int m = 0; m < a.num_modes(); ++m) {
    const Matrix& fa = a.factors[static_cast<std::size_t>(m)];
    const Matrix& fb = b.factors[static_cast<std::size_t>(m)];
    ASSERT_EQ(fa.rows(), fb.rows());
    ASSERT_EQ(fa.cols(), fb.cols());
    EXPECT_EQ(std::memcmp(fa.data(), fb.data(),
                          static_cast<std::size_t>(fa.size()) * sizeof(real_t)),
              0)
        << "mode " << m << " factors differ bitwise";
  }
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

ModelIoStatus load_status(const std::string& path) {
  try {
    load_checkpoint(path);
  } catch (const ModelIoError& e) {
    return e.status();
  }
  ADD_FAILURE() << "load_checkpoint(" << path << ") unexpectedly succeeded";
  return ModelIoStatus::kOpenFailed;
}

TEST(Checkpoint, RoundTripPreservesTrainingState) {
  const SparseTensor tensor = make_tensor();
  FrameworkOptions options = base_options();
  options.max_iterations = 5;
  CstfFramework framework(tensor, options);
  framework.run();

  const std::string path = temp_path("roundtrip.ckpt");
  framework.write_checkpoint(path);
  const TrainingCheckpoint loaded = load_checkpoint(path);

  EXPECT_EQ(loaded.state.completed_iterations, 5);
  EXPECT_EQ(loaded.seed, options.seed);
  EXPECT_EQ(loaded.options_digest, digest_training_options(options));
  EXPECT_EQ(loaded.state.fit_history.size(), 5u);
  ASSERT_EQ(loaded.state.factors.size(), 3u);
  ASSERT_EQ(loaded.state.duals.size(), 3u);
  for (const Matrix& dual : loaded.state.duals) {
    EXPECT_GT(dual.size(), 0);  // ADMM duals are part of the snapshot
  }

  const KTensor model = framework.ktensor();
  const TrainerState& state = loaded.state;
  for (int m = 0; m < model.num_modes(); ++m) {
    const Matrix& fa = model.factors[static_cast<std::size_t>(m)];
    const Matrix& fb = state.factors[static_cast<std::size_t>(m)];
    ASSERT_EQ(fa.rows(), fb.rows());
    EXPECT_EQ(std::memcmp(fa.data(), fb.data(),
                          static_cast<std::size_t>(fa.size()) * sizeof(real_t)),
              0);
  }
}

TEST(Checkpoint, KillAndResumeIsBitIdenticalToUninterruptedRun) {
  const SparseTensor tensor = make_tensor();
  const std::string path = temp_path("resume.ckpt");

  // Reference: 10 uninterrupted iterations.
  FrameworkOptions options = base_options();
  CstfFramework uninterrupted(tensor, options);
  const AuntfResult full = uninterrupted.run();
  ASSERT_EQ(full.iterations, 10);

  // "Killed" run: checkpoint every 4, stop after 4 (the kill).
  FrameworkOptions first_leg = options;
  first_leg.max_iterations = 4;
  first_leg.checkpoint_every = 4;
  first_leg.checkpoint_path = path;
  CstfFramework killed(tensor, first_leg);
  killed.run();

  // Resume in a fresh framework (fresh process in real life) for the
  // remaining 6 iterations.
  FrameworkOptions second_leg = options;
  second_leg.resume_from = path;
  CstfFramework resumed(tensor, second_leg);
  const AuntfResult rest = resumed.run();

  EXPECT_EQ(rest.iterations, 10);  // counter carries across the resume
  expect_bitwise_equal(uninterrupted.ktensor(), resumed.ktensor());
  // Fit history stitches seamlessly: same values in both timelines.
  ASSERT_EQ(rest.fit_history.size(), full.fit_history.size());
  for (std::size_t i = 0; i < full.fit_history.size(); ++i) {
    EXPECT_EQ(rest.fit_history[i], full.fit_history[i]) << "iteration " << i;
  }
}

TEST(Checkpoint, InjectedFaultMidTrainingThenResumeMatches) {
  const SparseTensor tensor = make_tensor();
  const std::string path = temp_path("chaos.ckpt");
  FrameworkOptions options = base_options();

  // Reference run; count its launches so the fault can be planted at ~70%
  // of the way through (past several checkpoint boundaries).
  CstfFramework reference(tensor, options);
  simgpu::FaultPlan counter("launch:k=999999999");  // never fires
  reference.device().set_fault_plan(&counter);
  reference.run();
  const std::int64_t launches =
      counter.seen(simgpu::FaultSite::kKernelLaunch);
  ASSERT_GT(launches, 100);

  // Crashing run: checkpoints every 2 iterations, fault at 70% of the
  // launch budget.
  FrameworkOptions crashing = options;
  crashing.checkpoint_every = 2;
  crashing.checkpoint_path = path;
  CstfFramework victim(tensor, crashing);
  simgpu::FaultPlan plan(
      "launch:k=" + std::to_string(launches * 7 / 10) + ",fatal=1");
  victim.device().set_fault_plan(&plan);
  EXPECT_THROW(victim.run(), simgpu::FaultError);
  ASSERT_TRUE(std::filesystem::exists(path)) << "no checkpoint before crash";

  // Recovery: resume from the surviving checkpoint, finish the run.
  FrameworkOptions recovery = options;
  recovery.resume_from = path;
  CstfFramework resumed(tensor, recovery);
  const AuntfResult rest = resumed.run();
  EXPECT_EQ(rest.iterations, 10);
  expect_bitwise_equal(reference.ktensor(), resumed.ktensor());
}

TEST(Checkpoint, PeriodicWritesKeepPreviousCheckpointOnFailure) {
  const SparseTensor tensor = make_tensor();
  const std::string path = temp_path("stable.ckpt");
  FrameworkOptions options = base_options();
  options.max_iterations = 3;
  CstfFramework framework(tensor, options);
  framework.run();
  framework.write_checkpoint(path);
  const std::vector<char> original = read_bytes(path);

  // Block the tmp file with a directory: the next save must fail without
  // touching the committed checkpoint (crash consistency).
  std::filesystem::create_directory(path + ".tmp");
  EXPECT_EQ([&] {
    try {
      framework.write_checkpoint(path);
    } catch (const ModelIoError& e) {
      return e.status();
    }
    return ModelIoStatus::kInvalidModel;
  }(), ModelIoStatus::kOpenFailed);
  std::filesystem::remove(path + ".tmp");

  EXPECT_EQ(read_bytes(path), original);
  EXPECT_NO_THROW(load_checkpoint(path));
}

TEST(Checkpoint, CorruptionYieldsTypedErrors) {
  const SparseTensor tensor = make_tensor();
  FrameworkOptions options = base_options();
  options.max_iterations = 2;
  CstfFramework framework(tensor, options);
  framework.run();
  const std::string good = temp_path("good.ckpt");
  framework.write_checkpoint(good);
  const std::vector<char> bytes = read_bytes(good);
  ASSERT_GT(bytes.size(), 64u);

  EXPECT_EQ(load_status(temp_path("nonexistent.ckpt")),
            ModelIoStatus::kOpenFailed);

  const std::string bad = temp_path("bad.ckpt");

  {  // Wrong magic.
    std::vector<char> mutated = bytes;
    mutated[0] = 'X';
    write_bytes(bad, mutated);
    EXPECT_EQ(load_status(bad), ModelIoStatus::kBadMagic);
  }
  {  // Unknown version (u32 at offset 8; checked before the checksum).
    std::vector<char> mutated = bytes;
    const std::uint32_t version = 99;
    std::memcpy(mutated.data() + 8, &version, sizeof(version));
    write_bytes(bad, mutated);
    EXPECT_EQ(load_status(bad), ModelIoStatus::kBadVersion);
  }
  {  // Truncated mid-payload.
    std::vector<char> mutated = bytes;
    mutated.resize(bytes.size() / 2);
    write_bytes(bad, mutated);
    EXPECT_EQ(load_status(bad), ModelIoStatus::kTruncated);
  }
  {  // Single bit flip deep in the factor payload.
    std::vector<char> mutated = bytes;
    mutated[bytes.size() - 32] ^= 0x10;
    write_bytes(bad, mutated);
    EXPECT_EQ(load_status(bad), ModelIoStatus::kChecksumMismatch);
  }
  // The original is still intact after all that.
  EXPECT_NO_THROW(load_checkpoint(good));
}

TEST(Checkpoint, PreviousFormatVersionIsRejected) {
  // A checkpoint written before the last digest-definition change must not
  // resume: its options digest means something else now.
  const SparseTensor tensor = make_tensor();
  FrameworkOptions options = base_options();
  options.max_iterations = 1;
  CstfFramework framework(tensor, options);
  framework.run();
  const std::string path = temp_path("previous_version.ckpt");
  framework.write_checkpoint(path);
  std::vector<char> bytes = read_bytes(path);
  const std::uint32_t previous = kCheckpointFormatVersion - 1;
  std::memcpy(bytes.data() + 8, &previous, sizeof(previous));
  write_bytes(path, bytes);
  EXPECT_EQ(load_status(path), ModelIoStatus::kBadVersion);
}

TEST(Checkpoint, NonFiniteFactorsAreRejectedAsInvalidModel) {
  TrainingCheckpoint checkpoint;
  TrainerState& state = checkpoint.state;
  Matrix f(2, 2);
  f.set_all(1.0);
  f(0, 0) = std::numeric_limits<real_t>::quiet_NaN();
  state.factors.push_back(std::move(f));
  state.lambda = {1.0, 1.0};
  const std::string path = temp_path("nan.ckpt");
  save_checkpoint(checkpoint, path);
  EXPECT_EQ(load_status(path), ModelIoStatus::kInvalidModel);
}

TEST(Checkpoint, ResumeRefusesMismatchedOptions) {
  const SparseTensor tensor = make_tensor();
  const std::string path = temp_path("mismatch.ckpt");
  FrameworkOptions options = base_options();
  options.max_iterations = 2;
  options.checkpoint_every = 2;
  options.checkpoint_path = path;
  CstfFramework framework(tensor, options);
  framework.run();

  // A different rank is a different factorization; the digest refuses it.
  FrameworkOptions wrong = base_options();
  wrong.rank = options.rank + 1;
  wrong.resume_from = path;
  CstfFramework other(tensor, wrong);
  try {
    other.run();
    FAIL() << "resume with a different rank should have been refused";
  } catch (const ModelIoError& e) {
    EXPECT_EQ(e.status(), ModelIoStatus::kOptionsMismatch);
  }

  // Raising max_iterations is the intended use and passes the digest.
  FrameworkOptions more = base_options();
  more.max_iterations = 4;
  more.resume_from = path;
  CstfFramework extended(tensor, more);
  EXPECT_EQ(extended.run().iterations, 4);
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
