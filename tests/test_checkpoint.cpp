// Checkpoint/resume tests: CSTFCKPT round trip, bit-identical resume
// (including the ADMM dual state), corruption handling, and recovery from an
// injected mid-training fault.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <vector>

#include "cstf/checkpoint.hpp"
#include "cstf/framework.hpp"
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

}  // namespace
}  // namespace cstf
