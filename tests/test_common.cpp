// Unit tests for src/common: RNG, Zipf sampler, timers, errors, env.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/radix_sort.hpp"
#include "common/random.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace cstf {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValuesWithoutBias) {
  Rng rng(11);
  constexpr std::uint64_t n = 7;
  std::vector<int> counts(n, 0);
  constexpr int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(n)];
  for (std::uint64_t v = 0; v < n; ++v) {
    EXPECT_NEAR(counts[v], draws / static_cast<int>(n), 600) << "value " << v;
  }
}

TEST(Rng, UniformIndexOfOneIsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.split();
  // Child and parent outputs should not coincide.
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 2);
}

TEST(Zipf, SamplesStayInRange) {
  Rng rng(17);
  ZipfSampler zipf(100, 1.1);
  for (int i = 0; i < 10000; ++i) {
    const index_t k = zipf(rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 100);
  }
}

TEST(Zipf, FrequenciesDecreaseWithRank) {
  Rng rng(19);
  ZipfSampler zipf(50, 1.2);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf(rng)];
  // Head must dominate the tail decisively.
  EXPECT_GT(counts[0], counts[9] * 2);
  EXPECT_GT(counts[0], counts[49] * 10);
}

TEST(Zipf, AlphaZeroIsApproximatelyUniform) {
  Rng rng(23);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  constexpr int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[zipf(rng)];
  for (int v = 0; v < 10; ++v) {
    EXPECT_NEAR(counts[v], draws / 10, draws / 50) << "value " << v;
  }
}

TEST(Zipf, SingleElementDomain) {
  Rng rng(29);
  ZipfSampler zipf(1, 1.5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf(rng), 0);
}

class ZipfAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfAlphaSweep, HeadMassGrowsWithAlpha) {
  const double alpha = GetParam();
  Rng rng(31);
  ZipfSampler zipf(1000, alpha);
  int head = 0;
  constexpr int draws = 50000;
  for (int i = 0; i < draws; ++i) head += (zipf(rng) < 10);
  // With alpha >= 0.8 the top-1% of ranks should hold well above the uniform
  // share (1%).
  EXPECT_GT(head, draws / 50);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaSweep,
                         ::testing::Values(0.8, 1.0, 1.2, 1.5));

TEST(RadixSort, MatchesComparisonSortOnRandomKeys) {
  Rng rng(61);
  std::vector<lco_t> keys(5000);
  std::vector<index_t> payload(5000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng();
    payload[i] = static_cast<index_t>(i);
  }
  std::vector<lco_t> want = keys;
  std::sort(want.begin(), want.end());
  std::vector<lco_t> original = keys;
  radix_sort_pairs(keys, payload);
  EXPECT_EQ(keys, want);
  // Payload carries the original position of each key.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(original[static_cast<std::size_t>(payload[i])], keys[i]);
  }
}

TEST(RadixSort, StableForDuplicateKeys) {
  std::vector<lco_t> keys = {7, 3, 7, 3, 7};
  std::vector<index_t> payload = {0, 1, 2, 3, 4};
  radix_sort_pairs(keys, payload);
  EXPECT_EQ(keys, (std::vector<lco_t>{3, 3, 7, 7, 7}));
  EXPECT_EQ(payload, (std::vector<index_t>{1, 3, 0, 2, 4}));
}

TEST(RadixSort, HandlesEdgeInputs) {
  std::vector<lco_t> empty_keys;
  std::vector<index_t> empty_payload;
  EXPECT_NO_THROW(radix_sort_pairs(empty_keys, empty_payload));

  std::vector<lco_t> one = {42};
  std::vector<index_t> one_p = {0};
  radix_sort_pairs(one, one_p);
  EXPECT_EQ(one[0], 42u);

  // Already sorted and reverse sorted.
  std::vector<lco_t> sorted = {1, 2, 3, 4};
  std::vector<index_t> sp = {0, 1, 2, 3};
  radix_sort_pairs(sorted, sp);
  EXPECT_EQ(sorted, (std::vector<lco_t>{1, 2, 3, 4}));
  std::vector<lco_t> reversed = {4, 3, 2, 1};
  std::vector<index_t> rp = {0, 1, 2, 3};
  radix_sort_pairs(reversed, rp);
  EXPECT_EQ(reversed, (std::vector<lco_t>{1, 2, 3, 4}));
  EXPECT_EQ(rp, (std::vector<index_t>{3, 2, 1, 0}));
}

TEST(RadixSort, AllDuplicateKeysKeepPayloadOrder) {
  // The degenerate single-segment case of the sorted-scatter plans: every
  // nonzero targets the same output row. Stability means the payload must
  // come back untouched (and in particular not be scrambled by any skipped
  // counting passes).
  std::vector<lco_t> keys(257, 5);
  std::vector<index_t> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<index_t>(i);
  }
  radix_sort_pairs(keys, payload);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(keys[i], 5u);
    ASSERT_EQ(payload[i], static_cast<index_t>(i));
  }
}

TEST(RadixSort, FullWidth64BitKeys) {
  std::vector<lco_t> keys = {~lco_t{0}, 0, lco_t{1} << 63, 1};
  std::vector<index_t> payload = {0, 1, 2, 3};
  radix_sort_pairs(keys, payload);
  EXPECT_EQ(keys[0], 0u);
  EXPECT_EQ(keys[3], ~lco_t{0});
  EXPECT_EQ(payload, (std::vector<index_t>{1, 3, 2, 0}));
}

TEST(Timer, MeasuresNonNegativeMonotonicTime) {
  Timer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(PhaseTimer, AccumulatesAcrossScopes) {
  PhaseTimer pt;
  pt.add(phase::kGram, 1.0);
  pt.add(phase::kGram, 2.0);
  pt.add(phase::kMttkrp, 0.5);
  EXPECT_DOUBLE_EQ(pt.total(phase::kGram), 3.0);
  EXPECT_DOUBLE_EQ(pt.total(phase::kMttkrp), 0.5);
  EXPECT_DOUBLE_EQ(pt.total(phase::kUpdate), 0.0);
  pt.clear();
  EXPECT_TRUE(pt.totals().empty());
}

TEST(Log, LevelRoundTripsAndFiltersBelowThreshold) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages are discarded without evaluating... the macro
  // must at least not crash at every level.
  CSTF_LOG_DEBUG("suppressed " << 1);
  CSTF_LOG_INFO("suppressed " << 2);
  set_log_level(LogLevel::kOff);
  CSTF_LOG_ERROR("also suppressed " << 3);
  set_log_level(before);
}

TEST(Error, CheckMacroThrowsWithLocation) {
  try {
    CSTF_CHECK(1 == 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, CheckMsgIncludesStreamedDetail) {
  const int n = -4;
  try {
    CSTF_CHECK_MSG(n >= 0, "n=" << n);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("n=-4"), std::string::npos);
  }
}

TEST(Error, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(CSTF_CHECK(2 + 2 == 4));
}

TEST(Env, FallbackWhenUnset) {
  ::unsetenv("CSTF_TEST_UNSET_VAR");
  EXPECT_EQ(env_int("CSTF_TEST_UNSET_VAR", 77), 77);
  EXPECT_DOUBLE_EQ(env_double("CSTF_TEST_UNSET_VAR", 1.5), 1.5);
  EXPECT_EQ(env_string("CSTF_TEST_UNSET_VAR", "dflt"), "dflt");
}

TEST(Env, ParsesSetValues) {
  ::setenv("CSTF_TEST_SET_VAR", "42", 1);
  EXPECT_EQ(env_int("CSTF_TEST_SET_VAR", 0), 42);
  ::setenv("CSTF_TEST_SET_VAR", "2.25", 1);
  EXPECT_DOUBLE_EQ(env_double("CSTF_TEST_SET_VAR", 0.0), 2.25);
  ::setenv("CSTF_TEST_SET_VAR", "hello", 1);
  EXPECT_EQ(env_string("CSTF_TEST_SET_VAR", ""), "hello");
  ::unsetenv("CSTF_TEST_SET_VAR");
}

TEST(Env, UnparsableIntFallsBack) {
  ::setenv("CSTF_TEST_BAD_VAR", "not-a-number", 1);
  EXPECT_EQ(env_int("CSTF_TEST_BAD_VAR", 9), 9);
  ::unsetenv("CSTF_TEST_BAD_VAR");
}

TEST(Env, TrailingGarbageIsRejectedNotTruncated) {
  // strtoll would happily parse "8x" as 8; the strict parser must not.
  ::setenv("CSTF_TEST_BAD_VAR", "8x", 1);
  EXPECT_EQ(env_int("CSTF_TEST_BAD_VAR", 9), 9);
  ::setenv("CSTF_TEST_BAD_VAR", "1.5.3", 1);
  EXPECT_DOUBLE_EQ(env_double("CSTF_TEST_BAD_VAR", 2.5), 2.5);
  ::unsetenv("CSTF_TEST_BAD_VAR");
}

TEST(Env, EmptyValueFallsBack) {
  ::setenv("CSTF_TEST_BAD_VAR", "", 1);
  EXPECT_EQ(env_int("CSTF_TEST_BAD_VAR", 13), 13);
  EXPECT_DOUBLE_EQ(env_double("CSTF_TEST_BAD_VAR", 0.5), 0.5);
  ::unsetenv("CSTF_TEST_BAD_VAR");
}

TEST(Env, OverflowFallsBack) {
  ::setenv("CSTF_TEST_BAD_VAR", "99999999999999999999999999", 1);
  EXPECT_EQ(env_int("CSTF_TEST_BAD_VAR", 21), 21);
  ::setenv("CSTF_TEST_BAD_VAR", "1e999", 1);
  EXPECT_DOUBLE_EQ(env_double("CSTF_TEST_BAD_VAR", 3.5), 3.5);
  ::unsetenv("CSTF_TEST_BAD_VAR");
}

TEST(Env, AcceptsSurroundingWhitespaceAndSigns) {
  ::setenv("CSTF_TEST_SET_VAR", " 42 ", 1);
  EXPECT_EQ(env_int("CSTF_TEST_SET_VAR", 0), 42);
  ::setenv("CSTF_TEST_SET_VAR", "-12", 1);
  EXPECT_EQ(env_int("CSTF_TEST_SET_VAR", 0), -12);
  ::setenv("CSTF_TEST_SET_VAR", "-2.5e-3", 1);
  EXPECT_DOUBLE_EQ(env_double("CSTF_TEST_SET_VAR", 0.0), -2.5e-3);
  ::unsetenv("CSTF_TEST_SET_VAR");
}

}  // namespace
}  // namespace cstf
