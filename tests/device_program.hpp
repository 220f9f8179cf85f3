// Pins a device program span by span: the tests that use it assert the exact
// sequence of spans a solve issues, as an attached Tracer logs them (kernel
// name and every KernelStats field, compared exactly), so a refactor of how
// work is issued cannot silently change what is issued.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simgpu/trace.hpp"

namespace cstf::golden {

struct ExpectedSpan {
  std::string kernel;
  simgpu::KernelStats stats;
};

/// The stats of one cuADMM inner iteration (Algorithm 3) at one solve size;
/// the residual sync is size-independent.
struct AdmmRoundStats {
  simgpu::KernelStats auxiliary;
  simgpu::KernelStats gemm;
  simgpu::KernelStats proximity;
  simgpu::KernelStats dual;
};

inline void append_admm_rounds(std::vector<ExpectedSpan>& program,
                               const AdmmRoundStats& round, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    program.push_back({"admm_compute_auxiliary", round.auxiliary});
    program.push_back({"dgemm", round.gemm});
    program.push_back({"admm_apply_proximity", round.proximity});
    program.push_back({"admm_dual_update", round.dual});
    program.push_back({"admm_residual_sync", {.launches = 10}});
  }
}

/// Every KernelStats field of `got` equals `want`'s exactly.
inline void expect_same_stats(const simgpu::KernelStats& got,
                              const simgpu::KernelStats& want) {
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.bytes_streamed, want.bytes_streamed);
  EXPECT_EQ(got.bytes_reused, want.bytes_reused);
  EXPECT_EQ(got.working_set_bytes, want.working_set_bytes);
  EXPECT_EQ(got.bytes_random, want.bytes_random);
  EXPECT_EQ(got.host_link_bytes, want.host_link_bytes);
  EXPECT_EQ(got.serial_depth, want.serial_depth);
  EXPECT_EQ(got.atomic_ops, want.atomic_ops);
  EXPECT_EQ(got.parallel_items, want.parallel_items);
  EXPECT_EQ(got.launches, want.launches);
  EXPECT_EQ(got.compute_efficiency, want.compute_efficiency);
}

/// Every span `tracer` logged, in issue order.
inline void expect_device_program(const simgpu::Tracer& tracer,
                                  const std::vector<ExpectedSpan>& expected) {
  const std::vector<simgpu::TraceSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("span " + std::to_string(i) + " " + expected[i].kernel);
    EXPECT_EQ(spans[i].kernel, expected[i].kernel);
    expect_same_stats(spans[i].stats, expected[i].stats);
  }
}

}  // namespace cstf::golden
