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

/// Every span `tracer` logged, in issue order.
inline void expect_device_program(const simgpu::Tracer& tracer,
                                  const std::vector<ExpectedSpan>& expected) {
  const std::vector<simgpu::TraceSpan> spans = tracer.spans();
  ASSERT_EQ(spans.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const simgpu::TraceSpan& span = spans[i];
    const simgpu::KernelStats& want = expected[i].stats;
    SCOPED_TRACE("span " + std::to_string(i) + " " + expected[i].kernel);
    EXPECT_EQ(span.kernel, expected[i].kernel);
    EXPECT_EQ(span.stats.flops, want.flops);
    EXPECT_EQ(span.stats.bytes_streamed, want.bytes_streamed);
    EXPECT_EQ(span.stats.bytes_reused, want.bytes_reused);
    EXPECT_EQ(span.stats.working_set_bytes, want.working_set_bytes);
    EXPECT_EQ(span.stats.bytes_random, want.bytes_random);
    EXPECT_EQ(span.stats.host_link_bytes, want.host_link_bytes);
    EXPECT_EQ(span.stats.serial_depth, want.serial_depth);
    EXPECT_EQ(span.stats.atomic_ops, want.atomic_ops);
    EXPECT_EQ(span.stats.parallel_items, want.parallel_items);
    EXPECT_EQ(span.stats.launches, want.launches);
    EXPECT_EQ(span.stats.compute_efficiency, want.compute_efficiency);
  }
}

}  // namespace cstf::golden
