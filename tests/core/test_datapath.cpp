#include "core/datapath.hpp"

#include <gtest/gtest.h>

namespace redmule::core {
namespace {

using fp16::f16;
using fp16::Float16;

/// Drives a single column through a full traversal-0 schedule by hand and
/// checks the pipeline latency and arithmetic.
TEST(Datapath, SingleColumnLatency) {
  Geometry g{1, 2, 3};  // H=1, L=2, P=3: latency 4, j_slots 4
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(1);

  // Issue 4 ops (tau 0..3) of the only traversal (tag last_traversal).
  for (uint32_t tau = 0; tau < 4; ++tau) {
    auto& is = issues[0];
    const Float16 x[2] = {f16(1.0 + tau), f16(10.0 + tau)};
    is.active = true;
    is.tag = PipeTag{0, 0, tau, true};
    is.first_traversal = true;
    is.w = f16(2.0);
    is.x = x;
    EXPECT_EQ(dp.advance(issues), nullptr);  // nothing emerges during fill
  }
  // Drain: captures appear exactly fma_latency cycles after each issue.
  issues[0].active = false;
  for (uint32_t tau = 0; tau < 4; ++tau) {
    const Datapath::Capture* cap = dp.advance(issues);
    ASSERT_NE(cap, nullptr) << tau;
    EXPECT_EQ(cap->tag.tau, tau);
    EXPECT_EQ(cap->values[0].to_double(), 2.0 * (1.0 + tau));
    EXPECT_EQ(cap->values[1].to_double(), 2.0 * (10.0 + tau));
  }
  EXPECT_TRUE(dp.drained());
  EXPECT_EQ(dp.fma_ops(), 4u * 2u);
}

TEST(Datapath, ResetClearsState) {
  Geometry g{1, 1, 0};
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(1);
  const Float16 x = f16(1.0);
  issues[0].active = true;
  issues[0].tag = PipeTag{0, 0, 0, false};
  issues[0].first_traversal = true;
  issues[0].w = f16(1.0);
  issues[0].x = &x;
  dp.advance(issues);
  EXPECT_FALSE(dp.drained());
  dp.reset();
  EXPECT_TRUE(dp.drained());
  EXPECT_EQ(dp.fma_ops(), 0u);
}

TEST(Datapath, MisalignedScheduleAborts) {
  // Feeding column 1 before column 0's result is ready must trip the
  // self-checking tags (death test: the model refuses to compute garbage).
  Geometry g{2, 1, 0};  // two columns, latency 1
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(2);
  const Float16 x = f16(1.0);
  issues[1].active = true;  // column 1 with no upstream data
  issues[1].tag = PipeTag{0, 0, 0, false};
  issues[1].w = f16(1.0);
  issues[1].x = &x;
  EXPECT_DEATH(dp.advance(issues), "upstream column bubble");
}

/// Full row pipeline: H=2 columns, P=0 (latency 1), L=1, j_slots=2.
/// Schedule: col c active at ac in [c, 2*n_chunks + c), tau = (ac-c) % 2.
TEST(Datapath, TwoColumnAccumulationWithFeedback) {
  Geometry g{2, 1, 0};
  Datapath dp(g);
  // Z[0][j] over N=4 (two traversals): x = [1, 2, 3, 4],
  // W = [[5, 6], [7, 8], [9, 10], [11, 12]] (n x j).
  const double x[4] = {1, 2, 3, 4};
  const double w[4][2] = {{5, 6}, {7, 8}, {9, 10}, {11, 12}};
  // Expected: z[j] = sum_n x[n]*w[n][j].
  const double ez0 = 1 * 5 + 2 * 7 + 3 * 9 + 4 * 11;
  const double ez1 = 1 * 6 + 2 * 8 + 3 * 10 + 4 * 12;

  std::vector<Datapath::ColumnIssue> issues(2);
  Float16 xregs[2];  // one operand register per column (L = 1)
  std::vector<double> captured(2, -1);
  const unsigned n_chunks = 2, js = 2;
  for (unsigned ac = 0; ac < n_chunks * js + js; ++ac) {
    for (unsigned c = 0; c < 2; ++c) {
      auto& is = issues[c];
      const int local = static_cast<int>(ac) - static_cast<int>(c);
      if (local < 0 || local >= static_cast<int>(n_chunks * js)) {
        is = Datapath::ColumnIssue{};
        continue;
      }
      const unsigned trav = static_cast<unsigned>(local) / js;
      const unsigned tau = static_cast<unsigned>(local) % js;
      const unsigned n = trav * 2 + c;
      is.active = true;
      is.tag = PipeTag{0, trav, tau, trav == n_chunks - 1};
      is.first_traversal = trav == 0;
      is.w = f16(w[n][tau]);
      xregs[c] = f16(x[n]);
      is.x = &xregs[c];
    }
    const Datapath::Capture* cap = dp.advance(issues);
    if (cap != nullptr) captured[cap->tag.tau] = cap->values[0].to_double();
  }
  EXPECT_EQ(captured[0], ez0);
  EXPECT_EQ(captured[1], ez1);
  EXPECT_TRUE(dp.drained());
}

TEST(Datapath, FmaOpsCountsAllLanes) {
  Geometry g{1, 4, 0};
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(1);
  issues[0].active = true;
  issues[0].tag = PipeTag{0, 0, 0, false};
  issues[0].first_traversal = true;
  issues[0].w = f16(1.0);
  const Float16 x[4] = {f16(1.0), f16(1.0), f16(1.0), f16(1.0)};
  issues[0].x = x;
  dp.advance(issues);
  EXPECT_EQ(dp.fma_ops(), 4u);  // one issue x L rows
}

}  // namespace
}  // namespace redmule::core
