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

/// Runs one tile of an H=2, L=4, P=1 row (latency 2, 4 j-slots) over two
/// traversals and records every capture. With \p elide set, the issues
/// declare the lanes of an M=3, K=3 edge tile: rows 0-2 live on j-slots
/// 0-2, and j-slot 3 dead.
struct ScheduleRun {
  struct Cap {
    unsigned ac;
    PipeTag tag;
    std::vector<Float16> values;
  };
  std::vector<Cap> caps;
  uint64_t fma_ops = 0;
  bool drained = false;
};

ScheduleRun run_edge_schedule(bool elide) {
  const Geometry g{2, 4, 1};
  const unsigned h = g.h, l = g.l, lat = g.fma_latency(), js = g.j_slots();
  const unsigned n_chunks = 2;
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(h);
  std::vector<Float16> xregs(h * l);
  ScheduleRun run;
  for (unsigned ac = 0; ac < n_chunks * js + js; ++ac) {
    for (unsigned c = 0; c < h; ++c) {
      auto& is = issues[c];
      const int local = static_cast<int>(ac) - static_cast<int>(c * lat);
      if (local < 0 || local >= static_cast<int>(n_chunks * js)) {
        is = Datapath::ColumnIssue{};
        continue;
      }
      const unsigned trav = static_cast<unsigned>(local) / js;
      const unsigned tau = static_cast<unsigned>(local) % js;
      const unsigned n = trav * h + c;
      for (unsigned r = 0; r < l; ++r)
        xregs[c * l + r] = f16(0.5 + 0.25 * r - 0.125 * n);
      is.active = true;
      is.tag = PipeTag{0, trav, tau, trav == n_chunks - 1};
      is.first_traversal = trav == 0;
      is.w = f16(1.5 - 0.25 * tau + 0.5 * n);
      is.x = &xregs[c * l];
      if (elide) is.live_rows = tau < 3 ? 3 : 0;
    }
    if (const Datapath::Capture* cap = dp.advance(issues))
      run.caps.push_back({ac, cap->tag, cap->values});
  }
  run.fma_ops = dp.fma_ops();
  run.drained = dp.drained();
  return run;
}

TEST(Datapath, DeadLanesAreElidedWithoutChangingTheSchedule) {
  const ScheduleRun full = run_edge_schedule(false);
  const ScheduleRun edge = run_edge_schedule(true);
  ASSERT_EQ(full.caps.size(), 4u);  // one per j-slot of the tile
  ASSERT_EQ(edge.caps.size(), full.caps.size());
  for (size_t i = 0; i < full.caps.size(); ++i) {
    EXPECT_EQ(edge.caps[i].ac, full.caps[i].ac) << i;
    EXPECT_EQ(edge.caps[i].tag, full.caps[i].tag) << i;
    if (full.caps[i].tag.tau >= 3) continue;  // dead slot: values unspecified
    for (unsigned r = 0; r < 3; ++r)  // live rows are bit-identical
      EXPECT_EQ(edge.caps[i].values[r].bits(), full.caps[i].values[r].bits())
          << "tau " << full.caps[i].tag.tau << " row " << r;
  }
  EXPECT_TRUE(full.drained);
  EXPECT_TRUE(edge.drained);
  // Activity counts every lane the hardware clocks: H columns x 2 traversals
  // x 4 j-slots x L rows, dead lanes included.
  EXPECT_EQ(full.fma_ops, 2u * 2u * 4u * 4u);
  EXPECT_EQ(edge.fma_ops, full.fma_ops);
}

TEST(Datapath, DeadSlotScheduleIsStillChecked) {
  // A dead slot computes nothing, but its tags must still line up: column 1
  // receiving j-slot 2 while column 0 sent j-slot 3 aborts.
  Geometry g{2, 1, 0};  // two columns, latency 1
  Datapath dp(g);
  std::vector<Datapath::ColumnIssue> issues(2);
  const Float16 x = f16(1.0);
  issues[0].active = true;
  issues[0].tag = PipeTag{0, 0, 3, false};
  issues[0].first_traversal = true;
  issues[0].w = f16(1.0);
  issues[0].x = &x;
  issues[0].live_rows = 0;
  dp.advance(issues);
  issues[0] = Datapath::ColumnIssue{};
  issues[1] = Datapath::ColumnIssue{};
  issues[1].active = true;
  issues[1].tag = PipeTag{0, 0, 2, false};
  issues[1].w = f16(1.0);
  issues[1].x = &x;
  issues[1].live_rows = 0;
  EXPECT_DEATH(dp.advance(issues), "systolic schedule misaligned");
}

}  // namespace
}  // namespace redmule::core
