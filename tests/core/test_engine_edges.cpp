/// Edge-shape engine tests: jobs whose last row tile has fewer than L rows
/// and whose last column tile has fewer than j_slots columns, so most array
/// lanes are dead (their results can never reach Z). Z must stay
/// bit-identical to the golden GEMM, nothing past Z may be written, and the
/// cycle and FMA-activity counters must keep the values pinned below.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "api/workload.hpp"
#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "core/golden.hpp"
#include "workloads/gemm.hpp"
#include "workloads/network.hpp"

namespace redmule::core {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::RedmuleDriver;
using workloads::random_matrix;

/// Not a pattern any FMA produces (non-canonical NaN payload).
constexpr uint16_t kGuard = 0x7D5A;

struct EdgeCase {
  Geometry g;
  uint32_t m, n, k;
  bool accumulate;
};

/// The sweep: K in {1, js-1, js+1}, M in {1, L-1, L+1}, N in {1, H+1}, with
/// and without Y accumulation, on three geometries ({H, L, P}).
std::vector<EdgeCase> edge_cases() {
  std::vector<EdgeCase> cases;
  for (const Geometry g : {Geometry{4, 8, 3}, Geometry{2, 4, 3}, Geometry{8, 8, 3}}) {
    const uint32_t js = g.j_slots();
    for (const bool acc : {false, true})
      for (const uint32_t m : {1u, g.l - 1, g.l + 1})
        for (const uint32_t n : {1u, g.h + 1})
          for (const uint32_t k : {1u, js - 1, js + 1})
            cases.push_back({g, m, n, k, acc});
  }
  return cases;
}

/// {JobStats.cycles, JobStats.fma_ops} per edge_cases() entry, in order.
/// Dead-lane elision must not move either: cycles are the schedule, and
/// fma_ops counts the lanes the hardware clocks, dead ones included.
constexpr std::array<std::array<uint64_t, 2>, 108> kPinned = {{
    // 4x8x3 geometry, Z = X*W; per line: one (M, N), K = 1, js-1, js+1
    {35, 512}, {35, 512}, {52, 1024},
    {51, 1024}, {51, 1024}, {84, 2048},
    {47, 512}, {47, 512}, {70, 1024},
    {63, 1024}, {63, 1024}, {102, 2048},
    {59, 1024}, {59, 1024}, {98, 2048},
    {91, 2048}, {91, 2048}, {162, 4096},
    // 4x8x3 geometry, Z = Y + X*W; per line: one (M, N), K = 1, js-1, js+1
    {36, 512}, {36, 512}, {54, 1024},
    {52, 1024}, {52, 1024}, {86, 2048},
    {54, 512}, {54, 512}, {84, 1024},
    {70, 1024}, {70, 1024}, {116, 2048},
    {68, 1024}, {68, 1024}, {114, 2048},
    {100, 2048}, {100, 2048}, {178, 4096},
    // 2x4x3 geometry, Z = X*W; per line: one (M, N), K = 1, js-1, js+1
    {19, 64}, {19, 64}, {28, 128},
    {27, 128}, {27, 128}, {44, 256},
    {23, 64}, {23, 64}, {34, 128},
    {31, 128}, {31, 128}, {50, 256},
    {31, 128}, {31, 128}, {50, 256},
    {47, 256}, {47, 256}, {82, 512},
    // 2x4x3 geometry, Z = Y + X*W; per line: one (M, N), K = 1, js-1, js+1
    {20, 64}, {20, 64}, {30, 128},
    {28, 128}, {28, 128}, {46, 256},
    {26, 64}, {26, 64}, {40, 128},
    {34, 128}, {34, 128}, {56, 256},
    {36, 128}, {36, 128}, {58, 256},
    {52, 256}, {52, 256}, {90, 512},
    // 8x8x3 geometry, Z = X*W; per line: one (M, N), K = 1, js-1, js+1
    {67, 2048}, {67, 2048}, {100, 4096},
    {99, 4096}, {99, 4096}, {164, 8192},
    {79, 2048}, {79, 2048}, {118, 4096},
    {111, 4096}, {111, 4096}, {182, 8192},
    {107, 4096}, {107, 4096}, {178, 8192},
    {171, 8192}, {171, 8192}, {306, 16384},
    // 8x8x3 geometry, Z = Y + X*W; per line: one (M, N), K = 1, js-1, js+1
    {68, 2048}, {68, 2048}, {102, 4096},
    {100, 4096}, {100, 4096}, {166, 8192},
    {86, 2048}, {86, 2048}, {132, 4096},
    {118, 4096}, {118, 4096}, {196, 8192},
    {116, 4096}, {116, 4096}, {194, 8192},
    {180, 8192}, {180, 8192}, {322, 16384},
}};

struct EdgeRun {
  JobStats stats;
  std::vector<uint16_t> z_and_guard;  ///< Z (M*K halfwords) then the guard
};

/// Runs \p c with Z followed by a guard of L rows plus one tile width of
/// halfwords -- everything a dead lane of the last tiles could address --
/// all pre-filled with kGuard.
EdgeRun run_edge(const EdgeCase& c, uint64_t seed) {
  // Wide geometries need more TCDM banks than the default cluster has.
  Cluster cl(api::resolve_cluster_config(ClusterConfig{}, {c.g}));
  RedmuleDriver drv(cl);
  Xoshiro256 rng(seed);
  const auto x = random_matrix(c.m, c.n, rng);
  const auto w = random_matrix(c.n, c.k, rng);
  const auto y = random_matrix(c.m, c.k, rng);
  const uint32_t guard = c.g.l * c.k + c.g.j_slots();
  const MatrixF16 fill(1, static_cast<size_t>(c.m) * c.k + guard,
                       fp16::Float16::from_bits(kGuard));
  Job job;
  job.x_ptr = drv.place_matrix(x);
  job.w_ptr = drv.place_matrix(w);
  job.y_ptr = drv.place_matrix(y);
  job.z_ptr = drv.place_matrix(fill);
  job.m = c.m;
  job.n = c.n;
  job.k = c.k;
  job.accumulate = c.accumulate;
  EdgeRun run;
  run.stats = drv.run_job(job);
  const MatrixF16 out = drv.read_matrix(job.z_ptr, 1, fill.cols());
  for (size_t i = 0; i < out.cols(); ++i) run.z_and_guard.push_back(out(0, i).bits());

  const MatrixF16 golden =
      golden_gemm_padded(x, w, c.g, c.accumulate ? &y : nullptr);
  for (uint32_t i = 0; i < c.m; ++i)
    for (uint32_t j = 0; j < c.k; ++j)
      EXPECT_EQ(run.z_and_guard[static_cast<size_t>(i) * c.k + j], golden(i, j).bits())
          << "Z(" << i << "," << j << ")";
  return run;
}

TEST(EngineEdges, DeadLanesNeverReachMemoryAndCountersArePinned) {
  const std::vector<EdgeCase> cases = edge_cases();
  ASSERT_EQ(cases.size(), kPinned.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    const EdgeCase& c = cases[i];
    SCOPED_TRACE(testing::Message()
                 << "case " << i << ": " << c.g.h << "x" << c.g.l << "x" << c.g.p
                 << " geometry, " << c.m << "x" << c.n << "x" << c.k
                 << (c.accumulate ? " +Y" : ""));
    const EdgeRun run = run_edge(c, 1000 + i);
    // The halfword just past row i's last column is row i+1's first one,
    // checked against the golden above; past the last row is the guard.
    const size_t z_size = static_cast<size_t>(c.m) * c.k;
    for (size_t h = z_size; h < run.z_and_guard.size(); ++h)
      ASSERT_EQ(run.z_and_guard[h], kGuard) << "guard halfword " << h - z_size;
    EXPECT_EQ(run.stats.cycles, kPinned[i][0]);
    EXPECT_EQ(run.stats.fma_ops, kPinned[i][1]);
  }
}

TEST(EngineEdges, BatchOneTrainingStepIsPinned) {
  // K = B = 1 in the forward and dX GEMMs: 15 of the 16 j-slots are dead.
  workloads::AutoencoderConfig cfg;
  cfg.input_dim = 128;
  cfg.hidden = {64, 64, 64, 64, 8, 64, 64, 64, 64};
  cfg.batch = 1;
  Xoshiro256 rng(21);
  workloads::NetworkGraph net = workloads::NetworkGraph::autoencoder(cfg, rng);
  const auto x = random_matrix(cfg.input_dim, cfg.batch, rng, -0.5, 0.5);
  Cluster cl;
  RedmuleDriver drv(cl);
  cluster::NetworkRunner runner(cl, drv);
  const auto r = runner.training_step(net, x, x, 0.01);

  const uint64_t h = api::hash_training_step(r.out, r.dw);
  uint64_t fma_ops = 0;
  for (const cluster::NetworkGemmStats& gs : r.stats.gemms) fma_ops += gs.tiled.fma_ops;
  using Phase = workloads::AeGemm::Phase;
  EXPECT_EQ(h, 0x4d41d4ae11d770d3ull);
  EXPECT_EQ(r.stats.total_cycles, 77259u);
  EXPECT_EQ(r.stats.phase_cycles(Phase::kForward), 32926u);
  EXPECT_EQ(r.stats.phase_cycles(Phase::kGradInput), 26607u);
  EXPECT_EQ(r.stats.phase_cycles(Phase::kGradWeight), 17726u);
  EXPECT_EQ(fma_ops, 1382400u);
}

}  // namespace
}  // namespace redmule::core
