/// The timing contract: simulated time does not depend on the operand
/// values. Every path runs twice, once on ordinary random operands and once
/// on operands salted with every FP16 value class (signed zeros,
/// subnormals, max normals, infinities, quiet and signalling NaNs), and
/// everything but the data must come out identical: the job counters, the
/// tiled and per-GEMM stats, and the non-memory state of the simulator, the
/// HCI, the DMA and the accelerator after every GEMM. The per-GEMM states
/// are taken from a TimingCache attached as a recorder: it stores the state
/// before and after each tiled GEMM the cycle model runs. This contract is
/// what lets a pooled cluster replay a recorded GEMM (cluster/timing_cache.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "cluster/tiled_gemm_runner.hpp"
#include "cluster/timing_cache.hpp"
#include "workloads/gemm.hpp"
#include "workloads/network.hpp"

namespace redmule::cluster {
namespace {

using core::MatrixF16;
using fp16::Float16;
using workloads::random_matrix;

/// +0, -0, min and max subnormals of both signs, +-max normal, +-Inf,
/// a quiet NaN, and a signalling NaN.
constexpr uint16_t kValueClasses[] = {0x0000, 0x8000, 0x0001, 0x83FF, 0x7BFF,
                                      0xFBFF, 0x7C00, 0xFC00, 0x7E00, 0x7D01};

/// Every third element replaced by the next value class, cycling.
MatrixF16 salted(MatrixF16 m) {
  const size_t n_classes = std::size(kValueClasses);
  for (size_t i = 0; i < m.rows() * m.cols(); i += 3)
    m.data()[i] = Float16::from_bits(kValueClasses[(i / 3) % n_classes]);
  return m;
}

MatrixF16 operand(size_t rows, size_t cols, uint64_t seed, bool salt) {
  Xoshiro256 rng(seed);
  MatrixF16 m = random_matrix(rows, cols, rng);
  return salt ? salted(std::move(m)) : m;
}

ClusterConfig small_tcdm(unsigned words_per_bank) {
  ClusterConfig cfg;
  cfg.tcdm.words_per_bank = words_per_bank;
  return cfg;
}

/// Per-GEMM (pre-state, post-state, stats) recorded by the cycle model, in
/// execution order.
struct Recorded {
  std::vector<TimingKey> keys;
  std::vector<TimingOutcome> outcomes;
};

Recorded recording(const TimingCache& cache) {
  Recorded r;
  cache.for_each_entry([&](const TimingKey& k, const TimingOutcome& o) {
    r.keys.insert(r.keys.begin(), k);  // entries come most recent first
    r.outcomes.insert(r.outcomes.begin(), o);
  });
  return r;
}

void expect_same_recording(const TimingCache& a, const TimingCache& b,
                           size_t expected_gemms) {
  EXPECT_EQ(a.counters().hits + b.counters().hits, 0u);
  const Recorded ra = recording(a);
  const Recorded rb = recording(b);
  ASSERT_EQ(ra.keys.size(), expected_gemms);
  ASSERT_EQ(rb.keys.size(), expected_gemms);
  for (size_t i = 0; i < expected_gemms; ++i) {
    EXPECT_TRUE(ra.keys[i] == rb.keys[i]) << "state before GEMM " << i;
    EXPECT_TRUE(ra.outcomes[i].post == rb.outcomes[i].post) << "state after GEMM " << i;
    EXPECT_EQ(ra.outcomes[i].stats, rb.outcomes[i].stats) << "stats of GEMM " << i;
  }
}

// --- Monolithic GEMM --------------------------------------------------------

struct MonolithicRun {
  core::JobStats stats;
  ModuleState after;
};

MonolithicRun run_monolithic(bool salt, bool with_y) {
  Cluster cl;
  RedmuleDriver drv(cl);
  const MatrixF16 x = operand(37, 53, 1, salt);
  const MatrixF16 w = operand(53, 29, 2, salt);
  const MatrixF16 y = operand(37, 29, 3, salt);
  MonolithicRun r;
  r.stats = with_y ? drv.gemm_acc(x, w, y).stats : drv.gemm(x, w).stats;
  r.after = ModuleState::save(cl);
  return r;
}

TEST(TimingContract, MonolithicGemm) {
  for (const bool with_y : {false, true}) {
    const MonolithicRun plain = run_monolithic(false, with_y);
    const MonolithicRun salt = run_monolithic(true, with_y);
    EXPECT_EQ(plain.stats, salt.stats) << "with_y=" << with_y;
    EXPECT_TRUE(plain.after == salt.after) << "with_y=" << with_y;
  }
}

// --- Tiled GEMM -------------------------------------------------------------

struct TiledRun {
  TiledGemmStats stats;
  workloads::TiledGemmPlan plan;
  ModuleState after;
};

TiledRun run_tiled(const ClusterConfig& cfg, uint32_t m, uint32_t n, uint32_t k,
                   bool with_y, bool double_buffer, bool salt, TimingCache& recorder) {
  Cluster cl(cfg);
  cl.set_timing_cache(&recorder);
  RedmuleDriver drv(cl);
  TiledGemmRunner runner(cl, drv, TiledGemmOptions{double_buffer});
  const MatrixF16 x = operand(m, n, 11, salt);
  const MatrixF16 w = operand(n, k, 12, salt);
  const MatrixF16 y = operand(m, k, 13, salt);
  const TiledGemmRunner::Result res = runner.run(x, w, with_y ? &y : nullptr);
  return TiledRun{res.stats, res.plan, ModuleState::save(cl)};
}

/// Runs the shape both ways and returns the ordinary run's end state.
ModuleState expect_tiled_contract(const ClusterConfig& cfg, uint32_t m, uint32_t n,
                                  uint32_t k, bool with_y, bool double_buffer,
                                  workloads::TiledGemmPlan* plan = nullptr) {
  TimingCache rec_plain, rec_salt;
  const TiledRun plain = run_tiled(cfg, m, n, k, with_y, double_buffer, false, rec_plain);
  const TiledRun salt = run_tiled(cfg, m, n, k, with_y, double_buffer, true, rec_salt);
  EXPECT_GT(plain.stats.steps, 1u) << "the shape must actually tile";
  EXPECT_EQ(plain.stats, salt.stats);
  EXPECT_TRUE(plain.after == salt.after);
  expect_same_recording(rec_plain, rec_salt, 1);
  if (plan != nullptr) *plan = plain.plan;
  return plain.after;
}

TEST(TimingContract, TiledWithDmaContention) {
  // A 16 KiB TCDM streams 96^3 in many tiles; the double-buffered DMA beats
  // contend with the streamer on the HCI.
  const ModuleState after = expect_tiled_contract(small_tcdm(256), 96, 96, 96, false, true);
  EXPECT_GT(after.dma.stall_cycles, 0u) << "no DMA/streamer contention";
}

TEST(TimingContract, TiledWithYPreload) {
  expect_tiled_contract(small_tcdm(256), 64, 48, 80, true, true);
}

TEST(TimingContract, TiledRaggedTiles) {
  for (const bool double_buffer : {true, false}) {
    workloads::TiledGemmPlan plan;
    expect_tiled_contract(small_tcdm(128), 90, 75, 54, false, double_buffer, &plan);
    EXPECT_NE(plan.m % plan.tile_m, 0u) << "ragged last row tile";
    EXPECT_NE(plan.k % plan.tile_k, 0u) << "ragged last column tile";
  }
}

// --- Network training step ----------------------------------------------------

struct NetworkRun {
  NetworkStats stats;
  ModuleState after;
};

NetworkRun run_network(bool salt, TimingCache& recorder) {
  workloads::AutoencoderConfig cfg;
  cfg.input_dim = 96;
  cfg.hidden = {64, 32, 64};
  cfg.batch = 4;
  Xoshiro256 rng(1234);
  workloads::NetworkGraph net = workloads::NetworkGraph::autoencoder(cfg, rng);
  if (salt)
    for (size_t l = 0; l < net.n_layers(); ++l) net.weight(l) = salted(net.weight(l));
  const MatrixF16 x = operand(cfg.input_dim, cfg.batch, 77, salt);
  Cluster cl(small_tcdm(128));  // 8 KiB: the 96x64 layers tile
  cl.set_timing_cache(&recorder);
  RedmuleDriver drv(cl);
  NetworkRunner runner(cl, drv);
  NetworkRun r;
  r.stats = runner.training_step(net, x, x, 0.01).stats;
  r.after = ModuleState::save(cl);
  return r;
}

TEST(TimingContract, NetworkTrainingStep) {
  TimingCache rec_plain, rec_salt;
  const NetworkRun plain = run_network(false, rec_plain);
  const NetworkRun salt = run_network(true, rec_salt);
  EXPECT_EQ(plain.stats.total_cycles, salt.stats.total_cycles);
  EXPECT_EQ(plain.stats.macs, salt.stats.macs);
  ASSERT_EQ(plain.stats.gemms.size(), salt.stats.gemms.size());
  for (size_t i = 0; i < plain.stats.gemms.size(); ++i)
    EXPECT_EQ(plain.stats.gemms[i], salt.stats.gemms[i]) << "GEMM " << i;
  EXPECT_TRUE(plain.after == salt.after);
  expect_same_recording(rec_plain, rec_salt, plain.stats.gemms.size());
}

}  // namespace
}  // namespace redmule::cluster
