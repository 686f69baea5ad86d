/// The timing contract: simulated time does not depend on the operand
/// values. Every path runs twice, once on ordinary random operands and once
/// on operands salted with every FP16 value class (signed zeros,
/// subnormals, max normals, infinities, quiet and signalling NaNs), and
/// everything but the data must come out identical: the job counters, the
/// tiled and per-GEMM stats, and the non-memory state of the simulator, the
/// HCI, the DMA and the accelerator after every GEMM. The per-GEMM states
/// are taken from a TimingCache attached as a recorder: it stores the state
/// before and after each GEMM program (a tiled GEMM or a monolithic offload)
/// the cycle model runs. This contract is what lets a pooled cluster replay
/// a recorded GEMM (cluster/timing_cache.hpp), and the monolithic cases also
/// check that such a replay equals the model.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "cluster/tiled_gemm_runner.hpp"
#include "cluster/timing_cache.hpp"
#include "state/snapshot.hpp"
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

struct MonolithicCase {
  const char* name;
  core::Geometry geometry;
  uint32_t m, n, k;
  bool with_y;
};

/// Every default-TCDM geometry family, accumulation, odd n and k, and the
/// smallest job.
const MonolithicCase kMonolithicCases[] = {
    {"2x4x3", {2, 4, 3}, 37, 53, 29, false},
    {"4x8x3 acc", {4, 8, 3}, 37, 53, 29, true},
    {"8x8x3", {8, 8, 3}, 40, 24, 36, false},
    {"4x16x3 acc", {4, 16, 3}, 33, 20, 48, true},
    {"odd n and k", {4, 8, 3}, 12, 13, 13, true},
    {"1x1x1", {4, 8, 3}, 1, 1, 1, false},
};

ClusterConfig config_of(const MonolithicCase& c) {
  ClusterConfig cfg;
  cfg.geometry = c.geometry;
  while (cfg.tcdm.n_banks < cfg.geometry.mem_ports()) cfg.tcdm.n_banks *= 2;
  return cfg;
}

struct MonolithicRun {
  MatrixF16 z;
  core::JobStats stats;
  ModuleState after;
  state::ClusterImage image;
};

/// One offload of the case on a reset \p cl (which may have a cache), with
/// operands drawn from \p seed.
MonolithicRun offload(Cluster& cl, const MonolithicCase& c, bool salt, uint64_t seed = 1) {
  cl.reset();
  RedmuleDriver drv(cl);
  const MatrixF16 x = operand(c.m, c.n, split_seed(seed, 0), salt);
  const MatrixF16 w = operand(c.n, c.k, split_seed(seed, 1), salt);
  const MatrixF16 y = operand(c.m, c.k, split_seed(seed, 2), salt);
  RedmuleDriver::GemmResult res = c.with_y ? drv.gemm_acc(x, w, y) : drv.gemm(x, w);
  return {std::move(res.z), res.stats, ModuleState::save(cl), state::snapshot(cl)};
}

bool same_bits(const MatrixF16& a, const MatrixF16& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(TimingContract, MonolithicGemm) {
  for (const MonolithicCase& c : kMonolithicCases) {
    TimingCache rec_plain, rec_salt;
    Cluster a(config_of(c)), b(config_of(c));
    a.set_timing_cache(&rec_plain);
    b.set_timing_cache(&rec_salt);
    const MonolithicRun plain = offload(a, c, false);
    const MonolithicRun salt = offload(b, c, true);
    EXPECT_EQ(plain.stats, salt.stats) << c.name;
    EXPECT_TRUE(plain.after == salt.after) << c.name;
    expect_same_recording(rec_plain, rec_salt, 1);
  }
}

TEST(TimingContract, MonolithicHitEqualsTheModel) {
  // Recorded on salted operands, replayed on ordinary ones drawn from
  // another seed (salted outputs are mostly NaN, which would hide a wrong
  // replayed Z): what a hit leaves depends on the key, never on the data.
  for (const MonolithicCase& c : kMonolithicCases) {
    TimingCache cache;
    Cluster pooled(config_of(c));
    pooled.set_timing_cache(&cache);
    (void)offload(pooled, c, true, 1);
    const MonolithicRun hit = offload(pooled, c, false, 2);
    ASSERT_EQ(cache.counters().hits, 1u) << c.name;
    EXPECT_EQ(cache.counters().replayed_cycles, hit.stats.cycles) << c.name;

    Cluster fresh(config_of(c));
    const MonolithicRun model = offload(fresh, c, false, 2);
    EXPECT_TRUE(same_bits(hit.z, model.z)) << c.name;
    EXPECT_EQ(hit.stats, model.stats) << c.name;
    EXPECT_TRUE(hit.after == model.after) << c.name;
    EXPECT_TRUE(hit.image == model.image) << c.name;
  }
}

/// One run_job() on a reset \p cl with Y at \p y_offset bytes past Z: 0 is
/// the in-place accumulation the tiled runner uses, anything else inside
/// Z's bytes a partial overlap.
MonolithicRun offload_in_place(Cluster& cl, uint32_t y_offset, uint64_t seed) {
  cl.reset();
  RedmuleDriver drv(cl);
  const uint32_t m = 12, n = 20, k = 18;
  core::Job job;
  job.x_ptr = drv.place_matrix(operand(m, n, split_seed(seed, 0), false));
  job.w_ptr = drv.place_matrix(operand(n, k, split_seed(seed, 1), false));
  job.z_ptr = drv.alloc(2 * m * k + y_offset);
  job.y_ptr = job.z_ptr + y_offset;
  drv.write_matrix(job.y_ptr, operand(m, k, split_seed(seed, 2), false));
  job.m = m;
  job.n = n;
  job.k = k;
  job.accumulate = true;
  MonolithicRun r;
  r.stats = drv.run_job(job);
  r.z = drv.read_matrix(job.z_ptr, m, k);
  r.after = ModuleState::save(cl);
  r.image = state::snapshot(cl);
  return r;
}

TEST(TimingContract, MonolithicYAliasingZ) {
  ClusterConfig cfg;
  for (const uint32_t y_offset : {0u, 4u}) {
    TimingCache cache;
    Cluster pooled(cfg), fresh(cfg);
    pooled.set_timing_cache(&cache);
    (void)offload_in_place(pooled, y_offset, 1);
    const MonolithicRun run = offload_in_place(pooled, y_offset, 2);
    const MonolithicRun model = offload_in_place(fresh, y_offset, 2);
    EXPECT_TRUE(same_bits(run.z, model.z)) << "y_offset " << y_offset;
    EXPECT_EQ(run.stats, model.stats) << "y_offset " << y_offset;
    EXPECT_TRUE(run.after == model.after) << "y_offset " << y_offset;
    EXPECT_TRUE(run.image == model.image) << "y_offset " << y_offset;
    // Y == Z replays; a Y that only partly overlaps Z runs the model.
    EXPECT_EQ(cache.counters().hits, y_offset == 0 ? 1u : 0u) << "y_offset " << y_offset;
    EXPECT_EQ(cache.counters().misses, y_offset == 0 ? 1u : 0u) << "y_offset " << y_offset;
  }
}

TEST(TimingContract, ScheduleObserverBypassesTheCache) {
  const MonolithicCase& c = kMonolithicCases[1];
  TimingCache cache;
  Cluster pooled(config_of(c));
  pooled.set_timing_cache(&cache);
  (void)offload(pooled, c, false);  // records the job
  uint64_t advances = 0;
  pooled.redmule().set_schedule_observer(
      [&](uint64_t, const std::vector<core::Datapath::ColumnIssue>&,
          const std::optional<core::Datapath::Capture>&) { ++advances; });
  const MonolithicRun observed = offload(pooled, c, false);
  EXPECT_GT(advances, 0u) << "the observer must see the model's schedule";
  EXPECT_EQ(cache.counters().hits, 0u);
  EXPECT_EQ(cache.counters().misses, 1u);
  Cluster fresh(config_of(c));
  EXPECT_EQ(observed.stats, offload(fresh, c, false).stats);
}

TEST(TimingContract, ClusterStillDrainingAfterTheModelIsNotRecorded) {
  // A model run that leaves the cluster mid-flight, here with a DMA
  // transfer still streaming, cannot be captured: the seam records nothing.
  TimingCache cache;
  Cluster cl;
  cl.set_timing_cache(&cache);
  RedmuleDriver drv(cl);
  core::Job job;
  job.x_ptr = drv.place_matrix(operand(4, 8, 1, false));
  job.w_ptr = drv.place_matrix(operand(8, 6, 2, false));
  job.z_ptr = drv.alloc(4 * 6 * 2);
  job.m = 4;
  job.n = 8;
  job.k = 6;
  const auto model = [&] {
    drv.start_job(job);
    (void)drv.wait_job();
    (void)cl.dma().submit({cl.l2().config().base_addr, job.x_ptr, 64});
    return TiledGemmStats{};
  };
  (void)run_gemm_program(cl, false, job, model, [](const ReplayedGemm&) {});
  EXPECT_FALSE(cl.sim().quiescent());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.counters().misses, 0u);
}

TEST(TimingKey, TiledAndMonolithicKeysNeverCompareEqual) {
  // The same config and pre-state, and a job whose fields mirror the tiled
  // program's addresses and extents: only the program kind differs.
  Cluster cl;
  const ModuleState pre = ModuleState::save(cl);
  TiledProgram tiled;
  tiled.addrs = {0x100, 0x200, 0x300, 0x300};
  tiled.plan.m = tiled.plan.tile_m = 4;
  tiled.plan.n = tiled.plan.tile_n = 4;
  tiled.plan.k = tiled.plan.tile_k = 4;
  core::Job job;
  job.x_ptr = 0x100;
  job.w_ptr = 0x200;
  job.z_ptr = job.y_ptr = 0x300;
  job.m = job.n = job.k = 4;
  const TimingKey a{cl.config(), pre, tiled};
  const TimingKey b{cl.config(), pre, job};
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == TimingKey(a));
  EXPECT_TRUE(b == TimingKey(b));

  TimingCache cache;
  cache.insert(a, TimingOutcome{pre, {}});
  EXPECT_EQ(cache.find(b), nullptr);
  EXPECT_NE(cache.find(a), nullptr);
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
