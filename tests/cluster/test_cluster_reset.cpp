// Cluster::reset() contract: a reused (reset) cluster instance is
// observably bit-equal to a freshly constructed one -- back-to-back jobs,
// jobs after an aborted mid-flight job, memories, counters, statistics.
// The snapshot/fork provisioning path extends the same promise: a cluster
// provisioned by restoring a template image must be bit-equal to one that
// was freshly constructed and staged.
#include <gtest/gtest.h>

#include <cstring>

#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "cluster/tiled_gemm_runner.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/regfile.hpp"
#include "isa/assembler.hpp"
#include "sim/run_control.hpp"
#include "state/snapshot.hpp"
#include "workloads/gemm.hpp"
#include "workloads/network.hpp"

using namespace redmule;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::NetworkRunner;
using cluster::RedmuleDriver;

namespace {

struct JobOutcome {
  core::JobStats stats;
  core::MatrixF16 z;
};

// One full GEMM with inputs drawn from \p seed on \p drv's cluster, which
// must be in the fresh (or freshly reset) state.
JobOutcome run_job(RedmuleDriver& drv, uint64_t seed, uint32_t m, uint32_t n,
                   uint32_t k) {
  Xoshiro256 rng(seed);
  const auto x = workloads::random_matrix(m, n, rng);
  const auto w = workloads::random_matrix(n, k, rng);
  auto res = drv.gemm(x, w);
  return {res.stats, std::move(res.z)};
}

JobOutcome run_on_fresh_cluster(uint64_t seed, uint32_t m, uint32_t n, uint32_t k) {
  Cluster cl{ClusterConfig{}};
  RedmuleDriver drv(cl);
  return run_job(drv, seed, m, n, k);
}

void expect_same(const JobOutcome& a, const JobOutcome& b, const char* what) {
  EXPECT_EQ(a.stats.cycles, b.stats.cycles) << what;
  EXPECT_EQ(a.stats.advance_cycles, b.stats.advance_cycles) << what;
  EXPECT_EQ(a.stats.stall_cycles, b.stats.stall_cycles) << what;
  EXPECT_EQ(a.stats.macs, b.stats.macs) << what;
  EXPECT_EQ(a.stats.fma_ops, b.stats.fma_ops) << what;
  ASSERT_EQ(a.z.rows(), b.z.rows());
  ASSERT_EQ(a.z.cols(), b.z.cols());
  EXPECT_EQ(std::memcmp(a.z.data(), b.z.data(), a.z.size_bytes()), 0) << what;
}

}  // namespace

TEST(ClusterReset, BackToBackJobsMatchFreshClusters) {
  Cluster cl{ClusterConfig{}};
  RedmuleDriver drv(cl);
  const std::tuple<uint32_t, uint32_t, uint32_t> shapes[] = {
      {32, 32, 32}, {16, 24, 16}, {17, 33, 31}, {8, 8, 8}};
  for (size_t i = 0; i < std::size(shapes); ++i) {
    const auto [m, n, k] = shapes[i];
    const uint64_t seed = split_seed(11, i);
    drv.reset();
    const JobOutcome reused = run_job(drv, seed, m, n, k);
    const JobOutcome fresh = run_on_fresh_cluster(seed, m, n, k);
    expect_same(reused, fresh, "reused cluster vs fresh cluster");
  }
}

TEST(ClusterReset, ResetAfterAbortedJobMatchesFresh) {
  Cluster cl{ClusterConfig{}};
  RedmuleDriver drv(cl);

  // Start a job and abandon it mid-flight: program the register file the way
  // a core would, trigger, then advance only part of the way.
  {
    Xoshiro256 rng(99);
    const auto x = workloads::random_matrix(32, 32, rng);
    const auto w = workloads::random_matrix(32, 32, rng);
    const uint32_t xa = drv.place_matrix(x);
    const uint32_t wa = drv.place_matrix(w);
    const uint32_t za = drv.alloc(32 * 32 * 2);
    auto& rm = cl.redmule();
    rm.reg_write(core::kRegXPtr, xa);
    rm.reg_write(core::kRegWPtr, wa);
    rm.reg_write(core::kRegZPtr, za);
    rm.reg_write(core::kRegM, 32);
    rm.reg_write(core::kRegN, 32);
    rm.reg_write(core::kRegK, 32);
    rm.reg_write(core::kRegFlags, 0);
    rm.reg_write(core::kRegTrigger, 0);
    for (int i = 0; i < 200; ++i) cl.step();
    ASSERT_TRUE(rm.busy());  // genuinely mid-job
  }

  drv.reset();
  EXPECT_FALSE(cl.redmule().busy());
  EXPECT_EQ(cl.cycle(), 0u);

  const JobOutcome after_abort = run_job(drv, split_seed(11, 0), 32, 32, 32);
  const JobOutcome fresh = run_on_fresh_cluster(split_seed(11, 0), 32, 32, 32);
  expect_same(after_abort, fresh, "post-abort reset vs fresh cluster");
}

TEST(ClusterReset, ResetRestoresMemoriesCountersAndAllocator) {
  Cluster cl{ClusterConfig{}};
  RedmuleDriver drv(cl);
  const uint32_t free_at_start = drv.bytes_free();

  (void)run_job(drv, 5, 16, 16, 16);
  EXPECT_LT(drv.bytes_free(), free_at_start);
  EXPECT_GT(cl.cycle(), 0u);
  EXPECT_GT(cl.hci().shallow_grants(), 0u);

  drv.reset();
  EXPECT_EQ(drv.bytes_free(), free_at_start);
  EXPECT_EQ(cl.cycle(), 0u);
  EXPECT_EQ(cl.hci().shallow_grants(), 0u);
  EXPECT_EQ(cl.redmule().last_job_stats().cycles, 0u);

  // TCDM is all-zero again, like a freshly constructed memory.
  const auto& tcdm_cfg = cl.tcdm().config();
  std::vector<uint8_t> bytes(tcdm_cfg.size_bytes());
  cl.tcdm().backdoor_read(tcdm_cfg.base_addr, bytes.data(),
                          static_cast<uint32_t>(bytes.size()));
  for (size_t i = 0; i < bytes.size(); ++i) ASSERT_EQ(bytes[i], 0) << "byte " << i;
}

TEST(ClusterReset, RepeatedIdenticalJobsOnOneInstanceAreIdentical) {
  Cluster cl{ClusterConfig{}};
  RedmuleDriver drv(cl);
  drv.reset();
  const JobOutcome first = run_job(drv, 21, 24, 20, 40);
  for (int rep = 0; rep < 3; ++rep) {
    drv.reset();
    const JobOutcome again = run_job(drv, 21, 24, 20, 40);
    expect_same(again, first, "repeat on reused instance");
  }
}

// --- Snapshot/fork provisioning vs fresh staging -----------------------------

namespace {

// Fixed training problem for the fork-identity tests. The net is regenerated
// per run (lr != 0 writes the SGD update back into the host-side weights, so
// a shared NetworkGraph would leak state between runs).
workloads::NetworkGraph fork_test_net() {
  workloads::AutoencoderConfig acfg;
  acfg.input_dim = 24;
  acfg.hidden = {12, 6, 12};
  acfg.batch = 2;
  Xoshiro256 rng(split_seed(44, 0));
  return workloads::NetworkGraph::autoencoder(acfg, rng);
}

core::MatrixF16 fork_test_input(const workloads::NetworkGraph& net) {
  Xoshiro256 rng(split_seed(44, 1));
  return workloads::random_matrix(net.input_dim(), 2, rng);
}

struct TrainingOutcome {
  NetworkRunner::TrainingResult r;
};

// Runs the per-job half of a training step on \p cl, which must already hold
// the staged template (either freshly staged or restored from an image).
TrainingOutcome run_staged_training(Cluster& cl) {
  RedmuleDriver drv(cl);
  NetworkRunner runner(cl, drv);
  workloads::NetworkGraph net = fork_test_net();
  const auto x = fork_test_input(net);
  return {runner.training_step_staged(net, x, x, 0.01)};
}

void expect_same_training(const TrainingOutcome& a, const TrainingOutcome& b,
                          const char* what) {
  EXPECT_EQ(a.r.stats.total_cycles, b.r.stats.total_cycles) << what;
  EXPECT_EQ(a.r.stats.macs, b.r.stats.macs) << what;
  EXPECT_EQ(a.r.mse, b.r.mse) << what;
  ASSERT_EQ(a.r.out.size_bytes(), b.r.out.size_bytes());
  EXPECT_EQ(std::memcmp(a.r.out.data(), b.r.out.data(), a.r.out.size_bytes()), 0)
      << what;
  ASSERT_EQ(a.r.dw.size(), b.r.dw.size());
  for (size_t l = 0; l < a.r.dw.size(); ++l) {
    ASSERT_EQ(a.r.dw[l].size_bytes(), b.r.dw[l].size_bytes());
    EXPECT_EQ(std::memcmp(a.r.dw[l].data(), b.r.dw[l].data(),
                          a.r.dw[l].size_bytes()),
              0)
        << what << " dw[" << l << "]";
  }
}

// Leaves \p cl mid-job: register-file programming the way a core would,
// trigger, then advance only part of the way (same recipe as the abort test).
void abandon_job_mid_flight(Cluster& cl, RedmuleDriver& drv) {
  Xoshiro256 rng(99);
  const auto x = workloads::random_matrix(32, 32, rng);
  const auto w = workloads::random_matrix(32, 32, rng);
  const uint32_t xa = drv.place_matrix(x);
  const uint32_t wa = drv.place_matrix(w);
  const uint32_t za = drv.alloc(32 * 32 * 2);
  auto& rm = cl.redmule();
  rm.reg_write(core::kRegXPtr, xa);
  rm.reg_write(core::kRegWPtr, wa);
  rm.reg_write(core::kRegZPtr, za);
  rm.reg_write(core::kRegM, 32);
  rm.reg_write(core::kRegN, 32);
  rm.reg_write(core::kRegK, 32);
  rm.reg_write(core::kRegFlags, 0);
  rm.reg_write(core::kRegTrigger, 0);
  for (int i = 0; i < 200; ++i) cl.step();
  ASSERT_TRUE(rm.busy());  // genuinely mid-job
}

uint64_t core_mem_stalls(const Cluster& cl) {
  uint64_t stalls = 0;
  for (unsigned i = 0; i < cl.n_cores(); ++i) stalls += cl.core(i).stats().mem_stalls;
  return stalls;
}

// Leaves every module of \p cl mid-flight at once: the cores hammer one
// TCDM bank with loads while a tiled GEMM streams through the pipeline, a
// cycle budget aborts the pipeline, and the cluster steps on to a cycle that
// ends with a core waiting on a lost arbitration. The DMA then has
// transfers in flight, the engine is mid-tile, the interconnect holds live
// results and a core holds a pending memory access. Budgets grow until the
// abort lands while a tile computes and the next one streams in.
void abort_tiled_gemm_mid_pipeline(Cluster& cl) {
  const isa::Program load_loop = isa::assemble(R"(
    loop:
      lw t1, 0(a0)
      lw t1, 0(a0)
      lw t1, 0(a0)
      lw t1, 0(a0)
      j  loop
  )");
  Xoshiro256 rng(split_seed(44, 3));
  // X, W and Z overflow the 128 KiB TCDM, so the GEMM tiles.
  const auto x = workloads::random_matrix(128, 256, rng);
  const auto w = workloads::random_matrix(256, 128, rng);
  for (uint64_t budget = 1024; budget <= 64 * 1024; budget += 1024) {
    cl.reset();
    for (unsigned i = 0; i < cl.n_cores(); ++i) {
      cl.core(i).load_program(load_loop);
      cl.core(i).set_reg(10, cl.tcdm().config().base_addr);  // a0
    }
    RedmuleDriver drv(cl);
    sim::RunControl rc;
    rc.set_cycle_limit(budget);
    cl.install_run_control(&rc);
    EXPECT_THROW((void)cluster::TiledGemmRunner(cl, drv).run(x, w), sim::RunAborted);
    cl.install_run_control(nullptr);
    for (int i = 0; i < 64 && !cl.dma().idle() && cl.redmule().busy(); ++i) {
      const uint64_t stalls = core_mem_stalls(cl);
      cl.step();
      if (core_mem_stalls(cl) > stalls && !cl.dma().idle() && cl.redmule().busy())
        return;
    }
  }
  FAIL() << "no cycle left the DMA, the engine and a core all mid-flight";
}

}  // namespace

TEST(ClusterReset, ForkedClusterMatchesFreshlyStagedCluster) {
  // Oracle: a freshly constructed cluster, staged directly.
  Cluster fresh{ClusterConfig{}};
  {
    RedmuleDriver drv(fresh);
    NetworkRunner runner(fresh, drv);
    const workloads::NetworkGraph net = fork_test_net();
    runner.stage_training_template(net, 2);
  }
  const TrainingOutcome oracle = run_staged_training(fresh);

  // Fork: stage a donor once, snapshot, restore onto a *used* cluster.
  Cluster donor{ClusterConfig{}};
  {
    RedmuleDriver drv(donor);
    NetworkRunner runner(donor, drv);
    const workloads::NetworkGraph net = fork_test_net();
    runner.stage_training_template(net, 2);
  }
  const state::ClusterImage img = state::snapshot(donor);

  Cluster reused{ClusterConfig{}};
  {
    RedmuleDriver drv(reused);
    (void)run_job(drv, split_seed(44, 2), 16, 16, 16);  // prior history
  }
  state::restore(reused, img);
  const TrainingOutcome forked = run_staged_training(reused);
  expect_same_training(forked, oracle, "forked cluster vs freshly staged");
}

TEST(ClusterReset, RestoreAfterAbortedJobMatchesFreshlyStaged) {
  Cluster fresh{ClusterConfig{}};
  {
    RedmuleDriver drv(fresh);
    NetworkRunner runner(fresh, drv);
    const workloads::NetworkGraph net = fork_test_net();
    runner.stage_training_template(net, 2);
  }
  const state::ClusterImage img = state::snapshot(fresh);  // at the staged point
  const TrainingOutcome oracle = run_staged_training(fresh);

  // Abort a job mid-flight, then recover the cluster by restoring the
  // template image: restore must work from any state.
  Cluster cl{ClusterConfig{}};
  RedmuleDriver drv(cl);
  abandon_job_mid_flight(cl, drv);
  state::restore(cl, img);
  EXPECT_FALSE(cl.redmule().busy());
  const TrainingOutcome recovered = run_staged_training(cl);
  expect_same_training(recovered, oracle, "restore after abort vs fresh");
}

TEST(ClusterReset, RestoreAfterAbortedTiledPipelineMatchesFreshlyStaged) {
  // Restore resets no whole cluster: every module must clear its own
  // transient side. Wreck all of them at once, restore, and require the
  // image back exactly and the staged run to match the oracle.
  Cluster fresh{ClusterConfig{}};
  {
    RedmuleDriver drv(fresh);
    NetworkRunner runner(fresh, drv);
    const workloads::NetworkGraph net = fork_test_net();
    runner.stage_training_template(net, 2);
  }
  const state::ClusterImage img = state::snapshot(fresh);
  const TrainingOutcome oracle = run_staged_training(fresh);

  Cluster cl{ClusterConfig{}};
  abort_tiled_gemm_mid_pipeline(cl);
  ASSERT_FALSE(HasFailure());
  state::restore(cl, img);
  ASSERT_TRUE(cl.sim().quiescent()) << "restore left a module mid-flight";
  EXPECT_TRUE(state::snapshot(cl) == img) << "re-snapshot differs from the image";
  const TrainingOutcome recovered = run_staged_training(cl);
  expect_same_training(recovered, oracle, "restore after aborted pipeline vs fresh");
}

TEST(ClusterReset, MidFlightSnapshotIsRefusedWithTypedError) {
  Cluster cl{ClusterConfig{}};
  RedmuleDriver drv(cl);
  abandon_job_mid_flight(cl, drv);
  try {
    (void)state::snapshot(cl);
    FAIL() << "snapshot of a busy cluster must be refused";
  } catch (const api::TypedError& e) {
    EXPECT_EQ(e.code(), api::ErrorCode::kBadConfig);
  }
}
