/// Architectural invisibility of the kernel's idle protocol: idle skipping,
/// commit partitioning and quiescence fast-forward change host time only.
/// Every observable -- simulated cycle counts, per-job statistics, memory
/// contents, FP16 bit patterns -- must be identical with skipping disabled.
#include <gtest/gtest.h>

#include "api/workload.hpp"
#include "cluster/cluster.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "fp16/float16.hpp"
#include "mem/dma.hpp"
#include "sim/simulator.hpp"
#include "workloads/gemm.hpp"
#include "workloads/network.hpp"

namespace redmule::sim {
namespace {

// --------------------------------------------------------------------------
// Kernel-level behavior.
// --------------------------------------------------------------------------

/// Idle for the first \p idle_cycles is_idle() queries, then busy forever.
class WakesLater : public Clocked {
 public:
  explicit WakesLater(int idle_queries) : idle_left_(idle_queries) {}
  void tick() override { ++ticks; }
  void commit() override { ++commits; }
  bool is_idle() const override {
    if (idle_left_ > 0) {
      --idle_left_;
      return true;
    }
    return false;
  }
  int ticks = 0;
  int commits = 0;

 private:
  mutable int idle_left_;
};

class AlwaysIdle : public Clocked {
 public:
  void tick() override { ++ticks; }
  void commit() override { ++commits; }
  bool is_idle() const override { return true; }
  int ticks = 0;
  int commits = 0;
};

class NeverIdle : public Clocked {
 public:
  void tick() override { ++ticks; }
  void commit() override { ++commits; }
  int ticks = 0;
  int commits = 0;
};

/// Declares has_commit() == false; a (buggy) commit would be observable.
class CommitLess : public Clocked {
 public:
  void tick() override { ++ticks; }
  void commit() override { ++commits; }  // must never run: off the phase-2 list
  bool has_commit() const override { return false; }
  int ticks = 0;
  int commits = 0;
};

TEST(IdleSkip, IdleModulesAreNotTicked) {
  Simulator sim;
  AlwaysIdle idle;
  NeverIdle busy;
  sim.add(&idle);
  sim.add(&busy);
  for (int i = 0; i < 10; ++i) sim.step();
  EXPECT_EQ(idle.ticks, 0);
  EXPECT_EQ(idle.commits, 0);
  EXPECT_EQ(busy.ticks, 10);
  EXPECT_EQ(busy.commits, 10);
  EXPECT_EQ(sim.cycle(), 10u);
  EXPECT_EQ(sim.skipped_module_ticks(), 10u);
}

TEST(IdleSkip, DisabledSkippingRestoresNaiveLoop) {
  Simulator sim;
  sim.set_idle_skipping(false);
  AlwaysIdle idle;
  sim.add(&idle);
  for (int i = 0; i < 5; ++i) sim.step();
  EXPECT_EQ(idle.ticks, 5);
  EXPECT_EQ(idle.commits, 5);
  EXPECT_EQ(sim.skipped_module_ticks(), 0u);
}

TEST(IdleSkip, CommitPartitionSkipsCommitlessModules) {
  Simulator sim;
  CommitLess m;
  sim.add(&m);
  for (int i = 0; i < 7; ++i) sim.step();
  EXPECT_EQ(m.ticks, 7);
  EXPECT_EQ(m.commits, 0);  // never on the phase-2 list
}

TEST(IdleSkip, QuiescenceFastForwardPreservesCycleCount) {
  Simulator sim;
  AlwaysIdle idle;
  sim.add(&idle);
  // Nothing can ever change: run_until must still advance exactly one cycle
  // per iteration so cycle-dependent conditions behave identically.
  EXPECT_TRUE(sim.run_until([&] { return sim.cycle() >= 123; }, 1000));
  EXPECT_EQ(sim.cycle(), 123u);
  EXPECT_EQ(idle.ticks, 0);
  EXPECT_GT(sim.fast_forwarded_cycles(), 0u);

  Simulator naive;
  AlwaysIdle idle2;
  naive.set_idle_skipping(false);
  naive.add(&idle2);
  EXPECT_TRUE(naive.run_until([&] { return naive.cycle() >= 123; }, 1000));
  EXPECT_EQ(naive.cycle(), 123u);
  EXPECT_EQ(idle2.ticks, 123);
  EXPECT_EQ(naive.fast_forwarded_cycles(), 0u);
}

TEST(IdleSkip, WakingModuleIsTickedAgain) {
  Simulator sim;
  WakesLater m(3);  // one is_idle query per step while idle
  sim.add(&m);
  for (int i = 0; i < 10; ++i) sim.step();
  EXPECT_EQ(m.ticks, 7);
  EXPECT_EQ(m.commits, 7);
}

// --------------------------------------------------------------------------
// Cluster-level invisibility: full GEMM jobs and DMA transfers.
// --------------------------------------------------------------------------

struct GemmOutcome {
  core::JobStats stats;
  uint64_t sim_cycles;
  cluster::MatrixF16 z;
};

GemmOutcome run_gemm(bool skipping, uint32_t m, uint32_t n, uint32_t k,
                     uint64_t seed) {
  cluster::Cluster cl;
  cl.sim().set_idle_skipping(skipping);
  cluster::RedmuleDriver drv(cl);
  Xoshiro256 rng(seed);
  const auto x = workloads::random_matrix(m, n, rng);
  const auto w = workloads::random_matrix(n, k, rng);
  auto res = drv.gemm(x, w);
  return {res.stats, cl.cycle(), std::move(res.z)};
}

TEST(IdleSkip, GemmCycleCountsAndBitsUnchanged) {
  for (const uint32_t size : {8u, 24u, 33u}) {
    const GemmOutcome fast = run_gemm(true, size, size, size, size);
    const GemmOutcome naive = run_gemm(false, size, size, size, size);
    EXPECT_EQ(fast.stats.cycles, naive.stats.cycles) << "size " << size;
    EXPECT_EQ(fast.stats.advance_cycles, naive.stats.advance_cycles);
    EXPECT_EQ(fast.stats.stall_cycles, naive.stats.stall_cycles);
    EXPECT_EQ(fast.stats.fma_ops, naive.stats.fma_ops);
    EXPECT_EQ(fast.sim_cycles, naive.sim_cycles) << "size " << size;
    ASSERT_EQ(fast.z.rows(), naive.z.rows());
    ASSERT_EQ(fast.z.cols(), naive.z.cols());
    for (size_t r = 0; r < fast.z.rows(); ++r)
      for (size_t c = 0; c < fast.z.cols(); ++c)
        ASSERT_EQ(fast.z(r, c).bits(), naive.z(r, c).bits())
            << "size " << size << " z[" << r << "," << c << "]";
  }
}

uint64_t run_dma_roundtrip(bool skipping) {
  mem::Tcdm tcdm;
  mem::Hci hci{tcdm, {}};
  mem::L2Memory l2;
  mem::DmaEngine dma{hci, l2, {}};
  Simulator sim;
  sim.set_idle_skipping(skipping);
  sim.add(&dma);
  sim.add(&hci);

  std::vector<uint8_t> data(512);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 7);
  l2.write(l2.config().base_addr, data.data(), data.size());

  mem::DmaTransfer in;
  in.l2_addr = l2.config().base_addr;
  in.tcdm_addr = tcdm.config().base_addr;
  in.len_bytes = 512;
  in.dir = mem::DmaDirection::kL2ToTcdm;
  const uint64_t id_in = dma.submit(in);
  EXPECT_TRUE(sim.run_until([&] { return dma.done(id_in); }, 10000));

  // Idle gap while nothing is in flight, then a write-back burst.
  const uint64_t gap_start = sim.cycle();
  while (sim.cycle() < gap_start + 50) sim.step();

  mem::DmaTransfer out = in;
  out.dir = mem::DmaDirection::kTcdmToL2;
  out.l2_addr = l2.config().base_addr + 4096;
  const uint64_t id_out = dma.submit(out);
  EXPECT_TRUE(sim.run_until([&] { return dma.done(id_out); }, 10000));

  std::vector<uint8_t> got(512);
  l2.read(out.l2_addr, got.data(), got.size());
  EXPECT_EQ(got, data);
  return sim.cycle();
}

TEST(IdleSkip, DmaBurstCycleCountUnchanged) {
  EXPECT_EQ(run_dma_roundtrip(true), run_dma_roundtrip(false));
}

// --------------------------------------------------------------------------
// The shipping kernel (FMA fast path, row kernel, idle skipping) against the
// reference (every FMA through the soft core, every module ticked) on the
// paper autoencoder's training step, where most datapath FMAs produce an
// exact zero: a zero W operand (ReLU-masked gradients, padded lanes) times a
// zero accumulator.
// --------------------------------------------------------------------------

struct TrainingOutcome {
  uint64_t z_hash = 0;  ///< the network workload's fold: output, then each dW
  uint64_t sim_cycles = 0;
  cluster::NetworkStats stats;
};

TrainingOutcome run_training_step(bool shipping, uint32_t batch) {
  api::NetworkTrainingSpec spec;
  spec.net.input_dim = 128;
  spec.net.hidden = {64, 64, 64, 64, 8, 64, 64, 64, 64};
  spec.net.batch = batch;
  const api::NetworkTrainingWorkload wl(spec);
  cluster::Cluster cl(api::resolve_cluster_config({}, wl.requirements()));
  cl.sim().set_idle_skipping(shipping);
  fp16::set_fast_fma_enabled(shipping);

  cluster::RedmuleDriver drv(cl);
  api::NetworkInputs in = api::draw_network_inputs(spec);
  cluster::NetworkRunner runner(cl, drv);
  auto r = runner.training_step(in.net, in.x, in.x, spec.lr);
  fp16::set_fast_fma_enabled(true);

  TrainingOutcome out;
  out.z_hash = api::hash_training_step(r.out, r.dw);
  out.sim_cycles = cl.cycle();
  out.stats = std::move(r.stats);
  return out;
}

TEST(IdleSkip, AutoencoderTrainingStepMatchesReferenceKernel) {
  using Phase = workloads::AeGemm::Phase;
  for (const uint32_t batch : {4u, 16u}) {
    const TrainingOutcome ref = run_training_step(false, batch);
    const TrainingOutcome fast = run_training_step(true, batch);
    EXPECT_EQ(fast.z_hash, ref.z_hash) << "B=" << batch;
    EXPECT_EQ(fast.sim_cycles, ref.sim_cycles) << "B=" << batch;
    EXPECT_EQ(fast.stats.total_cycles, ref.stats.total_cycles) << "B=" << batch;
    EXPECT_EQ(fast.stats.macs, ref.stats.macs) << "B=" << batch;
    for (const Phase p : {Phase::kForward, Phase::kGradInput, Phase::kGradWeight})
      EXPECT_EQ(fast.stats.phase_cycles(p), ref.stats.phase_cycles(p))
          << "B=" << batch << " phase " << workloads::AeGemm::phase_name(p);
    ASSERT_EQ(fast.stats.gemms.size(), ref.stats.gemms.size());
    for (size_t i = 0; i < fast.stats.gemms.size(); ++i)
      EXPECT_EQ(fast.stats.gemms[i].tiled.fma_ops, ref.stats.gemms[i].tiled.fma_ops)
          << "B=" << batch << " gemm " << i;
  }
}

}  // namespace
}  // namespace redmule::sim
