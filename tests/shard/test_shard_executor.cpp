// Contracts of the sharded training step (shard/sharding.hpp):
//
//  - PLAN: plan_shards cuts at H-aligned (even) quanta, covers the batch
//    exactly once, keeps every interior slice even, and degrades to fewer
//    slices for small batches -- never an empty slice.
//  - ORACLE: for every shard count, the sharded step is bit-identical to
//    NetworkRunner::training_step on one cluster -- output, every per-layer
//    dW, every updated weight, and the MSE double.
//  - SEED STREAMS: redmule::split_seed gives every shard/job stream an
//    independent, order-free seed (the property the soak and benches lean
//    on when deriving per-shard scenarios from one base seed).
//  - WORKLOAD: "sharded_network:..." registry specs run through the service
//    stack and hash-match the plain "network:..." oracle spec.
#include "shard/sharding.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "common/rng.hpp"
#include "shard/sharded_workload.hpp"

using namespace redmule;
using cluster::NetworkRunner;
using core::MatrixF16;
using shard::plan_shards;
using shard::run_sharded_step;
using shard::ShardSlice;

namespace {

bool bit_equal(const MatrixF16& a, const MatrixF16& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j)
      if (a(i, j).bits() != b(i, j).bits()) return false;
  return true;
}

struct ShardCase {
  workloads::NetworkGraph net;
  MatrixF16 x;
  cluster::ClusterConfig cfg;
};

/// Net + inputs from one seed stream (the workload adapters' generation
/// order), plus the resolved cluster config the service would use.
ShardCase make_setup(const workloads::AutoencoderConfig& ae, uint64_t seed,
                 core::Geometry geom = {}) {
  Xoshiro256 rng(seed);
  ShardCase s{workloads::NetworkGraph::autoencoder(ae, rng), MatrixF16{},
          cluster::ClusterConfig{}};
  s.x = workloads::random_matrix(s.net.input_dim(), ae.batch, rng);
  api::NetworkTrainingSpec spec;
  spec.net = ae;
  spec.geometry = geom;
  spec.seed = seed;
  s.cfg = api::resolve_cluster_config(
      cluster::ClusterConfig{},
      api::NetworkTrainingWorkload(spec).requirements());
  return s;
}

struct Oracle {
  MatrixF16 out;
  std::vector<MatrixF16> dw;
  std::vector<MatrixF16> weights;
  double mse = 0.0;
  uint64_t cycles = 0;
};

Oracle oracle_step(const workloads::AutoencoderConfig& ae, uint64_t seed,
                   double lr) {
  ShardCase s = make_setup(ae, seed);
  cluster::Cluster cl(s.cfg);
  cluster::RedmuleDriver drv(cl);
  NetworkRunner runner(cl, drv);
  auto r = runner.training_step(s.net, s.x, s.x, lr);
  Oracle o;
  o.out = std::move(r.out);
  o.dw = std::move(r.dw);
  o.mse = r.mse;
  o.cycles = r.stats.total_cycles;
  for (size_t l = 0; l < s.net.n_layers(); ++l)
    o.weights.push_back(s.net.layer(l).weight);
  return o;
}

void expect_matches_oracle(const Oracle& o,
                           const shard::ShardedTrainingResult& r,
                           const workloads::NetworkGraph& net,
                           const std::string& tag) {
  EXPECT_TRUE(bit_equal(o.out, r.out)) << tag << ": output diverged";
  ASSERT_EQ(o.dw.size(), r.dw.size()) << tag;
  for (size_t l = 0; l < o.dw.size(); ++l)
    EXPECT_TRUE(bit_equal(o.dw[l], r.dw[l])) << tag << ": dW[" << l << "]";
  for (size_t l = 0; l < o.weights.size(); ++l)
    EXPECT_TRUE(bit_equal(o.weights[l], net.layer(l).weight))
        << tag << ": weight[" << l << "]";
  EXPECT_EQ(o.mse, r.mse) << tag << ": mse double diverged";
}

workloads::AutoencoderConfig small_ae(uint32_t batch) {
  workloads::AutoencoderConfig ae;
  ae.input_dim = 24;
  ae.hidden = {12, 6, 12};
  ae.batch = batch;
  return ae;
}

}  // namespace

// --- plan_shards -------------------------------------------------------------

TEST(ShardPlan, CoversBatchWithAlignedEvenInteriorSlices) {
  const core::Geometry g{4, 8, 3};
  for (uint32_t batch : {1u, 3u, 4u, 7u, 8u, 12u, 17u, 32u, 33u, 64u}) {
    for (uint32_t shards : {1u, 2u, 3u, 4u, 8u, 16u}) {
      const std::vector<ShardSlice> s = plan_shards(batch, shards, g);
      ASSERT_GE(s.size(), 1u);
      ASSERT_LE(s.size(), shards);
      uint32_t next = 0;
      for (size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s[i].begin, next) << batch << "/" << shards;
        EXPECT_GE(s[i].count, 1u);
        // Every boundary between slices is a multiple of the quantum (H
        // here), so every dW chain cut is H-aligned and interior slices
        // carry no pad columns.
        if (i + 1 < s.size()) {
          EXPECT_EQ(s[i].count % g.h, 0u) << batch << "/" << shards;
          EXPECT_EQ(s[i].count % 2, 0u) << batch << "/" << shards;
        }
        next += s[i].count;
      }
      EXPECT_EQ(next, batch) << batch << "/" << shards;
    }
  }
}

TEST(ShardPlan, OddHeightUsesDoubleQuantum) {
  const core::Geometry g{3, 4, 2};
  const auto s = plan_shards(24, 4, g);
  ASSERT_EQ(s.size(), 4u);
  for (size_t i = 0; i + 1 < s.size(); ++i) {
    EXPECT_EQ(s[i].count % (2 * g.h), 0u);  // quantum 2H keeps slices even
    EXPECT_EQ(s[i].count % 2, 0u);
  }
}

TEST(ShardPlan, SmallBatchDegradesToFewerShards) {
  const core::Geometry g{4, 8, 3};
  EXPECT_EQ(plan_shards(4, 8, g).size(), 1u);
  EXPECT_EQ(plan_shards(7, 8, g).size(), 2u);  // 4 + 3 (ragged tail)
  EXPECT_EQ(plan_shards(1, 4, g).size(), 1u);
}

// --- Bit-exactness against the single-cluster oracle -------------------------

TEST(ShardedStep, EveryShardCountMatchesOracle) {
  const double lr = 0.01;
  for (uint32_t batch : {4u, 12u, 15u}) {
    const workloads::AutoencoderConfig ae = small_ae(batch);
    const Oracle o = oracle_step(ae, split_seed(7, batch), lr);
    // One cluster for every shard count: each step resets it before every
    // slice and before the reduction, so earlier steps cannot leak in.
    cluster::Cluster cl(make_setup(ae, split_seed(7, batch)).cfg);
    for (uint32_t shards : {1u, 2u, 3u, 4u}) {
      ShardCase s = make_setup(ae, split_seed(7, batch));
      auto r = run_sharded_step(cl, s.net, s.x, s.x, lr, shards);
      std::string tag = "B";
      tag += std::to_string(batch);
      tag += "xS";
      tag += std::to_string(shards);
      expect_matches_oracle(o, r, s.net, tag);
      EXPECT_EQ(r.stats.shards, plan_shards(batch, shards, s.cfg.geometry).size());
    }
  }
}

TEST(ShardedStep, SingleSliceCyclesMatchMonolithicStep) {
  // One slice runs the same GEMM multiset with the same plans on one
  // cluster; the modeled makespan must equal the monolithic cycle count.
  const workloads::AutoencoderConfig ae = small_ae(8);
  const Oracle o = oracle_step(ae, 21, 0.01);
  ShardCase s = make_setup(ae, 21);
  cluster::Cluster cl(s.cfg);
  const auto r = run_sharded_step(cl, s.net, s.x, s.x, 0.01, 1);
  EXPECT_EQ(r.stats.makespan_cycles, o.cycles);
  EXPECT_EQ(r.stats.interconnect_bytes, 0u);
}

TEST(ShardedStep, CostModelChargesInterconnectOnlyWhenSharded) {
  const workloads::AutoencoderConfig ae = small_ae(16);
  ShardCase s1 = make_setup(ae, 66);
  cluster::Cluster r1(s1.cfg);
  const auto one = run_sharded_step(r1, s1.net, s1.x, s1.x, 0.0, 1);
  ShardCase s4 = make_setup(ae, 66);
  cluster::Cluster r4(s4.cfg);
  const auto four = run_sharded_step(r4, s4.net, s4.x, s4.x, 0.0, 4);

  EXPECT_EQ(one.stats.interconnect_bytes, 0u);
  EXPECT_GT(four.stats.interconnect_bytes, 0u);
  // The makespan covers the slowest shard's compute plus at least one
  // reduction slice behind it, and the per-shard compute shrinks vs the
  // full-batch run.
  uint64_t slowest = 0;
  for (uint64_t c : four.stats.shard_cycles) slowest = std::max(slowest, c);
  EXPECT_GT(four.stats.makespan_cycles, slowest);
  EXPECT_LT(slowest, one.stats.shard_cycles[0]);
  EXPECT_EQ(four.stats.macs, one.stats.macs);  // same useful work
}

TEST(ShardedStep, ReductionLayoutFitsTrainingSizedClusters) {
  // requirements() reuses the full training layout; the accumulator's
  // resident layout must always fit under it, for any dims/batch here.
  for (uint32_t batch : {1u, 2u, 8u, 33u}) {
    const std::vector<uint32_t> dims{24, 12, 6, 12, 24};
    EXPECT_LE(cluster::DwAccumulator::l2_bytes(dims, batch),
              cluster::NetworkRunner::training_l2_bytes(dims, batch))
        << batch;
  }
}

// --- split_seed shard-stream independence ------------------------------------

TEST(ShardSeeds, StreamsAreIndependentAndOrderFree) {
  // Every (base, stream) pair maps to one seed, regardless of when or where
  // it is computed, and adjacent streams never collide or correlate into
  // identical RNG output -- the property that lets shards, soak rounds and
  // bench jobs all derive their inputs from one base seed.
  const uint64_t base = 2022;
  std::set<uint64_t> seen;
  for (uint64_t stream = 0; stream < 256; ++stream) {
    const uint64_t s = split_seed(base, stream);
    EXPECT_TRUE(seen.insert(s).second) << "stream " << stream << " collided";
    EXPECT_EQ(s, split_seed(base, stream)) << "not a pure function";
  }
  // Distinct bases give distinct stream families (spot check).
  for (uint64_t stream = 0; stream < 64; ++stream)
    EXPECT_NE(split_seed(base, stream), split_seed(base + 1, stream));
  // Streams seed RNGs whose first draws differ (no trivial correlation).
  Xoshiro256 a(split_seed(base, 0)), b(split_seed(base, 1));
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(ShardSeeds, ShardedInputsMatchUnshardedForSameSeed) {
  // The sharded workload derives its net + batch from the SAME stream as the
  // plain network workload -- sharding must never reseed per shard.
  const uint64_t seed = split_seed(9, 4);
  Xoshiro256 r1(seed), r2(seed);
  const workloads::AutoencoderConfig ae = small_ae(8);
  auto n1 = workloads::NetworkGraph::autoencoder(ae, r1);
  auto n2 = workloads::NetworkGraph::autoencoder(ae, r2);
  const auto x1 = workloads::random_matrix(n1.input_dim(), ae.batch, r1);
  const auto x2 = workloads::random_matrix(n2.input_dim(), ae.batch, r2);
  EXPECT_TRUE(bit_equal(x1, x2));
  for (size_t l = 0; l < n1.n_layers(); ++l)
    EXPECT_TRUE(bit_equal(n1.layer(l).weight, n2.layer(l).weight));
}

// --- The registry workload through the service stack -------------------------

TEST(ShardedWorkload, RegistrySpecHashMatchesNetworkOracle) {
  const std::string tail = "in=24,hidden=12-6-12,batch=16,seed=77";
  std::string network = "network:";
  network += tail;
  auto oracle = api::WorkloadRegistry::global().create(network);
  const api::WorkloadResult ref = api::Service::run_one(*oracle);
  ASSERT_TRUE(ref.ok()) << ref.error.to_string();
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    std::string spec = "sharded_network:";
    spec += tail;
    spec += ",shards=";
    spec += std::to_string(shards);
    auto w = api::WorkloadRegistry::global().create(spec);
    EXPECT_EQ(w->requirements().l2_bytes, oracle->requirements().l2_bytes);
    const api::WorkloadResult r = api::Service::run_one(*w);
    ASSERT_TRUE(r.ok()) << r.error.to_string();
    EXPECT_EQ(r.z_hash, ref.z_hash) << "shards=" << shards;
    EXPECT_EQ(r.stats.macs, ref.stats.macs) << "shards=" << shards;
    if (shards == 1) {
      EXPECT_EQ(r.stats.cycles, ref.stats.cycles);
    }
  }
}

TEST(ShardedWorkload, RunsThroughServiceSubmission) {
  api::ServiceConfig cfg;
  cfg.n_threads = 2;
  api::Service service(cfg);
  auto ref = api::Service::run_one(*api::WorkloadRegistry::global().create(
      "network:in=24,hidden=12-6-12,batch=8,seed=5"));
  ASSERT_TRUE(ref.ok());
  std::vector<api::JobHandle> handles;
  for (int i = 0; i < 4; ++i)
    handles.push_back(service.submit(api::WorkloadRegistry::global().create(
        "sharded_network:in=24,hidden=12-6-12,batch=8,seed=5,shards=2")));
  for (auto& h : handles) {
    const api::WorkloadResult r = h.get();
    ASSERT_TRUE(r.ok()) << r.error.to_string();
    EXPECT_EQ(r.z_hash, ref.z_hash);
  }
}

TEST(ShardedWorkload, WallBudgetCoversTheWholeStep) {
  // Every slice and the reduction arm their own control, but the wall
  // budget counts once from the start of the step. Half the fastest
  // unbounded step outlasts each of the nine phases (the reduction, the
  // largest, is about a third of the step), so only a job-wide budget fires.
  const auto w = api::WorkloadRegistry::global().create(
      "sharded_network:in=64,hidden=32-16-32,batch=64,shards=8,seed=9");
  int64_t fastest_ms = INT64_MAX;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(api::Service::run_one(*w).ok());
    fastest_ms = std::min<int64_t>(
        fastest_ms, std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  api::RunContext ctx;
  ctx.deadline.max_wall_ms =
      static_cast<uint64_t>(std::max<int64_t>(1, fastest_ms / 2));
  const api::WorkloadResult r = api::Service::run_one(*w, {}, false, ctx);
  EXPECT_EQ(r.error.code, api::ErrorCode::kTimeout)
      << "budget " << ctx.deadline.max_wall_ms << " ms of a " << fastest_ms
      << " ms step: " << r.error.to_string();
}

TEST(ShardedWorkload, BadSpecsAreTypedErrors) {
  EXPECT_THROW(api::WorkloadRegistry::global().create(
                   "sharded_network:batch=8,shards=2,bogus=1"),
               api::TypedError);
  auto w = api::WorkloadRegistry::global().create(
      "sharded_network:in=24,hidden=12-6-12,batch=0,shards=2");
  EXPECT_EQ(w->validate().code, api::ErrorCode::kBadConfig);

  // Both kinds parse their shared keys with one parser; each kind's own keys
  // stay its own: network's input_seed and warm are refused here, with a
  // typed kBadConfig, while network itself still accepts them.
  for (const char* key : {"input_seed=3", "warm=1"}) {
    try {
      (void)api::WorkloadRegistry::global().create(
          std::string("sharded_network:batch=4,shards=2,") + key);
      ADD_FAILURE() << "sharded_network accepted " << key;
    } catch (const api::TypedError& e) {
      EXPECT_EQ(e.code(), api::ErrorCode::kBadConfig) << key;
    }
    EXPECT_NO_THROW((void)api::WorkloadRegistry::global().create(
        std::string("network:batch=4,") + key))
        << key;
  }
  EXPECT_THROW(api::WorkloadRegistry::global().create("network:batch=4,shards=2"),
               api::TypedError);
}
