// The timing cache soak: every user of the tiled seam, run on pooled
// clusters (where the cache records and replays), must be bit- and
// cycle-identical to Service::run_one on a fresh cluster (which never has a
// cache), and the cache must step aside whenever replaying could differ:
//
//  - SOAK: tiled (plain, acc=1, ragged), network cold and warm=1, and
//    sharded jobs through one 2-worker Service, twice; z_hash and JobStats
//    equal run_one's.
//  - STATE: a pooled cluster right after a hit has the snapshot fingerprint
//    (TCDM, L2, module states) of a fresh cluster that ran the model, and
//    per-GEMM network stats are identical.
//  - BYPASS: a cycle limit inside a recorded GEMM aborts on the model's
//    cycle with the model's error; a fault plan and idle skipping off run
//    the model and record nothing.
//  - BUDGET: a storm of distinct shapes stays within the byte budget,
//    evicts least recently used entries, and still matches the model.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/pool.hpp"
#include "api/service.hpp"
#include "api/workload.hpp"
#include "cluster/driver.hpp"
#include "cluster/network_runner.hpp"
#include "cluster/tiled_gemm_runner.hpp"
#include "cluster/timing_cache.hpp"
#include "state/snapshot.hpp"
#include "workloads/gemm.hpp"
#include "workloads/network.hpp"

using namespace redmule;
using api::Deadline;
using api::ErrorCode;
using api::JobHandle;
using api::Service;
using api::ServiceConfig;
using api::SubmitOptions;
using api::WorkloadRegistry;
using api::WorkloadResult;

namespace {

/// A 16 KiB TCDM, so the tiled specs stream through real tiles.
cluster::ClusterConfig small_base() {
  cluster::ClusterConfig base;
  base.tcdm.words_per_bank = 256;
  return base;
}

const char* kTiled = "tiled:m=48,n=48,k=48,geom=4x8x3,seed=11";
const char* kNetwork = "network:in=24,hidden=12-6-12,batch=2,geom=4x8x3,seed=24";

/// Every user of TiledGemmRunner::run_staged the registry can build.
const std::vector<std::string>& seam_specs() {
  static const std::vector<std::string> specs = {
      kTiled,
      "tiled:m=32,n=48,k=32,geom=2x4x3,seed=23,acc=1",
      "tiled:m=45,n=37,k=27,geom=4x8x3,seed=5",
      kNetwork,
      std::string(kNetwork) + ",warm=1",
      "network:in=32,hidden=16-8-16,batch=3,geom=2x4x3,seed=9,input_seed=4,warm=1",
      "sharded_network:in=24,hidden=12-6-12,batch=6,geom=4x8x3,seed=24,shards=3",
  };
  return specs;
}

struct Outcome {
  core::JobStats stats;
  uint64_t z_hash = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const WorkloadResult& r) { return {r.stats, r.z_hash}; }

/// Bit equality (Float16's operator== is IEEE equality: -0 == +0).
bool same_bits(const core::MatrixF16& a, const core::MatrixF16& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

WorkloadResult run_one(const std::string& spec, api::RunContext ctx = {}) {
  auto w = WorkloadRegistry::global().create(spec);
  return Service::run_one(*w, small_base(), false, ctx);
}

ServiceConfig service_config(unsigned threads) {
  ServiceConfig cfg;
  cfg.n_threads = threads;
  cfg.base = small_base();
  return cfg;
}

WorkloadResult submit(Service& service, const std::string& spec,
                      SubmitOptions opts = {}) {
  return service.submit(WorkloadRegistry::global().create(spec), opts).get();
}

}  // namespace

// --- Soak ---------------------------------------------------------------------

TEST(TimingCacheSoak, EverySeamUserMatchesRunOneTwice) {
  std::vector<Outcome> oracle;
  for (const std::string& spec : seam_specs()) {
    const WorkloadResult r = run_one(spec);
    ASSERT_TRUE(r.ok()) << spec << ": " << r.error.to_string();
    oracle.push_back(outcome_of(r));
  }

  Service service(service_config(2));
  for (int round = 0; round < 2; ++round) {
    std::vector<JobHandle> handles;
    for (const std::string& spec : seam_specs())
      handles.push_back(service.submit(WorkloadRegistry::global().create(spec)));
    for (size_t i = 0; i < handles.size(); ++i) {
      const WorkloadResult r = handles[i].get();
      ASSERT_TRUE(r.ok()) << seam_specs()[i] << ": " << r.error.to_string();
      EXPECT_EQ(outcome_of(r), oracle[i]) << "round " << round << ": " << seam_specs()[i];
    }
  }
  const api::ServiceStats st = service.stats();
  EXPECT_GT(st.timing_cache_misses, 0u);
  EXPECT_GT(st.timing_cache_hits, 0u);
  EXPECT_EQ(st.timing_cache_evictions, 0u);
  EXPECT_GT(st.timing_cache_bytes, 0u);
  EXPECT_LE(st.timing_cache_bytes, 2 * cluster::TimingCache::kBudgetBytes);
}

// --- State after a hit ------------------------------------------------------------

TEST(TimingCacheState, PooledClusterAfterAHitMatchesAFreshCluster) {
  api::ClusterPool pool;
  for (const std::string& spec : seam_specs()) {
    auto w = WorkloadRegistry::global().create(spec);
    const cluster::ClusterConfig cfg =
        api::resolve_cluster_config(small_base(), w->requirements());

    // The oracle takes the pooled run's path (cold, or staged template then
    // the per-job half) on a fresh cluster, which never has a cache.
    const std::string key = w->warm_by_default() ? w->template_key() : "";
    const auto stage = [&](cluster::Cluster& cl) { w->stage_template(cl); };
    cluster::Cluster fresh(cfg);
    api::RunContext ctx;
    if (!key.empty()) stage(fresh);
    const WorkloadResult oracle = key.empty() ? w->run(fresh, ctx) : w->run_staged(fresh, ctx);
    ASSERT_TRUE(oracle.ok()) << spec;
    const uint64_t fingerprint = state::snapshot(fresh).fingerprint;

    for (int i = 0; i < 2; ++i) {
      const uint64_t hits0 = pool.timing_cache().counters().hits;
      const api::ClusterPool::Acquired acq =
          key.empty() ? pool.acquire(cfg) : pool.acquire_template(cfg, key, stage);
      const WorkloadResult r = key.empty() ? w->run(*acq.cl, ctx) : w->run_staged(*acq.cl, ctx);
      ASSERT_TRUE(r.ok()) << spec;
      EXPECT_EQ(outcome_of(r), outcome_of(oracle)) << spec << " run " << i;
      EXPECT_EQ(state::snapshot(*acq.cl).fingerprint, fingerprint) << spec << " run " << i;
      if (i == 1) {
        EXPECT_GT(pool.timing_cache().counters().hits, hits0) << spec << ": no hit";
      }
    }
  }
}

TEST(TimingCacheState, PerGemmNetworkStatsAreIdentical) {
  workloads::AutoencoderConfig ae;
  ae.input_dim = 96;
  ae.hidden = {64, 32, 64};
  ae.batch = 4;
  cluster::ClusterConfig cfg;
  cfg.tcdm.words_per_bank = 128;  // 8 KiB: the 96x64 layers tile
  const auto step = [&](cluster::Cluster& cl) {
    Xoshiro256 rng(1234), rng_x(77);
    workloads::NetworkGraph net = workloads::NetworkGraph::autoencoder(ae, rng);
    const auto x = workloads::random_matrix(ae.input_dim, ae.batch, rng_x);
    cluster::RedmuleDriver drv(cl);
    cluster::NetworkRunner runner(cl, drv);
    return runner.training_step(net, x, x, 0.01);
  };
  cluster::Cluster fresh(cfg);
  const auto oracle = step(fresh);

  api::ClusterPool pool;
  for (int i = 0; i < 2; ++i) {
    cluster::Cluster& cl = *pool.acquire(cfg).cl;
    const auto r = step(cl);
    EXPECT_EQ(r.stats.gemms, oracle.stats.gemms) << "run " << i;
    EXPECT_EQ(r.stats.total_cycles, oracle.stats.total_cycles);
    EXPECT_TRUE(same_bits(r.out, oracle.out));
    ASSERT_EQ(r.dw.size(), oracle.dw.size());
    for (size_t l = 0; l < r.dw.size(); ++l) EXPECT_TRUE(same_bits(r.dw[l], oracle.dw[l]));
  }
  const cluster::TimingCache::Counters& c = pool.timing_cache().counters();
  EXPECT_EQ(c.misses, oracle.stats.gemms.size());
  EXPECT_EQ(c.hits, oracle.stats.gemms.size());
}

// --- Bypass rules ---------------------------------------------------------------

TEST(TimingCacheBypass, CycleLimitInsideARecordedGemmAbortsOnTheModelCycle) {
  // The tiled spec's one GEMM spans several tiles and checkpoint intervals,
  // so the model aborts well before the GEMM's end cycle; the network's
  // GEMMs that end before the budget still replay.
  Service service(service_config(1));
  for (const std::string spec : {kTiled, kNetwork}) {
    const WorkloadResult full = run_one(spec);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(submit(service, spec).ok());  // records every GEMM
    for (const uint64_t budget : {full.stats.cycles / 3, full.stats.cycles / 2 + 7,
                                  full.stats.cycles - 1}) {
      api::RunContext ctx;
      ctx.deadline = Deadline{budget, 0};
      const WorkloadResult model = run_one(spec, ctx);
      // A budget past the model's last checkpoint lets the job complete.
      if (budget < full.stats.cycles / 2) {
        ASSERT_EQ(model.error.code, ErrorCode::kTimeout) << model.error.to_string();
      }

      const uint64_t hits0 = service.stats().timing_cache_hits;
      SubmitOptions opts;
      opts.deadline = Deadline{budget, 0};
      const WorkloadResult pooled = submit(service, spec, opts);
      EXPECT_EQ(pooled.error.code, model.error.code);
      EXPECT_EQ(pooled.error.message, model.error.message) << spec << " budget " << budget;
      if (model.ok()) {
        EXPECT_EQ(outcome_of(pooled), outcome_of(model));
      }
      if (spec == kNetwork) {
        EXPECT_GT(service.stats().timing_cache_hits, hits0)
            << "GEMMs that end before the budget still replay";
      }
    }
  }
}

TEST(TimingCacheBypass, FaultPlanRunsTheModelAndRecordsNothing) {
  Service service(service_config(1));
  ASSERT_TRUE(submit(service, kTiled).ok());  // records the GEMM
  const api::ServiceStats before = service.stats();

  sim::FaultPlan plan;
  plan.add({sim::FaultKind::kDmaStall, 200, 300, -1});
  api::RunContext ctx;
  ctx.fault_plan = &plan;
  const WorkloadResult model = run_one(kTiled, ctx);
  ASSERT_TRUE(model.ok()) << model.error.to_string();
  EXPECT_GT(model.stats.cycles, run_one(kTiled).stats.cycles) << "the stall must cost cycles";

  SubmitOptions opts;
  opts.fault_plan = &plan;
  const WorkloadResult pooled = submit(service, kTiled, opts);
  ASSERT_TRUE(pooled.ok()) << pooled.error.to_string();
  EXPECT_EQ(outcome_of(pooled), outcome_of(model));
  const api::ServiceStats after = service.stats();
  EXPECT_EQ(after.timing_cache_hits, before.timing_cache_hits);
  EXPECT_EQ(after.timing_cache_misses, before.timing_cache_misses);
}

TEST(TimingCacheBypass, IdleSkippingOffRunsTheModelAndRecordsNothing) {
  auto w = WorkloadRegistry::global().create(kTiled);
  const cluster::ClusterConfig cfg =
      api::resolve_cluster_config(small_base(), w->requirements());
  const Outcome oracle = outcome_of(run_one(kTiled));
  api::ClusterPool pool;
  api::RunContext ctx;
  cluster::Cluster& cl = *pool.acquire(cfg).cl;
  ASSERT_EQ(outcome_of(w->run(cl, ctx)), oracle);  // records the GEMM
  cl.sim().set_idle_skipping(false);
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(outcome_of(w->run(*pool.acquire(cfg).cl, ctx)), oracle);
  EXPECT_EQ(pool.timing_cache().counters().hits, 0u);
  EXPECT_EQ(pool.timing_cache().counters().misses, 1u);
  cl.sim().set_idle_skipping(true);
  EXPECT_EQ(outcome_of(w->run(*pool.acquire(cfg).cl, ctx)), oracle);
  EXPECT_EQ(pool.timing_cache().counters().hits, 1u);
}

// --- Byte budget ----------------------------------------------------------------

TEST(TimingCacheBudget, ShapeStormStaysWithinBudgetAndMatchesTheModel) {
  cluster::ClusterConfig cfg;
  cfg.tcdm.words_per_bank = 128;
  // Room for a handful of entries, so the storm must evict.
  cluster::TimingCache cache(8 * 1024);
  cluster::Cluster cached(cfg), plain(cfg);
  cached.set_timing_cache(&cache);
  cluster::RedmuleDriver cached_drv(cached), plain_drv(plain);

  std::vector<workloads::GemmShape> shapes;
  for (uint32_t i = 0; i < 24; ++i)
    shapes.push_back({"", 20 + 3 * i, 16 + 2 * (i % 7), 18 + (5 * i) % 23});
  // The second pass runs the storm backwards, so its first shapes are the
  // most recently recorded ones and hit.
  std::vector<workloads::GemmShape> order = shapes;
  order.insert(order.end(), shapes.rbegin(), shapes.rend());
  for (size_t i = 0; i < order.size(); ++i) {
    const workloads::GemmShape& s = order[i];
    Xoshiro256 rng(split_seed(5, i));
    const auto x = workloads::random_matrix(s.m, s.n, rng);
    const auto w = workloads::random_matrix(s.n, s.k, rng);
    cached_drv.reset();
    plain_drv.reset();
    const auto got = cluster::TiledGemmRunner(cached, cached_drv).run(x, w);
    const auto want = cluster::TiledGemmRunner(plain, plain_drv).run(x, w);
    EXPECT_TRUE(same_bits(got.z, want.z)) << "shape " << i;
    EXPECT_EQ(got.stats, want.stats) << "shape " << i;
    EXPECT_EQ(state::snapshot(cached).fingerprint, state::snapshot(plain).fingerprint)
        << "shape " << i;
    EXPECT_LE(cache.counters().bytes, cache.budget_bytes());
  }
  const cluster::TimingCache::Counters& c = cache.counters();
  EXPECT_GT(c.evictions, 0u);
  EXPECT_GT(c.hits, 0u);
  EXPECT_EQ(c.hits + c.misses, order.size());
  EXPECT_EQ(c.misses - c.evictions, cache.entries());
}
