// Contracts of the public workload API (api/workload.hpp) and the async
// submission service (api/service.hpp):
//
//  - EQUIVALENCE: per-job z_hash/stats via the async api::Service are
//    bit-identical to the serial Service::run_one reference for equivalent
//    specs, across >= 2 thread counts, both priority orders, and pooled
//    clusters reused across jobs.
//  - ERROR TAXONOMY: oversized TCDM/L2 requests, invalid geometry, and a
//    throwing workload produce typed errors, never poison the worker's
//    pooled clusters, and leave subsequent jobs deterministic.
//  - SERVICE LIFECYCLE: futures, completion callbacks, priority ordering,
//    cancel(), drain(), and destruction with queued work.
//  - REGISTRY: spec strings round-trip to the right adapters; malformed
//    specs fail with kBadConfig.
#include "api/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "api/workload.hpp"
#include "common/rng.hpp"
#include "sim/fault_plan.hpp"

using namespace redmule;
using api::ErrorCode;
using api::JobHandle;
using api::Service;
using api::ServiceConfig;
using api::SubmitOptions;
using api::Workload;
using api::WorkloadRegistry;
using api::WorkloadResult;

namespace {

// The equivalence scenario set: monolithic GEMMs (plain + accumulate +
// non-default geometry), a tiled job that really tiles on the small base
// TCDM below, and a small network training step.
std::vector<std::string> scenarios() {
  return {
      "gemm:m=24,n=24,k=24,geom=4x8x3,seed=" + std::to_string(split_seed(99, 0)),
      "gemm:m=16,n=8,k=24,geom=2x4x3,acc=1,seed=" +
          std::to_string(split_seed(99, 1)),
      "tiled:m=48,n=48,k=48,geom=4x8x3,seed=" + std::to_string(split_seed(99, 2)),
      "network:in=24,hidden=12-6-12,batch=2,geom=4x8x3,seed=" +
          std::to_string(split_seed(99, 3)),
  };
}

/// Small-TCDM base so the tiled scenario streams through real tiles.
cluster::ClusterConfig small_base() {
  cluster::ClusterConfig base;
  base.tcdm.words_per_bank = 256;  // 16 KiB
  return base;
}

struct Outcome {
  uint64_t cycles, advance, stall, macs, fma_ops, z_hash;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const WorkloadResult& r) {
  return {r.stats.cycles,  r.stats.advance_cycles, r.stats.stall_cycles,
          r.stats.macs,    r.stats.fma_ops,        r.z_hash};
}

/// A workload that throws an untyped exception mid-run -- the EngineFault
/// path. Shares the default geometry's pool entry with real GEMM jobs so
/// pool-poisoning would be visible.
class ThrowingWorkload : public Workload {
 public:
  std::string name() const override { return "test:throwing"; }
  api::ClusterRequirements requirements() const override { return {}; }
  api::Error validate() const override { return {}; }
  WorkloadResult run(cluster::Cluster&, api::RunContext&) override {
    throw std::runtime_error("synthetic engine fault");
  }
};

/// A workload that blocks until released -- used to pin a worker so queue
/// ordering (priorities, cancel) becomes observable.
class BlockingWorkload : public Workload {
 public:
  std::string name() const override { return "test:blocking"; }
  api::ClusterRequirements requirements() const override { return {}; }
  api::Error validate() const override { return {}; }
  WorkloadResult run(cluster::Cluster&, api::RunContext&) override {
    started.set_value();
    release.get_future().wait();
    return {};
  }

  std::promise<void> started;
  std::promise<void> release;
};

/// Records its own tag on completion (via the result hash) so execution
/// order can be asserted.
class TagWorkload : public Workload {
 public:
  explicit TagWorkload(uint64_t tag) : tag_(tag) {}
  std::string name() const override { return "test:tag"; }
  api::ClusterRequirements requirements() const override { return {}; }
  api::Error validate() const override { return {}; }
  WorkloadResult run(cluster::Cluster&, api::RunContext&) override {
    WorkloadResult res;
    res.z_hash = tag_;
    return res;
  }

 private:
  uint64_t tag_;
};

}  // namespace

// --- Equivalence with the serial reference ----------------------------------

TEST(ApiService, MatchesSerialReferenceAcrossThreadsPrioritiesAndReuse) {
  const auto scen = scenarios();

  // Serial reference: each spec on its own fresh cluster via run_one.
  std::vector<WorkloadResult> ref;
  ref.reserve(scen.size());
  for (const std::string& spec : scen) {
    auto w = WorkloadRegistry::global().create(spec);
    ref.push_back(Service::run_one(*w, small_base()));
    ASSERT_TRUE(ref.back().ok()) << spec << ": " << ref.back().error.to_string();
  }

  for (const unsigned threads : {1u, 2u, 4u}) {
    ServiceConfig cfg;
    cfg.n_threads = threads;
    cfg.base = small_base();
    Service service(cfg);
    // The second pass runs on the pooled clusters the first one built.
    for (const bool ascending : {true, false}) {
      std::vector<JobHandle> handles;
      for (size_t i = 0; i < scen.size(); ++i) {
        SubmitOptions opts;
        opts.priority = ascending ? static_cast<int>(i)
                                  : static_cast<int>(scen.size() - i);
        opts.keep_output = true;
        handles.push_back(
            service.submit(WorkloadRegistry::global().create(scen[i]), opts));
      }
      for (size_t i = 0; i < handles.size(); ++i) {
        WorkloadResult r = handles[i].get();
        ASSERT_TRUE(r.ok()) << "t=" << threads << " asc=" << ascending << " job "
                            << i << ": " << r.error.to_string();
        EXPECT_EQ(outcome_of(r), outcome_of(ref[i]))
            << "t=" << threads << " asc=" << ascending << " job " << i;
        ASSERT_EQ(r.z.rows(), ref[i].z.rows());
        ASSERT_EQ(r.z.cols(), ref[i].z.cols());
        EXPECT_EQ(std::memcmp(r.z.data(), ref[i].z.data(), r.z.size_bytes()), 0)
            << "job " << i;
      }
    }
  }
}

// --- Error taxonomy ----------------------------------------------------------

TEST(ApiErrors, OversizedTiledJobIsCapacity) {
  // Operands past the 32-bit address space must fail typed, not wrap the
  // sizing loops or hang the worker.
  api::GemmSpec spec;
  spec.shape = {"huge", 30000, 30000, 30000};
  api::TiledGemmWorkload w(spec);
  const WorkloadResult r = Service::run_one(w);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kCapacity) << r.error.to_string();
}

TEST(ApiErrors, OversizedMonolithicJobIsCapacity) {
  // The monolithic path grows the TCDM; past the 32-bit cluster address
  // space that must be a typed Capacity error (the legacy sizing loop spun
  // forever on the wrapped 32-bit size product).
  api::GemmSpec spec;
  spec.shape = {"huge", 40000, 40000, 40000};
  api::GemmWorkload w(spec);
  const WorkloadResult r = Service::run_one(w);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kCapacity) << r.error.to_string();
}

TEST(ApiErrors, InvalidGeometryAndShapeAreBadConfig) {
  {
    api::GemmSpec spec;
    spec.shape = {"8^3", 8, 8, 8};
    spec.geometry = {0, 0, 0};
    api::GemmWorkload w(spec);
    const WorkloadResult r = Service::run_one(w);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.code, ErrorCode::kBadConfig) << r.error.to_string();
  }
  {
    api::GemmSpec spec;
    spec.shape = {"0x0x0", 0, 0, 0};
    api::GemmWorkload w(spec);
    const WorkloadResult r = Service::run_one(w);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.code, ErrorCode::kBadConfig) << r.error.to_string();
  }
  {
    api::NetworkTrainingSpec spec;
    spec.net.batch = 0;
    api::NetworkTrainingWorkload w(spec);
    const WorkloadResult r = Service::run_one(w);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.code, ErrorCode::kBadConfig) << r.error.to_string();
  }
}

TEST(ApiErrors, ThrowingWorkloadIsEngineFaultAndDoesNotPoisonThePool) {
  // One worker, so the faulting job and the real jobs share pooled clusters.
  ServiceConfig cfg;
  cfg.n_threads = 1;
  Service service(cfg);
  SubmitOptions keep;
  keep.keep_output = true;

  const std::string spec = "gemm:m=16,n=16,k=16,seed=5";
  WorkloadResult before =
      service.submit(WorkloadRegistry::global().create(spec), keep).get();
  ASSERT_TRUE(before.ok());

  WorkloadResult fault = service.submit(std::make_unique<ThrowingWorkload>()).get();
  ASSERT_FALSE(fault.ok());
  EXPECT_EQ(fault.error.code, ErrorCode::kEngineFault);
  EXPECT_NE(fault.error.message.find("synthetic engine fault"),
            std::string::npos);

  // Typed failures of the adapters must not poison the pool either.
  api::GemmSpec bad;
  bad.shape = {"0x0x0", 0, 0, 0};
  WorkloadResult rejected =
      service.submit(std::make_unique<api::GemmWorkload>(bad)).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error.code, ErrorCode::kBadConfig);

  // Subsequent identical job: bit-identical to the pre-fault run, on the
  // reused (reset) cluster.
  WorkloadResult after =
      service.submit(WorkloadRegistry::global().create(spec), keep).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(outcome_of(after), outcome_of(before));

  const api::ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.failed, 2u);
  EXPECT_GE(st.cluster_reuses, 1u);
}

// --- Service lifecycle -------------------------------------------------------

TEST(ApiService, PriorityOrdersQueuedJobsFifoWithinLevel) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  Service service(cfg);

  // Pin the single worker so everything below queues up behind it.
  auto blocker = std::make_unique<BlockingWorkload>();
  auto started = blocker->started.get_future();
  auto release = &blocker->release;
  JobHandle blocked = service.submit(std::move(blocker));
  started.wait();

  std::mutex m;
  std::vector<uint64_t> order;
  const auto record = [&](const WorkloadResult& r) {
    std::lock_guard<std::mutex> l(m);
    order.push_back(r.z_hash);
  };
  std::vector<JobHandle> handles;
  // Submitted: tag 1 at prio 0, tag 2 at prio 5, tag 3 at prio 5, tag 4 at
  // prio -1. Expected execution: 2, 3 (FIFO within prio 5), then 1, then 4.
  const std::vector<std::pair<uint64_t, int>> jobs = {
      {1, 0}, {2, 5}, {3, 5}, {4, -1}};
  for (const auto& [tag, prio] : jobs) {
    SubmitOptions opts;
    opts.priority = prio;
    opts.on_complete = record;
    handles.push_back(
        service.submit(std::make_unique<TagWorkload>(tag), opts));
  }
  release->set_value();
  for (JobHandle& h : handles) h.wait();
  (void)blocked.get();
  EXPECT_EQ(order, (std::vector<uint64_t>{2, 3, 1, 4}));
}

TEST(ApiService, CancelRemovesQueuedJobAndFulfillsFuture) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  Service service(cfg);

  auto blocker = std::make_unique<BlockingWorkload>();
  auto started = blocker->started.get_future();
  auto release = &blocker->release;
  JobHandle blocked = service.submit(std::move(blocker));
  started.wait();

  // on_complete is a worker-thread contract: a job that never executes
  // resolves its future only, so cancel() can never run user code on the
  // cancelling thread (lock-reentrancy hazard).
  std::atomic<bool> callback_fired{false};
  SubmitOptions opts;
  opts.on_complete = [&](const WorkloadResult&) { callback_fired = true; };
  JobHandle queued = service.submit(std::make_unique<TagWorkload>(7), opts);
  EXPECT_EQ(service.queued(), 1u);
  EXPECT_TRUE(service.cancel(queued.id()));
  EXPECT_FALSE(service.cancel(queued.id()));  // already gone
  WorkloadResult r = queued.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kCancelled);
  EXPECT_FALSE(callback_fired.load());

  release->set_value();
  (void)blocked.get();
  // A completed job cannot be cancelled (running jobs can -- see
  // test_robustness.cpp); unknown ids are rejected.
  EXPECT_FALSE(service.cancel(blocked.id()));
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(ApiService, DrainWaitsForAllSubmittedJobs) {
  ServiceConfig cfg;
  cfg.n_threads = 2;
  Service service(cfg);
  std::atomic<unsigned> done{0};
  for (int i = 0; i < 8; ++i) {
    SubmitOptions opts;
    opts.on_complete = [&](const WorkloadResult&) { ++done; };
    (void)service.submit(
        WorkloadRegistry::global().create("gemm:m=8,n=8,k=8,seed=" +
                                          std::to_string(i)),
        opts);
  }
  service.drain();
  EXPECT_EQ(done.load(), 8u);
  EXPECT_EQ(service.queued(), 0u);
  EXPECT_EQ(service.stats().completed, 8u);
}

TEST(ApiService, DestructionCancelsQueuedJobs) {
  JobHandle orphan;
  {
    ServiceConfig cfg;
    cfg.n_threads = 1;
    Service service(cfg);
    auto blocker = std::make_unique<BlockingWorkload>();
    auto started = blocker->started.get_future();
    auto release = &blocker->release;
    JobHandle blocked = service.submit(std::move(blocker));
    started.wait();
    orphan = service.submit(std::make_unique<TagWorkload>(1));
    release->set_value();
    // The service destructor runs here: the queued TagWorkload may have
    // started already (the worker was just released) or may still be queued
    // and get cancelled -- both must fulfill the orphan's future.
  }
  WorkloadResult r = orphan.get();
  EXPECT_TRUE(r.ok() || r.error.code == ErrorCode::kCancelled);
}

TEST(ApiService, NullWorkloadIsBadConfig) {
  Service service;
  WorkloadResult r = service.submit(nullptr).get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kBadConfig);
}

// --- Warm-start (snapshot/fork) provisioning ---------------------------------

namespace {

std::string network_spec(uint64_t seed, bool warm, uint64_t input_seed = 0) {
  std::string s = "network:in=24,hidden=12-6-12,batch=2,geom=4x8x3,seed=" +
                  std::to_string(seed);
  if (input_seed != 0) s += ",input_seed=" + std::to_string(input_seed);
  if (warm) s += ",warm=1";
  return s;
}

}  // namespace

TEST(ApiWarmStart, WarmJobsMatchColdOracleAndCountForks) {
  const uint64_t seed = split_seed(77, 0);
  // Cold oracle: the identical job without the warm flag, on a fresh cluster.
  auto oracle_w = WorkloadRegistry::global().create(network_spec(seed, false));
  const WorkloadResult oracle = Service::run_one(*oracle_w, small_base());
  ASSERT_TRUE(oracle.ok()) << oracle.error.to_string();

  ServiceConfig cfg;
  cfg.n_threads = 1;  // deterministic fork/miss accounting
  cfg.base = small_base();
  Service service(cfg);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i)
    handles.push_back(
        service.submit(WorkloadRegistry::global().create(network_spec(seed, true))));
  for (JobHandle& h : handles) {
    const WorkloadResult r = h.get();
    ASSERT_TRUE(r.ok()) << r.error.to_string();
    EXPECT_EQ(outcome_of(r), outcome_of(oracle))
        << "warm (forked) job must be bit-identical to the cold oracle";
  }

  const api::ServiceStats st = service.stats();
  EXPECT_EQ(st.template_misses, 1u) << "first warm job stages the template";
  EXPECT_EQ(st.template_forks, 2u) << "later identical jobs fork the image";
  // Timing cache: the first job runs the cycle model for every GEMM and
  // records it; the forks start from the same state and replay all of them.
  EXPECT_GT(st.timing_cache_misses, 0u);
  EXPECT_EQ(st.timing_cache_hits, 2 * st.timing_cache_misses);
  EXPECT_EQ(st.timing_cache_evictions, 0u);
  EXPECT_GT(st.timing_cache_bytes, 0u);
  EXPECT_LE(st.timing_cache_bytes, cluster::TimingCache::kBudgetBytes);
}

TEST(ApiWarmStart, InputSeedVariantsShareOneTemplate) {
  // Jobs that differ only in input data (input_seed) share the staged-weights
  // image: one miss, then forks -- and each job still matches its own cold
  // oracle, so the shared template changes nothing in the bits.
  const uint64_t seed = split_seed(77, 2);
  std::vector<WorkloadResult> oracles;
  for (const uint64_t in_seed : {3u, 4u, 5u}) {
    auto w = WorkloadRegistry::global().create(
        network_spec(seed, false, in_seed));
    oracles.push_back(Service::run_one(*w, small_base()));
    ASSERT_TRUE(oracles.back().ok());
  }
  EXPECT_NE(oracles[0].z_hash, oracles[1].z_hash)
      << "different input_seed must produce different data";

  ServiceConfig cfg;
  cfg.n_threads = 1;
  cfg.base = small_base();
  Service service(cfg);
  std::vector<JobHandle> handles;
  for (const uint64_t in_seed : {3u, 4u, 5u})
    handles.push_back(service.submit(
        WorkloadRegistry::global().create(network_spec(seed, true, in_seed))));
  for (size_t i = 0; i < handles.size(); ++i) {
    const WorkloadResult r = handles[i].get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(outcome_of(r), outcome_of(oracles[i])) << "input_seed job " << i;
  }
  const api::ServiceStats st = service.stats();
  EXPECT_EQ(st.template_misses, 1u)
      << "input_seed is not part of the template key";
  EXPECT_EQ(st.template_forks, 2u);
}

TEST(ApiWarmStart, GemmWorkloadsHaveNoTemplateAndStayCold) {
  // Workloads without a template_key run the cold path: no crash, no
  // template-cache traffic.
  ServiceConfig cfg;
  cfg.n_threads = 1;
  Service service(cfg);
  const WorkloadResult r = service
      .submit(WorkloadRegistry::global().create("gemm:m=16,n=16,k=16,seed=6"))
      .get();
  ASSERT_TRUE(r.ok());
  const api::ServiceStats st = service.stats();
  EXPECT_EQ(st.template_misses, 0u);
  EXPECT_EQ(st.template_forks, 0u);
}

TEST(ApiWarmStart, EveryAttemptIsCountedOnce) {
  // Each attempt -- a retry is one more -- is provisioned by one
  // construction or one reuse, and each warm attempt by one fork or one
  // miss, whichever of the two workers runs it.
  ServiceConfig cfg;
  cfg.n_threads = 2;
  cfg.base = small_base();
  Service service(cfg);
  const std::vector<std::string> cold = {
      scenarios()[0], scenarios()[1], scenarios()[2], scenarios()[0], scenarios()[2]};
  const std::vector<std::string> warm = {
      network_spec(split_seed(77, 3), true), network_spec(split_seed(77, 3), true, 7),
      network_spec(split_seed(77, 4), true)};
  std::vector<JobHandle> handles;
  for (const std::string& spec : cold)
    handles.push_back(service.submit(WorkloadRegistry::global().create(spec)));
  for (const std::string& spec : warm)
    handles.push_back(service.submit(WorkloadRegistry::global().create(spec)));
  // A warm job whose first two attempts fault: three attempts, two retries.
  sim::FaultPlan plan;
  plan.add({sim::FaultKind::kEngineFault, 0, 0, /*attempt=*/0})
      .add({sim::FaultKind::kEngineFault, 0, 0, /*attempt=*/1});
  SubmitOptions retried;
  retried.max_retries = 2;
  retried.fault_plan = &plan;
  handles.push_back(service.submit(
      WorkloadRegistry::global().create(network_spec(split_seed(77, 3), true)), retried));
  for (JobHandle& h : handles) {
    const WorkloadResult r = h.get();
    ASSERT_TRUE(r.ok()) << r.error.to_string();
  }

  const api::ServiceStats st = service.stats();
  const uint64_t jobs = cold.size() + warm.size() + 1;
  EXPECT_EQ(st.completed, jobs);
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.clusters_constructed + st.cluster_reuses, jobs + st.retries);
  EXPECT_EQ(st.template_forks + st.template_misses, warm.size() + 3);
  EXPECT_EQ(st.modeled_cycles + st.replayed_cycles, st.sim_cycles);
}

// --- Registry ----------------------------------------------------------------

TEST(ApiRegistry, BuiltinKindsAndSpecRoundTrip) {
  auto& reg = WorkloadRegistry::global();
  const auto kinds = reg.kinds();
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "gemm"), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "tiled"), kinds.end());
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "network"), kinds.end());

  auto g = reg.create("gemm:m=12,n=34,k=56,seed=9,acc=1,geom=2x4x3");
  auto* gw = dynamic_cast<api::GemmWorkload*>(g.get());
  ASSERT_NE(gw, nullptr);
  EXPECT_EQ(gw->spec().shape.m, 12u);
  EXPECT_EQ(gw->spec().shape.n, 34u);
  EXPECT_EQ(gw->spec().shape.k, 56u);
  EXPECT_EQ(gw->spec().seed, 9u);
  EXPECT_TRUE(gw->spec().accumulate);
  EXPECT_EQ(gw->spec().geometry.h, 2u);
  EXPECT_EQ(gw->spec().geometry.l, 4u);
  EXPECT_EQ(gw->spec().geometry.p, 3u);

  auto t = reg.create("tiled:m=96,n=96,k=96");
  EXPECT_NE(dynamic_cast<api::TiledGemmWorkload*>(t.get()), nullptr);

  auto n = reg.create("network:in=24,hidden=12-6-12,batch=4,lr=0.5");
  auto* nw = dynamic_cast<api::NetworkTrainingWorkload*>(n.get());
  ASSERT_NE(nw, nullptr);
  EXPECT_EQ(nw->spec().net.input_dim, 24u);
  EXPECT_EQ(nw->spec().net.hidden, (std::vector<uint32_t>{12, 6, 12}));
  EXPECT_EQ(nw->spec().net.batch, 4u);
  EXPECT_DOUBLE_EQ(nw->spec().lr, 0.5);
}

TEST(ApiRegistry, MalformedSpecsAreBadConfig) {
  auto& reg = WorkloadRegistry::global();
  const auto expect_bad = [&](const std::string& spec) {
    try {
      (void)reg.create(spec);
      FAIL() << spec << " should have thrown";
    } catch (const api::TypedError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadConfig) << spec;
    }
  };
  expect_bad("warp_drive:m=1");               // unknown kind
  expect_bad("gemm:m=12,n=34,k=blue");        // non-numeric value
  expect_bad("gemm:m=12,n=34,k=56,typo=1");   // unconsumed key
  expect_bad("gemm:m=12,,n");                 // malformed item
  expect_bad("gemm:geom=4x8,m=1,n=1,k=1");    // malformed geometry
  expect_bad("network:hidden=12-x,batch=1");  // malformed dims
}

TEST(ApiRegistry, CustomKindsCanBeRegistered) {
  auto& reg = WorkloadRegistry::global();
  reg.add("test_tag", [](const api::SpecArgs& args) -> std::unique_ptr<Workload> {
    const uint64_t tag = args.u64("tag", 0);
    args.require_all_consumed("test_tag");
    return std::make_unique<TagWorkload>(tag);
  });
  auto w = reg.create("test_tag:tag=42");
  const WorkloadResult r = Service::run_one(*w);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.z_hash, 42u);
}
