/// Randomized-but-deterministic snapshot/fork soak: every round draws a
/// training job (weight seed x input seed), a warm/cold coin, and sometimes
/// a fault to inject, runs it through a real api::Service, and checks the
/// provisioning contracts end to end:
///
///  - a warm (template-forked) job is bit-identical to the cold oracle of
///    the same spec -- across pool reuse, worker interleaving, and fault
///    injection (staging is zero-sim-time, so fault cycle points line up);
///  - jobs sharing a weight seed share one image: the miss/fork counters
///    add up to exactly the warm traffic, and misses stay bounded by the
///    number of distinct templates;
///  - a faulted warm job never poisons the template: the next warm job of
///    the same spec still matches the oracle bit for bit;
///  - a miss that loses the publish race forks the canonical image, and
///    refuses it when its own staging differs (staging must be
///    deterministic);
///  - two threads forking and publishing through one template cache too
///    small for their keys, so every publish evicts an image the other
///    thread may be forking, still match the oracles.
///
/// Each round's job and a clean warm job of the same spec run together on
/// the service's two workers, so they race on one key.
///
/// Rounds are deterministic per seed; REDMULE_SNAPSHOT_SOAK_ROUNDS scales
/// the soak for CI without touching the code.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/pool.hpp"
#include "api/service.hpp"
#include "api/workload.hpp"
#include "common/rng.hpp"
#include "sim/fault_plan.hpp"

using namespace redmule;
using api::ErrorCode;
using api::Service;
using api::ServiceConfig;
using api::SubmitOptions;
using api::WorkloadRegistry;
using api::WorkloadResult;

namespace {

unsigned soak_rounds() {
  const char* env = std::getenv("REDMULE_SNAPSHOT_SOAK_ROUNDS");
  if (env != nullptr) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 6;  // default smoke depth; CI raises it
}

cluster::ClusterConfig small_base() {
  cluster::ClusterConfig base;
  base.tcdm.words_per_bank = 256;  // 16 KiB
  return base;
}

std::string spec_of(uint64_t weight_seed, uint64_t input_seed, bool warm) {
  std::string s = "network:in=24,hidden=12-6-12,batch=2,geom=4x8x3,seed=" +
                  std::to_string(weight_seed) +
                  ",input_seed=" + std::to_string(input_seed);
  if (warm) s += ",warm=1";
  return s;
}

struct Outcome {
  uint64_t cycles, advance, stall, macs, fma_ops, z_hash;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const WorkloadResult& r) {
  return {r.stats.cycles,  r.stats.advance_cycles, r.stats.stall_cycles,
          r.stats.macs,    r.stats.fma_ops,        r.z_hash};
}

}  // namespace

TEST(ApiSnapshotSoak, WarmColdAndFaultedJobsStayBitIdenticalToOracles) {
  const unsigned rounds = soak_rounds();
  const std::vector<uint64_t> weight_seeds = {split_seed(0x5eed, 0),
                                              split_seed(0x5eed, 1)};

  // Cold oracles on fresh unpooled clusters, computed on first use.
  std::map<std::pair<uint64_t, uint64_t>, Outcome> oracles;
  const auto oracle_of = [&](uint64_t ws, uint64_t is) -> const Outcome& {
    const auto key = std::make_pair(ws, is);
    auto it = oracles.find(key);
    if (it == oracles.end()) {
      auto w = WorkloadRegistry::global().create(spec_of(ws, is, false));
      WorkloadResult r = Service::run_one(*w, small_base());
      EXPECT_TRUE(r.ok()) << r.error.to_string();
      it = oracles.emplace(key, outcome_of(r)).first;
    }
    return it->second;
  };

  ServiceConfig cfg;
  cfg.n_threads = 2;  // forks cross worker pools through the shared cache
  cfg.base = small_base();
  Service service(cfg);

  Xoshiro256 rng(split_seed(0x54a9, 2));
  uint64_t warm_jobs = 0;
  unsigned fired_faults = 0;
  for (unsigned round = 0; round < rounds; ++round) {
    const uint64_t ws = weight_seeds[rng.next_below(weight_seeds.size())];
    const uint64_t is = 1 + rng.next_below(3);  // small set: inputs repeat
    const bool warm = rng.next_below(4) != 0;   // mostly warm, some cold
    const bool inject = rng.next_below(3) == 0;
    const Outcome& oracle = oracle_of(ws, is);

    sim::FaultPlan plan;
    const auto kind =
        static_cast<sim::FaultKind>(rng.next_below(3));
    const uint64_t at_cycle = rng.next_below(oracle.cycles * 3 / 2 + 1);
    if (inject)
      plan.add({kind, at_cycle,
                kind == sim::FaultKind::kDmaStall ? 64 + rng.next_below(1024) : 0,
                /*attempt=*/-1});
    SubmitOptions opts;
    if (inject) opts.fault_plan = &plan;
    // The round's job and a clean warm job of the same spec are submitted
    // together, so the two workers race on one key: both may miss and
    // publish, or one forks what the other published.
    api::JobHandle job =
        service.submit(WorkloadRegistry::global().create(spec_of(ws, is, warm)), opts);
    api::JobHandle rerun =
        service.submit(WorkloadRegistry::global().create(spec_of(ws, is, true)));
    warm_jobs += warm ? 2 : 1;
    const WorkloadResult r = job.get();

    const std::string ctx = "round " + std::to_string(round) +
                            " warm=" + std::to_string(warm) +
                            " inject=" + std::to_string(inject) +
                            " ws=" + std::to_string(ws) +
                            " is=" + std::to_string(is);
    if (!inject || kind == sim::FaultKind::kDmaStall) {
      ASSERT_TRUE(r.ok()) << ctx << ": " << r.error.to_string();
      EXPECT_EQ(r.z_hash, oracle.z_hash) << ctx;
      if (!inject) {
        EXPECT_EQ(outcome_of(r), oracle) << ctx;
      } else {
        EXPECT_GE(r.stats.cycles, oracle.cycles) << ctx;
        if (r.stats.cycles > oracle.cycles) ++fired_faults;
      }
    } else if (r.ok()) {
      EXPECT_EQ(outcome_of(r), oracle) << ctx;  // fault landed past the end
    } else {
      EXPECT_EQ(r.error.code, ErrorCode::kEngineFault)
          << ctx << ": " << r.error.to_string();
      ++fired_faults;
    }

    // Template-poisoning probe: the clean warm job must fork or stage a
    // pristine image, whatever a faulted run of the key left behind.
    const WorkloadResult clean = rerun.get();
    ASSERT_TRUE(clean.ok()) << ctx << " (clean warm rerun)";
    EXPECT_EQ(outcome_of(clean), oracle) << ctx << " (clean warm rerun)";
  }

  EXPECT_GT(fired_faults, 0u) << "the soak must actually exercise faults";

  // Conservation: every warm job either staged (miss) or forked, and the
  // misses are bounded by distinct weight seeds (input_seed is excluded from
  // the key) times the worker count: the images are far below the template
  // budget, so none is evicted, and each worker misses a key at most once --
  // the two workers race to first-stage it, and the published image is
  // first-writer-wins either way.
  const api::ServiceStats st = service.stats();
  EXPECT_EQ(st.template_misses + st.template_forks, warm_jobs);
  EXPECT_GE(st.template_misses, 1u);
  EXPECT_EQ(st.template_evictions, 0u);
  EXPECT_LE(st.template_misses, weight_seeds.size() * cfg.n_threads);
}

TEST(ApiSnapshotSoak, LostPublishRaceForksTheCanonicalImage) {
  // A deterministic race on one thread: pool a's staging runs pool b's whole
  // miss of the same key first, so b publishes and a's publish loses.
  const cluster::ClusterConfig cfg = small_base();
  api::TemplateCache cache;
  api::ClusterPool a, b;
  a.set_template_cache(&cache);
  b.set_template_cache(&cache);
  const auto stage_byte = [](cluster::Cluster& cl, uint8_t byte) {
    cl.l2().write(cl.config().l2.base_addr + 64, &byte, 1);
  };
  for (const uint8_t a_byte : {uint8_t{7}, uint8_t{8}}) {
    const std::string key = "race" + std::to_string(a_byte);
    const auto stage_a = [&](cluster::Cluster& cl) {
      EXPECT_FALSE(b.acquire_template(cfg, key, [&](cluster::Cluster& c) { stage_byte(c, 7); })
                       .forked);
      stage_byte(cl, a_byte);
    };
    if (a_byte == 7) {
      const api::ClusterPool::Acquired acq = a.acquire_template(cfg, key, stage_a);
      EXPECT_FALSE(acq.forked);
      EXPECT_TRUE(state::snapshot(*acq.cl) == *cache.find(cfg, key));
    } else {
      EXPECT_THROW(a.acquire_template(cfg, key, stage_a), Error)
          << "a staging that differs from the published image must be refused";
    }
  }
  EXPECT_EQ(a.template_misses(), 2u);
  EXPECT_EQ(b.template_misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ApiSnapshotSoak, ForksRaceEvictionInASmallSharedCache) {
  // Two threads, each with its own pool, walk four keys through one cache
  // that holds three images: one cycles through them (so under LRU alone it
  // would never fork), the other takes each key twice in a row. Publishes
  // evict images the other thread is forking; forks outlive the eviction.
  constexpr unsigned kKeys = 4, kInputs = 3;
  std::vector<uint64_t> weight_seeds;
  for (unsigned i = 0; i < kKeys; ++i) weight_seeds.push_back(split_seed(0x5eed, 10 + i));
  std::map<std::pair<uint64_t, uint64_t>, Outcome> oracles;
  for (const uint64_t ws : weight_seeds)
    for (uint64_t is = 1; is <= kInputs; ++is) {
      auto w = WorkloadRegistry::global().create(spec_of(ws, is, false));
      const WorkloadResult r = Service::run_one(*w, small_base());
      ASSERT_TRUE(r.ok()) << r.error.to_string();
      oracles.emplace(std::make_pair(ws, is), outcome_of(r));
    }

  auto probe = WorkloadRegistry::global().create(spec_of(weight_seeds[0], 1, true));
  const cluster::ClusterConfig cfg =
      api::resolve_cluster_config(small_base(), probe->requirements());
  cluster::Cluster staged(cfg);
  probe->stage_template(staged);
  const state::ClusterImage img = state::snapshot(staged);
  const size_t charge = img.tcdm.words.size() * sizeof(uint32_t) + img.l2.resident_bytes();
  const size_t budget = 3 * charge + charge / 2;
  api::TemplateCache cache(budget);

  const unsigned jobs_per_thread = 4 * soak_rounds();
  std::atomic<unsigned> mismatches{0}, over_budget{0};
  api::ClusterPool pools[2];
  const auto worker = [&](unsigned t) {
    api::ClusterPool& pool = pools[t];
    pool.set_template_cache(&cache);
    for (unsigned j = 0; j < jobs_per_thread; ++j) {
      const uint64_t ws = weight_seeds[t == 0 ? j % kKeys : (j / 2 + 2) % kKeys];
      const uint64_t is = 1 + j % kInputs;
      auto w = WorkloadRegistry::global().create(spec_of(ws, is, true));
      const api::ClusterPool::Acquired acq = pool.acquire_template(
          cfg, w->template_key(), [&](cluster::Cluster& cl) { w->stage_template(cl); });
      api::RunContext ctx;
      const WorkloadResult r = w->run_staged(*acq.cl, ctx);
      if (!r.ok() || !(outcome_of(r) == oracles.at({ws, is}))) ++mismatches;
      if (cache.bytes() > budget) ++over_budget;
    }
  };
  std::thread other(worker, 1);
  worker(0);
  other.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(over_budget.load(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.size(), 3u);
  uint64_t forks = 0, misses = 0;
  for (const api::ClusterPool& p : pools) {
    forks += p.template_forks();
    misses += p.template_misses();
  }
  EXPECT_EQ(forks + misses, 2u * jobs_per_thread);
  EXPECT_GT(forks, 0u);
}
