/// Template-cache storm at the trust boundary: a client chooses seed= and
/// geom=, so every distinct pair publishes a template image. A 2-worker
/// api::Service runs more distinct warm network jobs than
/// api::TemplateCache::kBudgetBytes holds, and checks that
///
///  - the images stay within the budget at every observation, and the cache
///    evicts;
///  - every result equals its cold Service::run_one oracle bit for bit while
///    the two workers race on one key (each key's first two jobs run
///    together) and re-fork recent keys whose images later publishes evict,
///    possibly while a fork of them is in flight;
///  - a key re-submitted after its eviction stages again (a miss) and still
///    equals its oracle.
///
/// Run it under TSan and ASan+UBSan: eviction racing forks in flight is the
/// point of the test.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/pool.hpp"
#include "api/service.hpp"
#include "api/workload.hpp"

using namespace redmule;
using api::JobHandle;
using api::Service;
using api::ServiceConfig;
using api::ServiceStats;
using api::WorkloadRegistry;
using api::WorkloadResult;

namespace {

/// Distinct templates: every seed on each geometry. A key's image holds the
/// default 128 KiB TCDM plus its L2 pages, so 2 x 56 of them pass 16 MiB.
constexpr unsigned kSeeds = 56;
const char* const kGeoms[] = {"4x8x3", "2x4x3"};
constexpr unsigned kKeys = kSeeds * 2;

std::string spec_of(unsigned key, unsigned input_seed, bool warm) {
  std::string s = "network:in=24,hidden=12-6-12,batch=2,geom=" + std::string(kGeoms[key % 2]) +
                  ",seed=" + std::to_string(1000 + key / 2) +
                  ",input_seed=" + std::to_string(input_seed);
  if (warm) s += ",warm=1";
  return s;
}

struct Outcome {
  core::JobStats stats;
  uint64_t z_hash = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const WorkloadResult& r) { return {r.stats, r.z_hash}; }

}  // namespace

TEST(TemplateStorm, DistinctSeedsStayWithinTheBudgetAndMatchTheirOracles) {
  std::map<std::pair<unsigned, unsigned>, Outcome> oracles;
  const auto oracle_of = [&](unsigned key, unsigned input_seed) -> const Outcome& {
    auto it = oracles.find({key, input_seed});
    if (it == oracles.end()) {
      auto w = WorkloadRegistry::global().create(spec_of(key, input_seed, false));
      const WorkloadResult r = Service::run_one(*w, {});
      EXPECT_TRUE(r.ok()) << r.error.to_string();
      it = oracles.emplace(std::make_pair(key, input_seed), outcome_of(r)).first;
    }
    return it->second;
  };

  ServiceConfig cfg;
  cfg.n_threads = 2;
  Service service(cfg);
  uint64_t warm_jobs = 0;
  const auto observe = [&] {
    const ServiceStats st = service.stats();
    EXPECT_LE(st.template_bytes, api::TemplateCache::kBudgetBytes);
    return st;
  };

  for (unsigned key = 0; key < kKeys; ++key) {
    // The key's first two jobs race to stage it; a third re-forks a recent
    // key, at a distance that sometimes reaches past the budget's reach.
    // Keys 0 and 1 are never re-forked, so key 0 ends up evicted for sure.
    std::vector<std::pair<unsigned, unsigned>> batch = {{key, 1}, {key, 2}};
    const unsigned back = 1 + (key * 37) % 97;
    if (key >= back + 2) batch.emplace_back(key - back, 3);
    std::vector<JobHandle> handles;
    for (const auto& [k, input] : batch)
      handles.push_back(service.submit(WorkloadRegistry::global().create(spec_of(k, input, true))));
    warm_jobs += batch.size();
    for (size_t i = 0; i < batch.size(); ++i) {
      const WorkloadResult r = handles[i].get();
      const std::string spec = spec_of(batch[i].first, batch[i].second, true);
      ASSERT_TRUE(r.ok()) << spec << ": " << r.error.to_string();
      EXPECT_EQ(outcome_of(r), oracle_of(batch[i].first, batch[i].second)) << spec;
      observe();
    }
  }

  const ServiceStats storm = observe();
  EXPECT_GT(storm.template_evictions, 0u);
  EXPECT_GT(storm.template_forks, 0u);
  EXPECT_EQ(storm.template_misses + storm.template_forks, warm_jobs);
  // Every key stages at least once.
  EXPECT_GE(storm.template_misses, kKeys);

  // Key 0 was last used in its own round, before more than a budget's worth
  // of later images: it stages again, and still equals its oracle.
  const WorkloadResult again =
      service.submit(WorkloadRegistry::global().create(spec_of(0, 4, true))).get();
  ASSERT_TRUE(again.ok()) << again.error.to_string();
  EXPECT_EQ(outcome_of(again), oracle_of(0, 4));
  const ServiceStats after = observe();
  EXPECT_EQ(after.template_misses, storm.template_misses + 1);
  EXPECT_EQ(after.template_forks, storm.template_forks);
}
