/// \file pool.hpp
/// \brief Pooled-cluster provisioning: the reusable clusters and template
///        images behind every api::Service worker.
///
///  - api::ClusterPool: a single-threaded pool of reusable cluster instances
///    keyed by the *resolved* cluster config (every ClusterConfig field,
///    compared with its defaulted ==). acquire() finds an instance with an
///    equal config and re-initializes it in place with Cluster::reset() --
///    the reset-equals-constructed contract -- or constructs one when none
///    matches. Construction is the expensive path (the whole module
///    hierarchy); reset is the cheap one, and the two are observationally
///    identical, which is what makes pooling invisible to results.
///  - api::TemplateCache + ClusterPool::acquire_template(): snapshot/fork
///    provisioning. The first job of a template key stages its job-invariant
///    state (e.g. a training step's weights) on a reset cluster, snapshots it
///    into a state::ClusterImage, and publishes the image; every later job
///    with the same key restores ("forks") the image instead of re-staging.
///    Restore shares the image's L2 pages copy-on-write, so a fork is a page
///    table copy, not a memory copy -- and because restore-equals-snapshot
///    (enforced with an image == check on every publish) the forked cluster
///    is bit-identical to a freshly-constructed-and-staged one. The cache is
///    the one deliberately shared piece: images are immutable once published
///    (shared_ptr<const>, atomic refcounts), so worker threads fork from one
///    cache without touching each other's clusters. Clients choose the
///    template key (every seed= is one), so the cache is bounded: images are
///    charged their TCDM words plus resident L2 pages against
///    TemplateCache::kBudgetBytes and evicted least recently used first. A
///    fork in flight holds its own reference, so evicting the image under it
///    frees nothing it reads; an evicted key simply stages again (a miss).
///  - cluster::TimingCache: each pool owns one and attaches it to every
///    cluster it builds, so a GEMM program that repeats on a pooled cluster
///    -- a monolithic gemm: offload or a tiled GEMM, alone or inside a
///    network step -- replays its recorded cycle-model outcome (bit- and
///    cycle-identical).
///    Clusters outside a pool never get one: Service::run_one and every
///    directly built cluster always run the cycle model.
///
/// Both caches are instances of one byte-budgeted LRU, ByteLru
/// (common/byte_lru.hpp): the template cache puts a mutex around it, the
/// worker-private timing cache does not. The pool of live clusters is not
/// bounded yet: it keeps one cluster per distinct config for good.
///
/// api::Service owns one pool per worker thread and one TemplateCache shared
/// by them, and fronts them with admission control, a priority queue,
/// deadlines, cancellation and retry. A pool is never touched by two threads,
/// so there is no locking on the simulation hot path. The pool's counters
/// are the only provisioning tally: the Service adds each job's change in
/// them to its ServiceStats.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/workload.hpp"
#include "cluster/cluster.hpp"
#include "cluster/timing_cache.hpp"
#include "common/byte_lru.hpp"
#include "state/snapshot.hpp"

namespace redmule::api {

/// A published template image's key: the resolved cluster config and the
/// caller's template key. hash() only picks the bucket; == confirms both.
struct TemplateKey {
  cluster::ClusterConfig config;
  std::string key;

  uint64_t hash() const;
  friend bool operator==(const TemplateKey&, const TemplateKey&) = default;
};

/// Thread-safe, first-writer-wins store of published template images: a
/// mutex over a ByteLru (common/byte_lru.hpp) keyed by TemplateKey. Images
/// are immutable once inserted; lookups hand out shared_ptr<const>
/// references that stay valid for the caller's lifetime whatever the cache
/// later inserts or evicts. One cache is shared by all of a Service's
/// thread-private pools -- the cache mutex covers only the LRU, never any
/// cluster.
class TemplateCache {
 public:
  /// Byte budget of one cache, charged by each image's TCDM words plus its
  /// resident L2 pages. A full-width image holds about 1.4 MB
  /// (BENCH_snapshot), so 16 MiB keeps about 11 of them; a small network
  /// template (a 128 KiB TCDM and one or two 64 KiB L2 pages) about 80.
  static constexpr size_t kBudgetBytes = size_t{16} << 20;

  /// \p budget_bytes exists for tests that need eviction without staging
  /// dozens of templates; services and pools always use kBudgetBytes.
  explicit TemplateCache(size_t budget_bytes = kBudgetBytes) : images_(budget_bytes) {}

  /// The image published under (\p cfg, \p key), made most recently used;
  /// nullptr when none is (never published, or evicted since).
  std::shared_ptr<const state::ClusterImage> find(const cluster::ClusterConfig& cfg,
                                                  const std::string& key);
  /// Publishes \p img under (its config, \p key) unless another writer got
  /// there first; returns the canonical image either way (first-writer-wins,
  /// so every fork of a key descends from one image). An image over the
  /// whole budget is not stored and comes back as the canonical one.
  std::shared_ptr<const state::ClusterImage> insert(
      const std::string& key, std::shared_ptr<const state::ClusterImage> img);
  size_t size() const;
  /// Bytes the stored images are charged now; never above the budget.
  size_t bytes() const;
  /// Images evicted since construction.
  uint64_t evictions() const;

 private:
  mutable std::mutex m_;
  ByteLru<TemplateKey, state::ClusterImage> images_;
};

/// Worker-private pool of reusable cluster instances (single-threaded access
/// by design: each Service worker owns exactly one, and standalone users
/// must not share one across threads).
class ClusterPool {
 public:
  ClusterPool()
      : timing_cache_(std::make_unique<cluster::TimingCache>()),
        local_templates_(std::make_unique<TemplateCache>()),
        templates_(local_templates_.get()) {}

  struct Acquired {
    cluster::Cluster* cl = nullptr;
    /// True when this call constructed the instance; false when an existing
    /// instance was recovered with reset() (reset-equals-constructed).
    bool constructed = false;
    /// acquire_template() only: true when the cluster was provisioned by
    /// restoring a cached image (a fork); false when this call staged and
    /// published the template itself (a miss).
    bool forked = false;
  };

  /// Returns a cluster whose config equals \p cfg (every field), in the
  /// reset-fresh state: an existing instance is reset() first -- which
  /// also recovers it from a previous job that threw mid-run -- and a missing
  /// one is constructed. The pointer stays valid until the pool is destroyed.
  Acquired acquire(const cluster::ClusterConfig& cfg);

  /// Stages whatever job-invariant state \p stage writes on a reset cluster.
  using StageFn = std::function<void(cluster::Cluster&)>;

  /// acquire() plus snapshot/fork provisioning. \p key must identify every
  /// bit \p stage writes on \p cfg (the cache keys on the config too). On
  /// the first call for a key the cluster is staged by \p stage,
  /// snapshotted, and the image published to the template cache; the
  /// publish round-trips the image through restore() and asserts the
  /// re-snapshot == the image (restore-equals-snapshot, enforced), and a
  /// lost publish race asserts the staged image == the canonical one. Later
  /// calls fork: the cached image
  /// is restored onto the acquired cluster -- a COW page-table copy -- and
  /// no staging runs. Either way the returned cluster is quiescent, holds
  /// exactly the staged template state, and is bit-identical to a
  /// freshly-constructed cluster that ran \p stage.
  Acquired acquire_template(const cluster::ClusterConfig& cfg,
                            const std::string& key, const StageFn& stage);

  /// Shares a template cache (e.g. across a Service's pools); nullptr
  /// reverts to the pool-local cache. Must not race acquire_template().
  void set_template_cache(TemplateCache* cache) {
    templates_ = cache != nullptr ? cache : local_templates_.get();
  }

  /// Clusters held: every one this pool constructed (it never drops one).
  size_t size() const { return pool_.size(); }
  /// Clusters handed out (acquire() calls that returned) since construction:
  /// size() of them constructed, the rest reset() pooled instances.
  uint64_t jobs_run() const { return jobs_run_; }
  /// acquire_template() calls that found a cached image to restore.
  uint64_t template_forks() const { return template_forks_; }
  /// acquire_template() calls that staged + published the template.
  uint64_t template_misses() const { return template_misses_; }
  /// The pool's timing cache, attached to every cluster it constructs:
  /// repeated GEMM programs on them replay their recorded cycle-model outcome
  /// (cluster/timing_cache.hpp). Worker-private like the pool itself.
  const cluster::TimingCache& timing_cache() const { return *timing_cache_; }

 private:
  /// Behind a pointer so the pool stays movable while its clusters hold the
  /// cache's address; declared first so it outlives them.
  std::unique_ptr<cluster::TimingCache> timing_cache_;
  std::vector<std::unique_ptr<cluster::Cluster>> pool_;
  uint64_t jobs_run_ = 0;
  uint64_t template_forks_ = 0;
  uint64_t template_misses_ = 0;
  /// Pool-local cache behind a pointer so the pool stays movable (the cache
  /// holds a mutex); templates_ tracks whichever cache is in effect.
  std::unique_ptr<TemplateCache> local_templates_;
  TemplateCache* templates_ = nullptr;
};

}  // namespace redmule::api
