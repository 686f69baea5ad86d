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
///    (enforced with a fingerprint check on every publish) the forked cluster
///    is bit-identical to a freshly-constructed-and-staged one. The cache is
///    the one deliberately shared piece: images are immutable once published
///    (shared_ptr<const>, atomic refcounts), so worker threads fork from one
///    cache without touching each other's clusters.
///  - cluster::TimingCache: each pool owns one and attaches it to every
///    cluster it builds, so a tiled GEMM that repeats on a pooled cluster
///    replays its recorded cycle-model outcome (bit- and cycle-identical).
///    Clusters outside a pool never get one: Service::run_one and every
///    directly built cluster always run the cycle model.
///
/// api::Service owns one pool per worker thread and one TemplateCache shared
/// by them, and fronts them with admission control, a priority queue,
/// deadlines, cancellation and retry. A pool is never touched by two threads,
/// so there is no locking on the simulation hot path.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/workload.hpp"
#include "cluster/cluster.hpp"
#include "cluster/timing_cache.hpp"
#include "state/snapshot.hpp"

namespace redmule::api {

/// Thread-safe, first-writer-wins store of published template images, keyed
/// by the caller's template key (staged-content identity) combined with the
/// resolved cluster config. Images are immutable once inserted; lookups hand
/// out shared_ptr<const> references that stay valid for the caller's
/// lifetime regardless of later insertions. One cache is shared by all of a
/// Service's thread-private pools -- the cache mutex covers only the map,
/// never any cluster.
class TemplateCache {
 public:
  std::shared_ptr<const state::ClusterImage> find(const std::string& key) const;
  /// Publishes \p img under \p key unless another writer got there first;
  /// returns the canonical image either way (first-writer-wins, so every
  /// fork of a key descends from one image).
  std::shared_ptr<const state::ClusterImage> insert(
      const std::string& key, std::shared_ptr<const state::ClusterImage> img);
  size_t size() const;

 private:
  mutable std::mutex m_;
  std::map<std::string, std::shared_ptr<const state::ClusterImage>> images_;
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
  /// bit \p stage writes (the resolved config is folded in here, so equal
  /// keys on different configs never collide). On the first call for a key
  /// the cluster is staged by \p stage, snapshotted, and the image published
  /// to the template cache; the publish round-trips the image through
  /// restore() and asserts the re-snapshot fingerprint matches
  /// (restore-equals-snapshot, enforced). Later calls fork: the cached image
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

  size_t size() const { return pool_.size(); }
  /// Total jobs served (acquire() calls) since construction.
  uint64_t jobs_run() const { return jobs_run_; }
  /// acquire_template() calls served by restoring a cached image.
  uint64_t template_forks() const { return template_forks_; }
  /// acquire_template() calls that staged + published the template.
  uint64_t template_misses() const { return template_misses_; }
  /// The pool's timing cache, attached to every cluster it constructs:
  /// repeated tiled GEMMs on them replay their recorded cycle-model outcome
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
