#include "api/pool.hpp"

namespace redmule::api {

std::shared_ptr<const state::ClusterImage> TemplateCache::find(
    const std::string& key) const {
  std::lock_guard<std::mutex> l(m_);
  const auto it = images_.find(key);
  return it != images_.end() ? it->second : nullptr;
}

std::shared_ptr<const state::ClusterImage> TemplateCache::insert(
    const std::string& key, std::shared_ptr<const state::ClusterImage> img) {
  std::lock_guard<std::mutex> l(m_);
  const auto [it, inserted] = images_.emplace(key, std::move(img));
  return it->second;  // first writer wins; losers fork the canonical image
}

size_t TemplateCache::size() const {
  std::lock_guard<std::mutex> l(m_);
  return images_.size();
}

ClusterPool::Acquired ClusterPool::acquire(const cluster::ClusterConfig& cfg) {
  ++jobs_run_;
  for (const std::unique_ptr<cluster::Cluster>& cand : pool_)
    if (cand->config() == cfg) {
      // Unconditional reset before (not after) each job: this also recovers
      // the instance from a previous job that timed out or threw mid-run.
      cand->reset();
      return {cand.get(), false};
    }
  pool_.push_back(std::make_unique<cluster::Cluster>(cfg));
  pool_.back()->set_timing_cache(timing_cache_.get());
  return {pool_.back().get(), true};
}

ClusterPool::Acquired ClusterPool::acquire_template(
    const cluster::ClusterConfig& cfg, const std::string& key,
    const StageFn& stage) {
  Acquired acq = acquire(cfg);
  // Fold the whole resolved config into the cache key: equal caller keys on
  // configs that differ anywhere stage different bits (layouts and timing
  // depend on the config) and must never share an image.
  const std::string full_key = key + "#cfg" + std::to_string(pool_key(cfg));
  if (std::shared_ptr<const state::ClusterImage> img =
          templates_->find(full_key)) {
    state::restore(*acq.cl, *img);
    ++template_forks_;
    acq.forked = true;
    return acq;
  }
  ++template_misses_;
  stage(*acq.cl);
  std::shared_ptr<const state::ClusterImage> img =
      templates_->insert(full_key, std::make_shared<const state::ClusterImage>(
                                       state::snapshot(*acq.cl)));
  // Every provisioning runs through restore() -- including the staging one,
  // which restores the canonical image it may have lost the publish race to.
  // That uniformity is also the enforced restore-equals-snapshot invariant:
  // re-snapshotting the restored cluster must reproduce the published
  // fingerprint (and, across a lost race, proves staging was deterministic).
  state::restore(*acq.cl, *img);
  REDMULE_REQUIRE(state::snapshot(*acq.cl).fingerprint == img->fingerprint,
                  "template restore did not reproduce its snapshot");
  return acq;
}

}  // namespace redmule::api
