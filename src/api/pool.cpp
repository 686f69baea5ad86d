#include "api/pool.hpp"

namespace redmule::api {

namespace {

uint64_t bucket(const cluster::ClusterConfig& cfg, const std::string& key) {
  return pool_key(cfg) ^ std::hash<std::string>{}(key);
}

}  // namespace

std::shared_ptr<const state::ClusterImage> TemplateCache::find_locked(
    const cluster::ClusterConfig& cfg, const std::string& key) const {
  const auto [first, last] = images_.equal_range(bucket(cfg, key));
  for (auto it = first; it != last; ++it) {
    const auto& [k, img] = it->second;
    if (k == key && img->config == cfg) return img;
  }
  return nullptr;
}

std::shared_ptr<const state::ClusterImage> TemplateCache::find(
    const cluster::ClusterConfig& cfg, const std::string& key) const {
  std::lock_guard<std::mutex> l(m_);
  return find_locked(cfg, key);
}

std::shared_ptr<const state::ClusterImage> TemplateCache::insert(
    const std::string& key, std::shared_ptr<const state::ClusterImage> img) {
  std::lock_guard<std::mutex> l(m_);
  // First writer wins; losers fork the canonical image.
  if (std::shared_ptr<const state::ClusterImage> first = find_locked(img->config, key))
    return first;
  const uint64_t h = bucket(img->config, key);
  return images_.emplace(h, std::pair(key, std::move(img)))->second.second;
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
  if (std::shared_ptr<const state::ClusterImage> img = templates_->find(cfg, key)) {
    state::restore(*acq.cl, *img);
    ++template_forks_;
    acq.forked = true;
    return acq;
  }
  ++template_misses_;
  stage(*acq.cl);
  auto staged = std::make_shared<const state::ClusterImage>(state::snapshot(*acq.cl));
  const std::shared_ptr<const state::ClusterImage> img = templates_->insert(key, staged);
  // Another writer may have published first; staging is deterministic.
  REDMULE_REQUIRE(img == staged || *img == *staged,
                  "template staging did not reproduce the published image");
  // Every provisioning runs through restore() -- including the staging one.
  // That uniformity is also the enforced restore-equals-snapshot invariant.
  state::restore(*acq.cl, *img);
  REDMULE_REQUIRE(state::snapshot(*acq.cl) == *img,
                  "template restore did not reproduce its snapshot");
  return acq;
}

}  // namespace redmule::api
