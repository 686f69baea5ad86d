#include "api/pool.hpp"

namespace redmule::api {

namespace {

/// A TemplateKey to look up without copying the caller's string.
struct TemplateKeyRef {
  const cluster::ClusterConfig& config;
  const std::string& key;

  uint64_t hash() const { return pool_key(config) ^ std::hash<std::string>{}(key); }
  friend bool operator==(const TemplateKey& a, const TemplateKeyRef& b) {
    return a.key == b.key && a.config == b.config;
  }
};

}  // namespace

uint64_t TemplateKey::hash() const { return TemplateKeyRef{config, key}.hash(); }

std::shared_ptr<const state::ClusterImage> TemplateCache::find(
    const cluster::ClusterConfig& cfg, const std::string& key) {
  std::lock_guard<std::mutex> l(m_);
  return images_.find(TemplateKeyRef{cfg, key});
}

std::shared_ptr<const state::ClusterImage> TemplateCache::insert(
    const std::string& key, std::shared_ptr<const state::ClusterImage> img) {
  // An image is charged what it holds resident: its TCDM words and L2 pages.
  const size_t bytes = img->tcdm.words.size() * sizeof(uint32_t) + img->l2.resident_bytes();
  TemplateKey k{img->config, key};
  std::lock_guard<std::mutex> l(m_);
  return images_.insert(std::move(k), std::move(img), bytes);
}

size_t TemplateCache::size() const {
  std::lock_guard<std::mutex> l(m_);
  return images_.size();
}

size_t TemplateCache::bytes() const {
  std::lock_guard<std::mutex> l(m_);
  return images_.bytes();
}

uint64_t TemplateCache::evictions() const {
  std::lock_guard<std::mutex> l(m_);
  return images_.evictions();
}

ClusterPool::Acquired ClusterPool::acquire(const cluster::ClusterConfig& cfg) {
  for (const std::unique_ptr<cluster::Cluster>& cand : pool_)
    if (cand->config() == cfg) {
      // Unconditional reset before (not after) each job: this also recovers
      // the instance from a previous job that timed out or threw mid-run.
      cand->reset();
      ++jobs_run_;
      return {cand.get(), false};
    }
  // Counted once the cluster exists, so a construction that throws is
  // neither a job nor a reuse.
  pool_.push_back(std::make_unique<cluster::Cluster>(cfg));
  pool_.back()->set_timing_cache(timing_cache_.get());
  ++jobs_run_;
  return {pool_.back().get(), true};
}

ClusterPool::Acquired ClusterPool::acquire_template(
    const cluster::ClusterConfig& cfg, const std::string& key,
    const StageFn& stage) {
  Acquired acq = acquire(cfg);
  if (std::shared_ptr<const state::ClusterImage> img = templates_->find(cfg, key)) {
    ++template_forks_;
    state::restore(*acq.cl, *img);
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
