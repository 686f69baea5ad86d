#include "api/pool.hpp"

#include <algorithm>

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
  const uint64_t key = pool_key(cfg);
  for (Entry& cand : pool_)
    if (cand.key == key) {
      // Unconditional reset before (not after) each job: this also recovers
      // the instance from a previous job that timed out or threw mid-run.
      cand.cl->reset();
      return {cand.cl.get(), false};
    }
  pool_.push_back(Entry{key, std::make_unique<cluster::Cluster>(cfg)});
  pool_.back().cl->set_timing_cache(timing_cache_.get());
  return {pool_.back().cl.get(), true};
}

ClusterPool::Acquired ClusterPool::acquire_template(
    const cluster::ClusterConfig& cfg, const std::string& key,
    const StageFn& stage) {
  Acquired acq = acquire(cfg);
  // Fold the resolved config into the cache key: equal caller keys on
  // differently-sized clusters stage different bit patterns (layouts depend
  // on the config) and must never share an image.
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

PoolWorkers::PoolWorkers(unsigned n_threads) {
  n_threads_ = n_threads != 0
                   ? n_threads
                   : std::max(1u, std::thread::hardware_concurrency());
  pools_.resize(n_threads_);
  for (ClusterPool& p : pools_) p.set_template_cache(&templates_);
  threads_.reserve(n_threads_);
  for (unsigned i = 0; i < n_threads_; ++i)
    threads_.emplace_back([this, i] { loop(i); });
}

PoolWorkers::~PoolWorkers() {
  {
    std::lock_guard<std::mutex> l(m_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void PoolWorkers::post(Task task) {
  {
    std::lock_guard<std::mutex> l(m_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void PoolWorkers::loop(unsigned idx) {
  ClusterPool& pool = pools_[idx];
  std::unique_lock<std::mutex> l(m_);
  for (;;) {
    cv_.wait(l, [&] { return stop_ || !tasks_.empty(); });
    if (tasks_.empty()) {
      if (stop_) return;  // drained: every posted task has run
      continue;
    }
    Task task = std::move(tasks_.front());
    tasks_.pop_front();
    l.unlock();
    try {
      task(pool);
    } catch (...) {
      // Tasks own their error handling (the posting layer captures failures
      // into its own completion state); nothing may kill the worker.
    }
    l.lock();
  }
}

}  // namespace redmule::api
