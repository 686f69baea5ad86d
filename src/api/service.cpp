#include "api/service.hpp"

#include <algorithm>
#include <exception>

namespace redmule::api {

namespace {

WorkloadResult fail(ErrorCode code, const std::string& what) {
  WorkloadResult res;
  res.error = {code, what};
  return res;
}

/// Runs \p fn with the full per-job failure contract: every throw becomes a
/// typed error result, never an escaping exception. Classification is by
/// exception *type*, thrown at the source (common/check.hpp,
/// sim/run_control.hpp) -- never by message text, which misfires the moment
/// an unrelated message mentions "timeout". Catch order: most-derived first
/// (every typed class below derives from redmule::Error).
template <typename Fn>
WorkloadResult guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const TypedError& e) {
    return fail(e.code(), e.what());
  } catch (const sim::RunAborted& e) {
    return fail(e.reason() == sim::AbortReason::kCancelled
                    ? ErrorCode::kCancelled
                    : ErrorCode::kTimeout,
                e.what());
  } catch (const redmule::TimeoutError& e) {
    return fail(ErrorCode::kTimeout, e.what());
  } catch (const redmule::CapacityError& e) {
    return fail(ErrorCode::kCapacity, e.what());
  } catch (const redmule::Error& e) {
    // A bare redmule::Error is by definition a user/configuration error
    // (check.hpp).
    return fail(ErrorCode::kBadConfig, e.what());
  } catch (const std::exception& e) {
    // Everything untyped -- including sim::InjectedFault -- is the transient
    // EngineFault class (the one the retry policy may re-run).
    return fail(ErrorCode::kEngineFault, e.what());
  } catch (...) {
    // Nothing may escape a worker thread's entry function.
    return fail(ErrorCode::kEngineFault, "non-standard exception");
  }
}

}  // namespace

Service::Service(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  pools_.resize(cfg_.n_threads != 0
                    ? cfg_.n_threads
                    : std::max(1u, std::thread::hardware_concurrency()));
  for (ClusterPool& p : pools_) p.set_template_cache(&templates_);
  workers_.reserve(pools_.size());
  for (ClusterPool& p : pools_)
    workers_.emplace_back([this, &p] { worker_loop(p); });
}

Service::~Service() {
  std::vector<Pending> orphans;
  {
    std::lock_guard<std::mutex> l(m_);
    for (auto& [key, job] : queue_) orphans.push_back(std::move(job));
    queue_.clear();
    queue_index_.clear();
    stats_.cancelled += orphans.size();
    stop_ = true;
  }
  // In-flight jobs finish; idle workers see stop_ and exit.
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Fulfill the orphaned futures only after the workers are gone, so a
  // not-yet-started job can never be both cancelled and executed. Futures
  // only: on_complete is a worker-thread contract and these never ran.
  for (Pending& job : orphans) {
    WorkloadResult res;
    res.error = {ErrorCode::kCancelled, "service destroyed before execution"};
    job.promise.set_value(std::move(res));
  }
}

JobHandle Service::submit(std::unique_ptr<Workload> workload, SubmitOptions opts) {
  Pending job;
  job.keep_outputs = opts.keep_output.value_or(cfg_.keep_outputs);
  job.warm = workload && workload->warm_by_default();
  job.deadline = opts.deadline.value_or(cfg_.default_deadline);
  job.max_retries = opts.max_retries;
  job.fault_plan = opts.fault_plan;
  job.on_complete = std::move(opts.on_complete);
  JobHandle handle;
  handle.future_ = job.promise.get_future();
  if (!workload) {
    WorkloadResult res;
    res.error = {ErrorCode::kBadConfig, "null workload submitted"};
    job.promise.set_value(std::move(res));  // future only; the job never ran
    return handle;
  }

  // Capacity-aware admission: a spec that can never fit any grown cluster is
  // refused here, before it occupies queue space. Only *capacity* verdicts
  // are final at submit time -- any other requirements() failure is deferred
  // to the worker, so it is classified through the one normal path.
  bool over_capacity = false;
  std::string capacity_why;
  try {
    (void)resolve_cluster_config(cfg_.base, workload->requirements());
  } catch (const TypedError& e) {
    if (e.code() == ErrorCode::kCapacity) {
      over_capacity = true;
      capacity_why = e.what();
    }
  } catch (const CapacityError& e) {
    over_capacity = true;
    capacity_why = e.what();
  } catch (...) {  // deferred to the worker for classification
  }
  if (over_capacity) {
    {
      std::lock_guard<std::mutex> l(m_);
      ++stats_.rejected;
    }
    job.promise.set_value(fail(ErrorCode::kCapacity, capacity_why));
    return handle;
  }

  job.work = std::move(workload);
  job.group = opts.group;
  Pending victim;
  bool have_victim = false;
  bool shed_self = false;
  bool queue_full = false;
  {
    std::lock_guard<std::mutex> l(m_);
    if (cfg_.max_queue != 0 && queue_.size() >= cfg_.max_queue) {
      if (cfg_.queue_full_policy == QueueFullPolicy::kReject) {
        ++stats_.rejected;
        queue_full = true;
      } else {
        // Shed the job that sorts last: lowest priority, youngest within the
        // level. A new job at the victim's own priority sorts after it (ids
        // grow), so it does not outrank the victim and is shed itself.
        const auto victim_it = std::prev(queue_.end());
        if (std::make_pair(-static_cast<int64_t>(opts.priority), UINT64_MAX) >=
            victim_it->first) {
          ++stats_.shed;
          shed_self = true;
        } else {
          auto node = queue_.extract(victim_it);
          victim = std::move(node.mapped());
          queue_index_.erase(victim.id);
          ++stats_.shed;
          have_victim = true;
        }
      }
    }
    if (!queue_full && !shed_self) {
      job.id = next_id_++;
      handle.id_ = job.id;
      ++stats_.submitted;
      const auto key =
          std::make_pair(-static_cast<int64_t>(opts.priority), job.id);
      queue_index_.emplace(job.id, key);
      queue_.emplace(key, std::move(job));
    }
  }
  // All futures resolve outside the lock, and without on_complete (the
  // worker-thread contract: these jobs never executed).
  if (queue_full) {
    job.promise.set_value(
        fail(ErrorCode::kCapacity, "service queue is full (max_queue=" +
                                       std::to_string(cfg_.max_queue) + ")"));
    return handle;
  }
  if (shed_self) {
    job.promise.set_value(fail(
        ErrorCode::kCancelled,
        "shed at submission: the queue is full of higher-priority work"));
    return handle;
  }
  if (have_victim)
    victim.promise.set_value(
        fail(ErrorCode::kCancelled,
             "shed by a higher-priority submission (queue full)"));
  cv_work_.notify_one();
  return handle;
}

Service::CancelOutcome Service::cancel_detail(uint64_t job_id) {
  Pending job;
  {
    std::lock_guard<std::mutex> l(m_);
    const auto it = queue_index_.find(job_id);
    if (it == queue_index_.end()) {
      // Not queued. A *running* job is cancelled cooperatively: raise its
      // flag and let the run unwind at its next checkpoint -- the typed
      // kCancelled result flows through the job's own completion path.
      const auto rit = running_.find(job_id);
      if (rit == running_.end())
        return CancelOutcome::kUnknown;  // already done, or unknown
      rit->second.cancel->store(true, std::memory_order_relaxed);
      return CancelOutcome::kSignalled;
    }
    auto node = queue_.extract(it->second);
    queue_index_.erase(it);
    job = std::move(node.mapped());
    ++stats_.cancelled;
    if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
  }
  // Future only, invoked on the caller's thread with no service lock held:
  // on_complete is reserved for jobs that executed on a worker, so cancel()
  // can never re-enter caller-side locks through a callback.
  WorkloadResult res;
  res.error = {ErrorCode::kCancelled, "cancelled before execution"};
  job.promise.set_value(std::move(res));
  return CancelOutcome::kDequeued;
}

size_t Service::cancel_group(uint64_t group) {
  if (group == 0) return 0;
  std::vector<Pending> dequeued;
  size_t signalled = 0;
  {
    std::lock_guard<std::mutex> l(m_);
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->second.group != group) {
        ++it;
        continue;
      }
      auto node = queue_.extract(it++);
      queue_index_.erase(node.mapped().id);
      dequeued.push_back(std::move(node.mapped()));
    }
    stats_.cancelled += dequeued.size();
    for (auto& [id, rj] : running_)
      if (rj.group == group) {
        rj.cancel->store(true, std::memory_order_relaxed);
        ++signalled;
      }
    if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
  }
  // Same contract as cancel(): futures resolve on the caller's thread with
  // no lock held, on_complete never runs for jobs that never executed.
  for (Pending& job : dequeued) {
    WorkloadResult res;
    res.error = {ErrorCode::kCancelled, "cancelled before execution"};
    job.promise.set_value(std::move(res));
  }
  return dequeued.size() + signalled;
}

void Service::drain() {
  std::unique_lock<std::mutex> l(m_);
  cv_idle_.wait(l, [&] { return queue_.empty() && active_ == 0; });
}

size_t Service::queued() const {
  std::lock_guard<std::mutex> l(m_);
  return queue_.size();
}

size_t Service::active() const {
  std::lock_guard<std::mutex> l(m_);
  return active_;
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> l(m_);
  return stats_;
}

void Service::worker_loop(ClusterPool& pool) {
  std::unique_lock<std::mutex> l(m_);
  for (;;) {
    cv_work_.wait(l, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;  // ~Service already orphaned every queued job
    auto node = queue_.extract(queue_.begin());
    Pending job = std::move(node.mapped());
    queue_index_.erase(job.id);
    running_.emplace(job.id, RunningJob{job.cancel, job.group});
    ++active_;
    l.unlock();
    run_job(pool, job);
    l.lock();
    --active_;
    if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
  }
}

void Service::run_job(ClusterPool& pool, Pending& job) {
  PoolCounters counters;
  const cluster::TimingCache::Counters tc0 = pool.timing_cache().counters();
  unsigned attempt = 0;
  WorkloadResult res = execute(pool, job, 0, counters);
  // Bounded retry: only the transient kEngineFault class re-runs. Every
  // attempt re-executes from the spec on a reset cluster, so a retried
  // success is bit-identical to a never-faulted run. A raised cancel flag
  // stops the retry ladder (the next attempt would abort immediately).
  while (res.error.code == ErrorCode::kEngineFault &&
         attempt < job.max_retries &&
         !job.cancel->load(std::memory_order_relaxed)) {
    ++attempt;
    if (cfg_.retry_backoff_ms != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(
          cfg_.retry_backoff_ms << (attempt - 1)));
    res = execute(pool, job, static_cast<int32_t>(attempt), counters);
  }
  const cluster::TimingCache::Counters& tc1 = pool.timing_cache().counters();
  // Unsigned wrap-around keeps a shrinking byte count exact in the sum.
  counters.timing_cache = {tc1.hits - tc0.hits, tc1.misses - tc0.misses,
                           tc1.evictions - tc0.evictions, tc1.bytes - tc0.bytes};
  const bool ok = res.ok();
  const uint64_t cycles = res.stats.cycles;
  const uint64_t macs = res.stats.macs;

  // Stats become visible before the future is fulfilled, so a caller that
  // just observed its result reads consistent aggregate counters. The
  // running_ entry goes with them: once get() returns, cancel(id) is
  // deterministically false.
  std::unique_lock<std::mutex> l(m_);
  ++stats_.completed;
  stats_.retries += attempt;
  if (ok) {
    stats_.sim_cycles += cycles;
    stats_.macs += macs;
  } else {
    ++stats_.failed;
    if (res.error.code == ErrorCode::kCancelled) ++stats_.cancelled;
  }
  stats_.clusters_constructed += counters.constructed;
  stats_.cluster_reuses += counters.reused;
  stats_.template_forks += counters.template_forks;
  stats_.template_misses += counters.template_misses;
  stats_.timing_cache_hits += counters.timing_cache.hits;
  stats_.timing_cache_misses += counters.timing_cache.misses;
  stats_.timing_cache_evictions += counters.timing_cache.evictions;
  stats_.timing_cache_bytes += counters.timing_cache.bytes;
  running_.erase(job.id);
  l.unlock();

  finish(job, std::move(res));
}

WorkloadResult Service::execute(ClusterPool& pool, Pending& job, int32_t attempt,
                                PoolCounters& counters) {
  return guarded([&]() -> WorkloadResult {
    Workload& work = *job.work;
    if (Error err = work.validate()) {
      WorkloadResult res;
      res.error = std::move(err);
      return res;
    }
    // A cancel raised while the job sat in the queue: honor it before
    // constructing or resetting a cluster.
    if (job.cancel->load(std::memory_order_relaxed))
      throw sim::RunAborted(sim::AbortReason::kCancelled, 0,
                            "job cancelled before execution started");
    const cluster::ClusterConfig cfg =
        resolve_cluster_config(cfg_.base, work.requirements());
    RunContext ctx;
    ctx.keep_outputs = job.keep_outputs;
    ctx.deadline = job.deadline;
    ctx.cancel = job.cancel.get();
    ctx.fault_plan = job.fault_plan;
    ctx.attempt = attempt;
    if (!cfg_.reuse_clusters) {
      // Baseline mode: pay full construction/destruction per job. Nothing
      // persists to fork from, so warm requests degrade to cold runs.
      cluster::Cluster cl(cfg);
      ++counters.constructed;
      return work.run(cl, ctx);
    }
    const std::string tkey = job.warm ? work.template_key() : std::string();
    if (!tkey.empty()) {
      // Snapshot/fork provisioning: the first job of this template stages
      // and publishes the image, every later one forks it (COW page-table
      // copy) and runs only the per-job half. Bit-identical to the cold
      // path by the restore-equals-snapshot invariant.
      const ClusterPool::Acquired acq =
          pool.acquire_template(cfg, tkey, [&work](cluster::Cluster& cl) {
            work.stage_template(cl);
          });
      if (acq.constructed)
        ++counters.constructed;
      else
        ++counters.reused;
      if (acq.forked)
        ++counters.template_forks;
      else
        ++counters.template_misses;
      return work.run_staged(*acq.cl, ctx);
    }
    const ClusterPool::Acquired acq = pool.acquire(cfg);
    if (acq.constructed)
      ++counters.constructed;
    else
      ++counters.reused;
    return work.run(*acq.cl, ctx);
  });
}

void Service::finish(Pending& job, WorkloadResult res) {
  if (job.on_complete) {
    try {
      job.on_complete(res);
    } catch (...) {
      // Callbacks must not kill the worker; the result still flows through
      // the future either way.
    }
  }
  job.promise.set_value(std::move(res));
}

WorkloadResult Service::run_one(Workload& workload,
                                const cluster::ClusterConfig& base,
                                bool keep_outputs, RunContext ctx) {
  return guarded([&]() -> WorkloadResult {
    if (Error err = workload.validate()) {
      WorkloadResult res;
      res.error = std::move(err);
      return res;
    }
    cluster::Cluster cl(resolve_cluster_config(base, workload.requirements()));
    ctx.keep_outputs = keep_outputs;
    return workload.run(cl, ctx);
  });
}

}  // namespace redmule::api
