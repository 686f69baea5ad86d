/// \file service.hpp
/// \brief Asynchronous job-submission service over the Workload contract.
///
/// api::Service is the public front door for running work on simulated
/// clusters: callers submit() polymorphic api::Workload instances and get a
/// JobHandle (a future) back immediately -- no blocking, no batch assembly.
/// The service owns the process's worker threads: each worker owns a private
/// api::ClusterPool of reset()-reused cluster instances (api/pool.hpp), and
/// all of them fork templates from one shared api::TemplateCache. On top of
/// that engine the service adds the scheduling front-end:
///
///  - a shared priority queue (higher priority first, FIFO within a priority
///    level): idle workers wait on the service's condition variable and pop
///    the next job themselves, so long jobs never serialize behind short
///    ones;
///  - per-job admission, deadlines, cancellation, bounded retry;
///  - failures are values, not poison: validate()/requirements()/run()
///    errors are caught per job and reported as typed api::Error results;
///    ClusterPool's unconditional reset-before-run recovers pooled instances
///    from any previous job that threw mid-flight.
///
/// Determinism: a workload's result is a pure function of its spec (the
/// Workload contract), so submission order, priority, thread count, and
/// cluster reuse never change any outcome -- tests/api/test_service.cpp and
/// tests/api/test_service_batch.cpp assert bit-identical z_hash/stats across
/// all four axes and against the serial run_one() reference.
///
/// Robustness contracts (see docs/ARCHITECTURE.md "Robustness contracts"):
///
///  - ADMISSION: submit() refuses, before queuing, any workload whose
///    requirements() can never be satisfied (typed kCapacity via the
///    future). With a bounded queue (max_queue), a full queue either
///    rejects the new job (kReject -> kCapacity) or evicts the
///    lowest-priority queued job (kShedLowestPriority -> the victim's
///    future is fulfilled kCancelled).
///  - DEADLINES: per-job Deadline budgets (simulated-cycle and wall-clock)
///    are enforced at cooperative checkpoints inside the run; expiry
///    surfaces as a typed kTimeout result, never a hung worker.
///  - CANCELLATION: cancel(id) removes a queued job (future fulfilled
///    kCancelled) -- or, for a *running* job, raises its cooperative cancel
///    flag: the run unwinds at the next checkpoint with kCancelled and the
///    pooled cluster is recovered by the reset-before-run contract.
///  - RETRY: SubmitOptions::max_retries re-runs a job whose result was the
///    transient kEngineFault class; a retried run re-executes from the spec
///    and is bit-identical to a first run (determinism contract).
///
/// Lifecycle: drain() blocks until every submitted job has completed.
/// Destroying the service cancels all queued jobs, finishes the in-flight
/// ones, and joins the workers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/pool.hpp"
#include "api/workload.hpp"
#include "cluster/cluster.hpp"

namespace redmule::api {

/// What submit() does when the queue already holds max_queue jobs.
enum class QueueFullPolicy : uint8_t {
  /// Refuse the new job: its future is fulfilled with a typed kCapacity
  /// error (ServiceStats::rejected counts it).
  kReject,
  /// Evict the lowest-priority queued job -- the youngest within that level
  /// -- to make room; the victim's future is fulfilled kCancelled. A new job
  /// that does not strictly outrank the would-be victim is shed itself.
  kShedLowestPriority,
};

struct ServiceConfig {
  unsigned n_threads = 1;  ///< worker threads; 0 = hardware_concurrency
  /// Backpressure: queued (not yet running) jobs beyond this bound trigger
  /// queue_full_policy. 0 = unbounded (the legacy behavior).
  size_t max_queue = 0;
  QueueFullPolicy queue_full_policy = QueueFullPolicy::kReject;
  /// Applied to jobs whose SubmitOptions carry no deadline of their own.
  Deadline default_deadline{};
  cluster::ClusterConfig base; ///< geometry/TCDM/L2 grown per workload
};

struct SubmitOptions {
  /// Higher runs first among queued jobs; ties drain in submission order.
  int priority = 0;
  /// Session/tenant scope for bulk cancellation: cancel_group(g) reaches
  /// every queued and running job submitted with group == g. 0 = ungrouped
  /// (never matched by cancel_group). The serving front-end tags each
  /// client's jobs with its session id so a disconnect unwinds exactly that
  /// client's work.
  uint64_t group = 0;
  /// Return the output matrix in WorkloadResult::z (tests, examples);
  /// otherwise the result carries only its z_hash.
  bool keep_output = false;
  /// Per-job execution budget; overrides ServiceConfig::default_deadline.
  std::optional<Deadline> deadline;
  /// Re-run the job up to this many extra times when its result is the
  /// transient kEngineFault class (other failures are permanent). Each
  /// attempt executes from the spec on a reset cluster, so a retried
  /// success is bit-identical to a never-faulted run.
  unsigned max_retries = 0;
  /// Deterministic fault plan threaded into the run (not owned; must outlive
  /// the job). Test/chaos harness hook -- see sim/fault_plan.hpp.
  const sim::FaultPlan* fault_plan = nullptr;
  /// Invoked on the worker thread right before the future is fulfilled,
  /// for jobs that actually EXECUTED (ok or failed). Jobs that never start
  /// -- cancelled, dropped at service destruction, or rejected null
  /// submissions -- resolve their future only, so the callback can never
  /// run on the caller's own thread (no lock-reentrancy surprises from
  /// inside cancel()). Must not block on this job's own future (it is not
  /// ready yet) and should not throw (exceptions are swallowed to keep the
  /// worker alive).
  std::function<void(const WorkloadResult&)> on_complete;
};

/// Aggregate counters since construction; snapshot with Service::stats().
struct ServiceStats {
  uint64_t submitted = 0;  ///< jobs admitted to the queue
  uint64_t completed = 0;  ///< jobs executed to a result (ok or failed)
  uint64_t failed = 0;     ///< completed with error.code != kNone
  /// Jobs that ended kCancelled: removed from the queue, or cancelled
  /// cooperatively mid-run (those also count in completed/failed).
  uint64_t cancelled = 0;
  uint64_t rejected = 0;   ///< refused at submit (over capacity / queue full)
  uint64_t shed = 0;       ///< evicted under kShedLowestPriority pressure
  uint64_t retries = 0;    ///< re-executions after a transient kEngineFault
  uint64_t sim_cycles = 0;  ///< sum of per-job simulated cycles (ok jobs)
  uint64_t macs = 0;        ///< sum of per-job useful MACs (ok jobs)
  /// How the workers' pools provisioned each attempt (a retry is one
  /// more): a newly constructed cluster, or a reset() pooled one.
  uint64_t clusters_constructed = 0;
  uint64_t cluster_reuses = 0;
  /// Warm-start provisioning: attempts served by COW-forking a cached
  /// template image vs attempts that staged + published the template
  /// themselves. Their sum counts the attempts that took the template path.
  uint64_t template_forks = 0;
  uint64_t template_misses = 0;
  /// The workers' timing caches (cluster/timing_cache.hpp): GEMM programs
  /// replayed from a recorded outcome, programs recorded after a cycle-model
  /// run, entries evicted, and the bytes the caches hold now (the per-job
  /// changes add up to the current total).
  uint64_t timing_cache_hits = 0;
  uint64_t timing_cache_misses = 0;
  uint64_t timing_cache_evictions = 0;
  uint64_t timing_cache_bytes = 0;
  /// The shared template cache (api::TemplateCache): images evicted since
  /// construction and the bytes the images it holds are charged now.
  uint64_t template_evictions = 0;
  uint64_t template_bytes = 0;
  /// sim_cycles split by how they were produced: replayed from a timing
  /// cache record, or simulated by the cycle model. Summed per ok job like
  /// sim_cycles, so the two add up to it. A job's replayed figure is the
  /// cycles its replayed GEMM programs reported, capped at the job's own
  /// cycles: a sharded job reports a makespan over slices that ran one
  /// after another, which can be less than their replays add up to.
  uint64_t modeled_cycles = 0;
  uint64_t replayed_cycles = 0;
};

/// Move-only handle to one submitted job: its id (for cancel()) and the
/// future carrying the WorkloadResult.
class JobHandle {
 public:
  JobHandle() = default;

  uint64_t id() const { return id_; }
  bool valid() const { return future_.valid(); }
  void wait() const { future_.wait(); }
  /// Bounded wait: std::future_status::ready when the result is available
  /// within \p d, timeout otherwise. Never consumes the result.
  template <class Rep, class Period>
  std::future_status wait_for(const std::chrono::duration<Rep, Period>& d) const {
    return future_.wait_for(d);
  }
  /// Non-blocking completion probe (valid() && the result is available).
  bool ready() const {
    return future_.valid() &&
           future_.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
  }
  /// Blocks until the job completes and moves the result out. ONE-SHOT: the
  /// handle is consumed -- valid()/ready() are false afterwards. A second
  /// get() throws a typed TypedError{kBadConfig} (never the UB of touching a
  /// moved-from future): callers holding handles in maps -- where an
  /// accidental re-get is one lookup away -- get a classified, catchable
  /// error. Use wait()/wait_for()/ready() to observe completion without
  /// consuming.
  WorkloadResult get() {
    if (!future_.valid())
      throw TypedError(ErrorCode::kBadConfig,
                       "JobHandle::get() called on a consumed (or empty) "
                       "handle: the result was already moved out");
    return future_.get();
  }

 private:
  friend class Service;
  uint64_t id_ = 0;
  std::future<WorkloadResult> future_;
};

class Service {
 public:
  explicit Service(ServiceConfig cfg = {});
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Non-blocking: enqueues the workload and returns immediately. The job
  /// starts as soon as a worker is free (priority order, FIFO within a
  /// level). A null workload is rejected with kBadConfig via the future;
  /// a workload whose requirements() can never be satisfied, or that hits a
  /// full bounded queue under kReject, is refused with kCapacity (no id is
  /// assigned -- the returned handle carries only the future).
  JobHandle submit(std::unique_ptr<Workload> workload, SubmitOptions opts = {});

  /// How a cancel() landed. The distinction matters to callers that relay
  /// completions: a kDequeued job's future is fulfilled kCancelled but its
  /// on_complete never runs (it never executed), so anyone forwarding
  /// results must synthesize the notification from the future themselves.
  enum class CancelOutcome : uint8_t {
    kUnknown = 0,  ///< already done, or never submitted
    kDequeued,     ///< removed from the queue; future fulfilled kCancelled
    kSignalled,    ///< running; cancel flag raised, unwinds at a checkpoint
  };

  /// Cancels a job. Queued: removed immediately, its future fulfilled with
  /// a kCancelled error. Running: the job's cooperative cancel flag is
  /// raised and the run unwinds at its next checkpoint, delivering a typed
  /// kCancelled result through the normal completion path (callback +
  /// future). Returns true when the cancel was delivered either way; false
  /// when the job is already done or unknown.
  bool cancel(uint64_t job_id) {
    return cancel_detail(job_id) != CancelOutcome::kUnknown;
  }
  /// cancel() with the outcome surfaced (see CancelOutcome).
  CancelOutcome cancel_detail(uint64_t job_id);

  /// Session-scoped cancel: every queued and running job whose
  /// SubmitOptions::group matched \p group. Queued matches are dequeued
  /// (futures fulfilled kCancelled, on_complete never runs); running matches
  /// get their cancel flags raised and unwind cooperatively. Returns the
  /// number of jobs reached. group 0 never matches anything.
  size_t cancel_group(uint64_t group);

  /// Blocks until the queue is empty and no job is executing. Jobs submitted
  /// concurrently with drain() (from other threads) may or may not be
  /// covered; serialize externally if that matters.
  void drain();

  unsigned n_threads() const { return static_cast<unsigned>(pools_.size()); }
  size_t queued() const;
  /// Jobs currently executing on workers (instantaneous; for health/stats
  /// surfaces alongside queued()).
  size_t active() const;
  ServiceStats stats() const;

  /// Reference path for tests and one-shot tools: executes one workload on
  /// a fresh, unpooled cluster synchronously. Same failure contract as the
  /// service path: errors land in the result, never throw. \p ctx supplies
  /// the robustness knobs (deadline, cancel flag, fault plan); its
  /// keep_outputs field is overridden by \p keep_outputs.
  static WorkloadResult run_one(Workload& workload,
                                const cluster::ClusterConfig& base = {},
                                bool keep_outputs = true, RunContext ctx = {});

 private:
  struct Pending {
    uint64_t id = 0;
    std::unique_ptr<Workload> work;
    SubmitOptions opts;  ///< as submitted
    /// Cooperative cancel flag; shared so cancel() can raise it while the
    /// worker owns the Pending.
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);
    std::promise<WorkloadResult> promise;
  };

  /// Worker thread body: pops the highest-priority pending job whenever the
  /// queue is non-empty and runs it with the worker's own pool, until
  /// ~Service raises stop_.
  void worker_loop(ClusterPool& pool);
  /// Runs one popped job (with retries) and publishes its result. The
  /// pool counts what it provisions; the job adds the change in its
  /// counters to the service's.
  void run_job(ClusterPool& pool, Pending& job);
  /// One attempt: provisions a cluster from \p pool and runs the job on it.
  WorkloadResult execute(ClusterPool& pool, Pending& job, int32_t attempt);
  static void finish(Pending& job, WorkloadResult res);

  ServiceConfig cfg_;
  /// Shared template-image store; every worker pool forks from it. Declared
  /// before pools_ so it outlives them.
  TemplateCache templates_;
  /// One per worker, thread-private; sized once by the constructor.
  std::vector<ClusterPool> pools_;

  mutable std::mutex m_;
  std::condition_variable cv_work_;  ///< workers: queue non-empty or stop_
  std::condition_variable cv_idle_;
  /// Priority queue with stable FIFO within a level and O(log n) cancel:
  /// keyed by {-priority, submission id}, smallest key pops first.
  std::map<std::pair<int64_t, uint64_t>, Pending> queue_;
  std::unordered_map<uint64_t, std::pair<int64_t, uint64_t>> queue_index_;
  /// Cancel flags (and group tags, for cancel_group) of jobs currently
  /// executing, so cancel() can reach a running job. An entry is erased
  /// (under m_) before the job's future is fulfilled: once get() returns,
  /// cancel(id) is deterministically false.
  struct RunningJob {
    std::shared_ptr<std::atomic<bool>> cancel;
    uint64_t group = 0;
  };
  std::unordered_map<uint64_t, RunningJob> running_;
  uint64_t next_id_ = 1;
  unsigned active_ = 0;
  bool stop_ = false;  ///< set by ~Service: workers exit once idle

  ServiceStats stats_;  ///< guarded by m_

  /// Started last in the constructor, joined first in the destructor.
  std::vector<std::thread> workers_;
};

}  // namespace redmule::api
