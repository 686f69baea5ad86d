// Contracts of the fault-tolerant execution layer:
//
//  - DEADLINES: simulated-cycle budgets abort deterministically (same cycle,
//    same message, every run) with typed kTimeout; wall-clock budgets abort
//    a run that would otherwise spin forever.
//  - CANCELLATION: cancel() reaches *running* jobs cooperatively; the worker
//    and its pooled clusters survive (next job bit-identical to an oracle).
//  - OBSERVATIONAL PURITY: an armed RunControl that never fires changes
//    nothing -- cycle counts and output bits identical to an unarmed run.
//  - ADMISSION: impossible requirements are refused at submit() with typed
//    kCapacity, before queuing; bounded queues reject or shed by priority,
//    and priority/FIFO ordering of the surviving jobs is preserved.
//  - RETRY: bounded retry re-runs only the transient kEngineFault class;
//    a retried success is bit-identical to a never-faulted run.
//  - FAULT INJECTION: deterministic plan events surface as their documented
//    typed errors; a DMA stall stretches a job without corrupting it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "api/workload.hpp"

using namespace redmule;
using api::Deadline;
using api::ErrorCode;
using api::JobHandle;
using api::QueueFullPolicy;
using api::Service;
using api::ServiceConfig;
using api::SubmitOptions;
using api::Workload;
using api::WorkloadRegistry;
using api::WorkloadResult;

namespace {

/// Small-TCDM base so tiled specs stream through real tiles (and therefore
/// hit the per-tile checkpoints).
cluster::ClusterConfig small_base() {
  cluster::ClusterConfig base;
  base.tcdm.words_per_bank = 256;  // 16 KiB
  return base;
}

/// A tiled spec that runs long enough to cross several checkpoint intervals.
const char* kTiledSpec = "tiled:m=48,n=48,k=48,geom=4x8x3,seed=11";
const char* kGemmSpec = "gemm:m=16,n=16,k=16,seed=5";

struct Outcome {
  uint64_t cycles, advance, stall, macs, fma_ops, z_hash;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const WorkloadResult& r) {
  return {r.stats.cycles,  r.stats.advance_cycles, r.stats.stall_cycles,
          r.stats.macs,    r.stats.fma_ops,        r.z_hash};
}

WorkloadResult oracle(const std::string& spec,
                      const cluster::ClusterConfig& base) {
  auto w = WorkloadRegistry::global().create(spec);
  WorkloadResult r = Service::run_one(*w, base);
  EXPECT_TRUE(r.ok()) << spec << ": " << r.error.to_string();
  return r;
}

/// Burns simulated cycles until aborted through its RunContext -- the
/// canonical target for wall deadlines and mid-flight cancellation.
class SpinWorkload : public Workload {
 public:
  std::string name() const override { return "test:spin"; }
  api::ClusterRequirements requirements() const override { return {}; }
  api::Error validate() const override { return {}; }
  WorkloadResult run(cluster::Cluster& cl, api::RunContext& ctx) override {
    api::ScopedRunControl control(cl, ctx);
    started.set_value();
    cl.run_until([] { return false; },
                 std::numeric_limits<uint64_t>::max());
    return {};
  }

  std::promise<void> started;
};

/// Blocks its worker until released (host-side, no simulation) -- pins a
/// worker so queue-pressure behavior becomes observable.
class BlockingWorkload : public Workload {
 public:
  std::string name() const override { return "test:blocking"; }
  api::ClusterRequirements requirements() const override { return {}; }
  api::Error validate() const override { return {}; }
  WorkloadResult run(cluster::Cluster&, api::RunContext&) override {
    started.set_value();
    release.get_future().wait();
    return {};
  }

  std::promise<void> started;
  std::promise<void> release;
};

class TagWorkload : public Workload {
 public:
  explicit TagWorkload(uint64_t tag) : tag_(tag) {}
  std::string name() const override { return "test:tag"; }
  api::ClusterRequirements requirements() const override { return {}; }
  api::Error validate() const override { return {}; }
  WorkloadResult run(cluster::Cluster&, api::RunContext&) override {
    WorkloadResult res;
    res.z_hash = tag_;
    return res;
  }

 private:
  uint64_t tag_;
};

}  // namespace

// --- Deadlines ---------------------------------------------------------------

TEST(ApiDeadlines, CycleBudgetTimesOutDeterministically) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  cfg.base = small_base();
  Service service(cfg);

  SubmitOptions opts;
  opts.deadline = Deadline{2000, 0};  // far below the tiled job's runtime
  std::vector<std::string> messages;
  for (int i = 0; i < 2; ++i) {
    WorkloadResult r =
        service.submit(WorkloadRegistry::global().create(kTiledSpec), opts)
            .get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error.code, ErrorCode::kTimeout) << r.error.to_string();
    messages.push_back(r.error.message);
  }
  // The simulated-cycle budget is deterministic: both runs abort at the same
  // checkpoint, so the messages (which embed the abort cycle) are identical.
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_NE(messages[0].find("budget"), std::string::npos);

  // The pooled cluster survives the mid-flight abort: the same spec without
  // a deadline completes bit-identically to a fresh-cluster oracle.
  WorkloadResult ok =
      service.submit(WorkloadRegistry::global().create(kTiledSpec)).get();
  ASSERT_TRUE(ok.ok()) << ok.error.to_string();
  EXPECT_EQ(outcome_of(ok), outcome_of(oracle(kTiledSpec, small_base())));
}

TEST(ApiDeadlines, DefaultDeadlineAppliesWhenSubmitHasNone) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  cfg.base = small_base();
  cfg.default_deadline = Deadline{2000, 0};
  Service service(cfg);

  WorkloadResult r =
      service.submit(WorkloadRegistry::global().create(kTiledSpec)).get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kTimeout);

  // A per-submit unlimited deadline overrides the service default.
  SubmitOptions unlimited;
  unlimited.deadline = Deadline{};
  WorkloadResult ok =
      service.submit(WorkloadRegistry::global().create(kTiledSpec), unlimited)
          .get();
  EXPECT_TRUE(ok.ok()) << ok.error.to_string();
}

TEST(ApiDeadlines, WallClockBudgetStopsARunawayJob) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  Service service(cfg);

  auto spin = std::make_unique<SpinWorkload>();
  SubmitOptions opts;
  opts.deadline = Deadline{0, 20};  // 20 ms wall budget, unlimited cycles
  WorkloadResult r = service.submit(std::move(spin), opts).get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kTimeout) << r.error.to_string();
  EXPECT_NE(r.error.message.find("wall-clock"), std::string::npos);
}

TEST(ApiDeadlines, ArmedButUnexpiredControlIsObservationallyPure) {
  // A huge cycle budget arms the RunControl (checkpoints actually poll) but
  // never fires: every counter and every output bit must match the unarmed
  // run. This is the checkpoint-purity contract the benches rely on.
  auto w1 = WorkloadRegistry::global().create(kTiledSpec);
  const WorkloadResult plain = Service::run_one(*w1, small_base());
  ASSERT_TRUE(plain.ok());

  api::RunContext ctx;
  ctx.deadline = Deadline{1ull << 60, 0};
  auto w2 = WorkloadRegistry::global().create(kTiledSpec);
  const WorkloadResult armed = Service::run_one(*w2, small_base(), true, ctx);
  ASSERT_TRUE(armed.ok()) << armed.error.to_string();
  EXPECT_EQ(outcome_of(armed), outcome_of(plain));
}

// --- Cancellation of running jobs -------------------------------------------

TEST(ApiCancel, RunningJobCancelsCooperativelyAndPoolSurvives) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  Service service(cfg);
  SubmitOptions keep;
  keep.keep_output = true;

  const WorkloadResult before =
      service.submit(WorkloadRegistry::global().create(kGemmSpec), keep).get();
  ASSERT_TRUE(before.ok());

  auto spin = std::make_unique<SpinWorkload>();
  auto started = spin->started.get_future();
  JobHandle handle = service.submit(std::move(spin));
  started.wait();  // the job is executing now
  EXPECT_TRUE(service.cancel(handle.id()));

  WorkloadResult r = handle.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kCancelled) << r.error.to_string();
  // Once the result is delivered the id is gone for good.
  EXPECT_FALSE(service.cancel(handle.id()));

  // The worker survived, and its pooled cluster (shared with the GEMM jobs
  // above -- same requirements) is recovered by reset-before-run.
  WorkloadResult after =
      service.submit(WorkloadRegistry::global().create(kGemmSpec), keep).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(outcome_of(after), outcome_of(before));

  const api::ServiceStats st = service.stats();
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 3u);  // the cancelled run still executed
  EXPECT_EQ(st.failed, 1u);
}

TEST(ApiCancel, QueuedCancelRaisedBeforeStartIsHonoredWithoutRunning) {
  // Cancel a job while a blocker pins the worker; even if the worker pops it
  // before observing the cancel, execute() checks the flag up front.
  ServiceConfig cfg;
  cfg.n_threads = 1;
  Service service(cfg);

  auto blocker = std::make_unique<BlockingWorkload>();
  auto started = blocker->started.get_future();
  auto release = &blocker->release;
  JobHandle blocked = service.submit(std::move(blocker));
  started.wait();

  JobHandle queued = service.submit(std::make_unique<TagWorkload>(1));
  EXPECT_TRUE(service.cancel(queued.id()));
  release->set_value();
  (void)blocked.get();
  WorkloadResult r = queued.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kCancelled);
}

// --- Admission control and backpressure -------------------------------------

TEST(ApiAdmission, ImpossibleRequirementsAreRejectedBeforeQueuing) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  Service service(cfg);

  api::GemmSpec spec;
  spec.shape = {"huge", 40000, 40000, 40000};
  JobHandle h = service.submit(std::make_unique<api::GemmWorkload>(spec));
  // Resolved synchronously: the future is ready without any worker involved.
  EXPECT_TRUE(h.ready());
  WorkloadResult r = h.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kCapacity) << r.error.to_string();

  const api::ServiceStats st = service.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.submitted, 0u);  // never admitted
  EXPECT_EQ(st.completed, 0u);  // never reached a worker
}

TEST(ApiAdmission, FullQueueRejectsNewJobsUnderRejectPolicy) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  cfg.max_queue = 1;
  cfg.queue_full_policy = QueueFullPolicy::kReject;
  Service service(cfg);

  auto blocker = std::make_unique<BlockingWorkload>();
  auto started = blocker->started.get_future();
  auto release = &blocker->release;
  JobHandle blocked = service.submit(std::move(blocker));
  started.wait();

  JobHandle queued = service.submit(std::make_unique<TagWorkload>(1));
  EXPECT_EQ(service.queued(), 1u);

  JobHandle refused = service.submit(std::make_unique<TagWorkload>(2));
  ASSERT_EQ(refused.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  WorkloadResult r = refused.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kCapacity) << r.error.to_string();
  EXPECT_NE(r.error.message.find("queue is full"), std::string::npos);

  release->set_value();
  (void)blocked.get();
  WorkloadResult survivor = queued.get();
  EXPECT_TRUE(survivor.ok());
  EXPECT_EQ(survivor.z_hash, 1u);
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(ApiAdmission, FullQueueShedsLowestPriorityAndKeepsOrdering) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  cfg.max_queue = 2;
  cfg.queue_full_policy = QueueFullPolicy::kShedLowestPriority;
  Service service(cfg);

  auto blocker = std::make_unique<BlockingWorkload>();
  auto started = blocker->started.get_future();
  auto release = &blocker->release;
  JobHandle blocked = service.submit(std::move(blocker));
  started.wait();

  std::mutex m;
  std::vector<uint64_t> order;
  const auto record = [&](const WorkloadResult& r) {
    std::lock_guard<std::mutex> l(m);
    order.push_back(r.z_hash);
  };
  const auto submit_tag = [&](uint64_t tag, int prio) {
    SubmitOptions opts;
    opts.priority = prio;
    opts.on_complete = record;
    return service.submit(std::make_unique<TagWorkload>(tag), opts);
  };

  JobHandle a = submit_tag(1, 0);  // will be the shed victim
  JobHandle b = submit_tag(2, 1);
  EXPECT_EQ(service.queued(), 2u);

  // Outranks the lowest-priority queued job -> that job (tag 1) is shed.
  JobHandle c = submit_tag(3, 5);
  WorkloadResult shed = a.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error.code, ErrorCode::kCancelled) << shed.error.to_string();
  EXPECT_EQ(service.queued(), 2u);

  // Does not outrank the current lowest (tag 2 at prio 1) -> shed itself.
  JobHandle d = submit_tag(4, 0);
  ASSERT_EQ(d.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  WorkloadResult self_shed = d.get();
  ASSERT_FALSE(self_shed.ok());
  EXPECT_EQ(self_shed.error.code, ErrorCode::kCancelled);

  release->set_value();
  (void)blocked.get();
  WorkloadResult rc = c.get();
  WorkloadResult rb = b.get();
  EXPECT_TRUE(rc.ok());
  EXPECT_TRUE(rb.ok());
  // Priority ordering of the survivors is untouched by the shedding.
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 2}));
  EXPECT_EQ(service.stats().shed, 2u);
  // Shed jobs never execute, so the on_complete contract holds: only the
  // two survivors (and the blocker) fired callbacks.
}

// --- Bounded retry -----------------------------------------------------------

TEST(ApiRetry, TransientEngineFaultIsRetriedToABitExactResult) {
  const WorkloadResult ref = oracle(kTiledSpec, small_base());

  ServiceConfig cfg;
  cfg.n_threads = 1;
  cfg.base = small_base();
  Service service(cfg);

  // The fault fires on attempt 0 only: the retry runs fault-free.
  sim::FaultPlan plan;
  plan.add({sim::FaultKind::kEngineFault, 0, 0, /*attempt=*/0});
  SubmitOptions opts;
  opts.max_retries = 1;
  opts.fault_plan = &plan;
  WorkloadResult r =
      service.submit(WorkloadRegistry::global().create(kTiledSpec), opts)
          .get();
  ASSERT_TRUE(r.ok()) << r.error.to_string();
  EXPECT_EQ(outcome_of(r), outcome_of(ref));

  const api::ServiceStats st = service.stats();
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.failed, 0u);
}

TEST(ApiRetry, PersistentFaultExhaustsTheBudgetAndStaysTyped) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  cfg.base = small_base();
  Service service(cfg);

  sim::FaultPlan plan;
  plan.add({sim::FaultKind::kEngineFault, 0, 0, /*attempt=*/-1});  // every run
  SubmitOptions opts;
  opts.max_retries = 2;
  opts.fault_plan = &plan;
  WorkloadResult r =
      service.submit(WorkloadRegistry::global().create(kTiledSpec), opts)
          .get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kEngineFault) << r.error.to_string();
  EXPECT_NE(r.error.message.find("injected engine fault"), std::string::npos);

  const api::ServiceStats st = service.stats();
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.failed, 1u);
}

TEST(ApiRetry, NonTransientFailuresAreNeverRetried) {
  ServiceConfig cfg;
  cfg.n_threads = 1;
  cfg.base = small_base();
  Service service(cfg);

  SubmitOptions opts;
  opts.max_retries = 3;
  opts.deadline = Deadline{2000, 0};
  WorkloadResult r =
      service.submit(WorkloadRegistry::global().create(kTiledSpec), opts)
          .get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kTimeout);
  EXPECT_EQ(service.stats().retries, 0u);  // kTimeout is permanent
}

// --- Fault injection ---------------------------------------------------------

TEST(ApiFaults, DmaStallStretchesTheJobWithoutCorruptingIt) {
  const WorkloadResult ref = oracle(kTiledSpec, small_base());

  sim::FaultPlan plan;
  plan.add({sim::FaultKind::kDmaStall, 0, /*arg=*/500, /*attempt=*/-1});
  api::RunContext ctx;
  ctx.fault_plan = &plan;

  auto w = WorkloadRegistry::global().create(kTiledSpec);
  const WorkloadResult stalled = Service::run_one(*w, small_base(), true, ctx);
  ASSERT_TRUE(stalled.ok()) << stalled.error.to_string();
  // Protocol safety: same bits, strictly more cycles.
  EXPECT_EQ(stalled.z_hash, ref.z_hash);
  EXPECT_GT(stalled.stats.cycles, ref.stats.cycles);

  // And deterministically so: the same plan reproduces the same stretch.
  auto w2 = WorkloadRegistry::global().create(kTiledSpec);
  const WorkloadResult again = Service::run_one(*w2, small_base(), true, ctx);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(outcome_of(again), outcome_of(stalled));
}

TEST(ApiFaults, WorkerExceptionClassifiesAsEngineFault) {
  sim::FaultPlan plan;
  plan.add({sim::FaultKind::kWorkerException, 0, 0, /*attempt=*/-1});
  api::RunContext ctx;
  ctx.fault_plan = &plan;

  auto w = WorkloadRegistry::global().create(kTiledSpec);
  const WorkloadResult r = Service::run_one(*w, small_base(), true, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error.code, ErrorCode::kEngineFault) << r.error.to_string();
  EXPECT_NE(r.error.message.find("injected worker exception"),
            std::string::npos);
}
