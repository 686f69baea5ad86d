/// \file workload.hpp
/// \brief The public workload contract: one polymorphic surface over every
///        execution path of the simulator.
///
/// The repo grew four ways to run work on a cluster -- monolithic
/// RedmuleDriver GEMMs, the tiled L2 pipeline, whole network training steps,
/// and the batched multi-cluster runner -- each with a bespoke entry point.
/// This header defines the one abstraction they all fit behind:
///
///  - api::Workload: a self-contained, *deterministic* unit of work. It
///    declares what cluster it needs (requirements()), can reject its own
///    configuration up front (validate(), typed errors), and executes on a
///    reset-fresh cluster (run()). A workload's result -- cycle counts,
///    statistics, every FP16 output bit -- must be a pure function of its
///    spec: no wall clock, no thread identity, no global state. That purity
///    is what lets api::Service schedule workloads on any worker, in any
///    order, at any priority, on pooled clusters, without changing a single
///    outcome.
///  - api::Error / api::ErrorCode: the typed failure taxonomy replacing
///    stringly-typed error reporting. BadConfig = the spec itself is invalid;
///    Capacity = the spec is valid but exceeds what any cluster here can be
///    grown to (or the service's queue bound); Timeout = the simulation ran
///    but did not converge, or a Deadline budget expired mid-flight;
///    EngineFault = the simulation failed mid-run (an internal throw; the
///    one transient class the service may retry); Cancelled = the job was
///    cancelled -- before it started, cooperatively mid-flight, or by being
///    shed under queue pressure. Classification is by exception *type*
///    (redmule::TimeoutError / CapacityError / sim::RunAborted /
///    api::TypedError), thrown at the source, never by message text.
///  - GemmWorkload / TiledGemmWorkload / NetworkTrainingWorkload: adapters
///    wrapping the existing runners *bit-exactly* -- same input generation,
///    same cluster sizing, same hashes whether run serially or through the
///    async service (tests/api/test_service.cpp proves equivalence).
///  - api::WorkloadRegistry: name-keyed factories so benches, CLIs and tests
///    can instantiate scenarios from a spec string like
///    "gemm:m=64,n=64,k=64,seed=7" without compile-time knowledge of the
///    concrete type.
///
/// Boundary rule: src/api headers are the public surface. They may depend on
/// the layers below (cluster, workloads, core) but never on src/sim -- the
/// legacy batch runner depends on this API, not the other way around. CI
/// compiles a TU that includes only src/api headers to keep them
/// self-contained.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/check.hpp"
#include "common/errors.hpp"
#include "common/matrix.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "workloads/gemm.hpp"
#include "workloads/network.hpp"

namespace redmule::api {

// --- Error taxonomy ---------------------------------------------------------
//
// ErrorCode / Error / TypedError / error_code_name now live in
// common/errors.hpp (still namespace redmule::api) so layers below the
// public API -- e.g. state::snapshot's typed refusal of a mid-flight
// cluster -- can throw classified failures without a layering cycle.
// Including this header keeps exposing them unchanged.

// --- The workload contract --------------------------------------------------

/// What a workload needs from the cluster it runs on. The service resolves
/// this against its base ClusterConfig with resolve_cluster_config(): the
/// geometry is taken verbatim, TCDM banks are widened to the geometry's port
/// count, and TCDM/L2 capacities are grown (by doubling) to the declared
/// byte floors. Workloads with equal resolved configs share pooled cluster
/// instances (api::ClusterPool compares the whole config).
struct ClusterRequirements {
  core::Geometry geometry{};
  uint64_t tcdm_bytes = 0;  ///< minimum TCDM capacity in bytes (0 = base config)
  uint64_t l2_bytes = 0;    ///< minimum L2 capacity in bytes (0 = base config)
};

/// Resolves requirements against a base config. Throws TypedError(kCapacity)
/// when the required L2 cannot fit the 32-bit address space, and
/// TypedError(kBadConfig) when the geometry is invalid.
cluster::ClusterConfig resolve_cluster_config(const cluster::ClusterConfig& base,
                                              const ClusterRequirements& reqs);

/// FNV-1a over every ClusterConfig field, one 64-bit word each. A bucket
/// hash only (api::TemplateCache): a match is confirmed on the whole config.
uint64_t pool_key(const cluster::ClusterConfig& cfg);

/// Execution budget for one job. Both limits are optional (0 = unlimited).
/// The simulated-cycle budget is deterministic: a job that exceeds it aborts
/// at the same checkpoint on every run, every worker, every thread count.
/// The wall-clock budget is a best-effort guard against host-side
/// pathologies and is inherently non-deterministic in *whether* it fires;
/// the simulated results of jobs that complete are unaffected either way.
/// Exceeding either surfaces as a typed kTimeout result. A job that runs in
/// several armed phases (the sharded step's slices and reduction) gets the
/// cycle budget per phase and the wall budget once for the whole job.
struct Deadline {
  uint64_t max_sim_cycles = 0;  ///< simulated-cycle budget (0 = unlimited)
  uint64_t max_wall_ms = 0;     ///< wall-clock budget in ms (0 = unlimited)

  bool unlimited() const { return max_sim_cycles == 0 && max_wall_ms == 0; }
};

/// Per-run knobs the executor passes down. keep_outputs only affects what is
/// retained of the outcome. The robustness fields (deadline, cancel,
/// fault_plan) can *end* a run early with a typed error, but can never
/// change a single bit of a run that completes -- checkpoints are purely
/// observational (see sim/run_control.hpp).
struct RunContext {
  bool keep_outputs = false;  ///< populate WorkloadResult::z (tests, examples)
  Deadline deadline{};        ///< budgets enforced at cooperative checkpoints
  /// Cooperative cancel flag (not owned; may be null). Polled relaxed at
  /// checkpoints; once it reads true the run unwinds as typed kCancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Deterministic fault plan (not owned; may be null). Events fire at their
  /// simulated-cycle points, so injected failures are bit-reproducible.
  const sim::FaultPlan* fault_plan = nullptr;
  /// Retry attempt index (0 = first execution). Selects which fault events
  /// arm (FaultEvent::attempt), letting tests model transient faults that a
  /// bounded retry outlives.
  int32_t attempt = 0;
  /// When the wall-clock budget started. Empty (the default) starts it as
  /// each ScopedRunControl arms; a job that arms several controls in turn
  /// pins it once (pin_wall_budget) so that they share one budget.
  std::optional<std::chrono::steady_clock::time_point> wall_start;
};

/// \p ctx with its wall-clock budget started now, unless it has no wall
/// budget or the budget is already started.
RunContext pin_wall_budget(RunContext ctx);

/// Outcome of one workload execution. Move-only: results hold full FP16
/// output matrices when keep_outputs is set, and the submission pipeline
/// (worker -> promise -> future -> caller) moves them end to end -- an
/// accidental copy is a compile error, not a silent performance bug.
struct WorkloadResult {
  Error error;               ///< code == kNone on success
  core::JobStats stats;      ///< simulated cycles, stalls, MACs, FMA ops
  uint64_t z_hash = 0;       ///< FNV-1a over the output FP16 bit patterns
  workloads::MatrixF16 z;    ///< populated only with RunContext::keep_outputs

  WorkloadResult() = default;
  WorkloadResult(WorkloadResult&&) noexcept = default;
  WorkloadResult& operator=(WorkloadResult&&) noexcept = default;
  WorkloadResult(const WorkloadResult&) = delete;
  WorkloadResult& operator=(const WorkloadResult&) = delete;

  bool ok() const { return error.code == ErrorCode::kNone; }
};

static_assert(!std::is_copy_constructible_v<WorkloadResult>,
              "results must move through the pipeline, never copy");
static_assert(std::is_nothrow_move_constructible_v<WorkloadResult>,
              "vector growth and promise fulfillment must not copy-fallback");

/// One unit of work. Implementations must be deterministic: run() on a
/// freshly-constructed (or reset) cluster of the resolved config must
/// produce bit-identical results every time, independent of which thread
/// runs it, when, or what ran on the cluster before (the service resets
/// pooled clusters before every job).
///
/// Failure contract: validate() reports spec errors without running;
/// requirements()/run() may throw (TypedError for classified failures,
/// anything else is reported as kEngineFault). The service catches
/// everything -- a failed workload never poisons its worker or its pooled
/// clusters.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual ClusterRequirements requirements() const = 0;
  /// Typed up-front spec check; Error{} (kNone) when the spec is runnable.
  virtual Error validate() const = 0;
  /// Executes on \p cluster, which is in the reset-fresh state and sized
  /// per requirements(). Returns stats + output hash (+ outputs on request).
  virtual WorkloadResult run(cluster::Cluster& cluster, RunContext& ctx) = 0;

  // --- Snapshot/fork warm-start surface (optional) ---------------------------
  //
  // A workload whose runs share an expensive job-invariant staging phase
  // (e.g. a training step's weights) can split it off: stage_template()
  // writes exactly that state on a reset cluster, template_key() names the
  // resulting bits, and run_staged() executes over a cluster already holding
  // them. The pool stages once per key, snapshots the staged cluster, and
  // provisions every later job by COW-forking the image
  // (ClusterPool::acquire_template) -- bit-identical to a cold run by the
  // restore-equals-snapshot invariant, so warm-starting can never change a
  // result, only host wall-clock.

  /// Identity of the bits stage_template() writes; empty (the default) means
  /// the workload does not support warm-start templates. The key must cover
  /// every spec field staging depends on -- and nothing per-job (a key that
  /// varies per job defeats the cache; one that under-covers corrupts it).
  virtual std::string template_key() const { return {}; }
  /// Stages the job-invariant state on a reset-fresh cluster sized per
  /// requirements(); the cluster must be quiescent (snapshot-able) after.
  /// Only called when template_key() is non-empty.
  virtual void stage_template(cluster::Cluster& cluster) const {
    (void)cluster;
    throw TypedError(ErrorCode::kBadConfig,
                     name() + " does not support warm-start templates");
  }
  /// run() over a cluster already holding the staged template (directly, or
  /// restored from its snapshot image). The default forwards to run(), which
  /// is correct only when run() re-stages everything itself; template-capable
  /// workloads override this to skip the staged half.
  virtual WorkloadResult run_staged(cluster::Cluster& cluster, RunContext& ctx) {
    return run(cluster, ctx);
  }
  /// Whether submission takes the warm-start path (the spec-string opt-in:
  /// specs carry a warm flag the workload surfaces here).
  virtual bool warm_by_default() const { return false; }
};

/// RAII: arms a sim::RunControl on \p cluster from a RunContext and
/// guarantees disarming on every exit path -- including aborts that unwind
/// through Workload::run. Workload implementations construct one at the top
/// of run(); when the context requests nothing (no deadline, no cancel flag,
/// no fault events) nothing is installed, and the simulator's checkpoint
/// poll stays a single null-pointer test.
class ScopedRunControl {
 public:
  ScopedRunControl(cluster::Cluster& cluster, const RunContext& ctx);
  ~ScopedRunControl();
  ScopedRunControl(const ScopedRunControl&) = delete;
  ScopedRunControl& operator=(const ScopedRunControl&) = delete;

  bool armed() const { return armed_; }

 private:
  cluster::Cluster& cluster_;
  sim::RunControl control_;
  bool armed_ = false;
};

// --- FNV-1a output hashing (shared by every adapter and the tests) ----------

/// Chainable FNV-1a over the row-major FP16 bit patterns.
uint64_t hash_fold(uint64_t h, const workloads::MatrixF16& m);
uint64_t hash_matrix(const workloads::MatrixF16& m);

// --- Concrete adapters ------------------------------------------------------

/// Spec of a monolithic (TCDM-resident) GEMM job: Z = X*W, optionally
/// Z = Y + X*W. Inputs are drawn from \p seed (X, then W, then Y when
/// accumulating) -- the exact generation order of the legacy batch path, so
/// hashes stay comparable across the API migration.
struct GemmSpec {
  workloads::GemmShape shape;
  core::Geometry geometry{};
  uint64_t seed = 1;
  bool accumulate = false;
};

/// Monolithic GEMM through RedmuleDriver: operands resident in TCDM.
class GemmWorkload : public Workload {
 public:
  explicit GemmWorkload(GemmSpec spec) : spec_(std::move(spec)) {}

  std::string name() const override;
  ClusterRequirements requirements() const override;
  Error validate() const override;
  WorkloadResult run(cluster::Cluster& cluster, RunContext& ctx) override;

  const GemmSpec& spec() const { return spec_; }

 private:
  GemmSpec spec_;
};

/// The same GEMM with L2-resident operands streamed through the TCDM by the
/// double-buffered tiled pipeline (cluster/tiled_gemm_runner.hpp). Z bits are
/// identical to GemmWorkload for the same spec; only the cycle accounting
/// (DMA included) and the cluster sizing (small TCDM, grown L2) differ.
class TiledGemmWorkload : public Workload {
 public:
  explicit TiledGemmWorkload(GemmSpec spec) : spec_(std::move(spec)) {}

  std::string name() const override;
  ClusterRequirements requirements() const override;
  Error validate() const override;
  WorkloadResult run(cluster::Cluster& cluster, RunContext& ctx) override;

  const GemmSpec& spec() const { return spec_; }

 private:
  GemmSpec spec_;
};

/// Spec of a whole autoencoder training step (forward, dX, dW chains with
/// L2-resident activations) executed by cluster::NetworkRunner. The weights
/// are drawn from seed (NetworkGraph::autoencoder) and the input batch by
/// draw_network_input(); z_hash folds the reconstruction output plus every
/// per-layer dW gradient (hash_training_step), so the determinism contract
/// covers the whole backward pass.
struct NetworkTrainingSpec {
  workloads::AutoencoderConfig net{};
  core::Geometry geometry{};
  uint64_t seed = 1;
  /// Learning rate (spec key lr=). Accepted, but it reaches no result bit:
  /// z_hash folds the output and dW, which are computed before any update,
  /// and a job's updated weights are never read.
  double lr = 0.01;
  /// Seed of the input-batch draw. 0 (the legacy default) continues the
  /// weight RNG stream -- the exact historical bit pattern. Nonzero draws
  /// the input from its own Xoshiro256 stream, so jobs sharing (net,
  /// geometry, seed) -- and therefore one warm-start template -- still vary
  /// their data per job.
  uint64_t input_seed = 0;
  /// Opt-in (spec key warm=1): submit through the snapshot/fork template
  /// path by default, skipping weight staging after the first job of this
  /// (net, geometry, seed, batch) template. Never changes any result bit.
  bool warm = false;
};

class NetworkTrainingWorkload : public Workload {
 public:
  explicit NetworkTrainingWorkload(NetworkTrainingSpec spec)
      : spec_(std::move(spec)) {}

  std::string name() const override;
  ClusterRequirements requirements() const override;
  Error validate() const override;
  WorkloadResult run(cluster::Cluster& cluster, RunContext& ctx) override;

  /// Warm-start surface: the template is the fully staged training layout
  /// (weights both orientations + zeroed gradient/activation regions) for
  /// the seed-drawn network, and it is the only place a job's weights come
  /// from: run_staged() draws just the input and reads the weights from L2.
  /// The key covers exactly the template's inputs -- dims, batch, geometry,
  /// weight seed -- and neither input_seed nor lr, which only affect the
  /// per-job half.
  std::string template_key() const override;
  /// Draws the weights from seed and stages them; run() is this followed by
  /// run_staged() on the same cluster.
  void stage_template(cluster::Cluster& cluster) const override;
  WorkloadResult run_staged(cluster::Cluster& cluster, RunContext& ctx) override;
  bool warm_by_default() const override { return spec_.warm; }

  const NetworkTrainingSpec& spec() const { return spec_; }

 private:
  NetworkTrainingSpec spec_;
};

// --- Spec strings and the registry ------------------------------------------

/// Parsed "key=value,key=value" argument list of a spec string, with typed
/// accessors. Accessors mark keys consumed; require_all_consumed() turns a
/// typo'd key into a kBadConfig error instead of a silent default.
class SpecArgs {
 public:
  /// Parses the part after the kind prefix ("m=64,n=64,k=64").
  static SpecArgs parse(const std::string& body);

  std::string str(const std::string& key, const std::string& def) const;
  uint64_t u64(const std::string& key, uint64_t def) const;
  uint32_t u32(const std::string& key, uint32_t def) const;
  double num(const std::string& key, double def) const;
  bool flag(const std::string& key, bool def) const;
  /// "4x8x3" -> Geometry{4, 8, 3}.
  core::Geometry geometry(const std::string& key, core::Geometry def) const;
  /// "128-64-128" -> {128, 64, 128}.
  std::vector<uint32_t> dims(const std::string& key,
                             std::vector<uint32_t> def) const;

  /// Throws TypedError(kBadConfig) naming any key no accessor consumed.
  void require_all_consumed(const std::string& kind) const;

 private:
  struct Entry {
    std::string value;
    mutable bool consumed = false;
  };
  std::map<std::string, Entry> kv_;
};

// --- The network family's shared definition ---------------------------------
//
// network and sharded_network (shard/sharded_workload.hpp) run one model
// through two executors; their parser, input draw and output hash are these
// functions, so a sharded run's z_hash equals the plain network's.

/// Parses the keys every network kind accepts: in, hidden, batch, geom,
/// seed, lr, and name (accepted for symmetry, unused). A kind reads its own
/// extra keys before calling require_all_consumed().
NetworkTrainingSpec network_spec_from(const SpecArgs& args);

/// The (input_dim x batch) input batch of a network spec, drawn without the
/// weights. With input_seed 0 it continues the weight stream of seed: the
/// draw skips one raw next_u64() per weight, as NetworkGraph::autoencoder
/// consumes them. Otherwise it comes from its own Xoshiro256(input_seed).
workloads::MatrixF16 draw_network_input(const NetworkTrainingSpec& spec);

/// The graph and input batch of a network spec: the weights from seed and
/// the batch from draw_network_input().
struct NetworkInputs {
  workloads::NetworkGraph net;
  workloads::MatrixF16 x;
};
NetworkInputs draw_network_inputs(const NetworkTrainingSpec& spec);

/// A training step's z_hash: FNV-1a over the output, then every layer's dW.
uint64_t hash_training_step(const workloads::MatrixF16& out,
                            const std::vector<workloads::MatrixF16>& dw);

/// Ceiling on the length of a spec string create() accepts. Spec strings are
/// a trust boundary -- the serving front-end feeds them straight off the
/// wire -- so the parser bounds its input before doing any work with it.
inline constexpr size_t kMaxSpecBytes = 4096;

/// Name-keyed workload factories: "kind:key=value,..." -> Workload instance.
/// The built-in kinds are registered on first access of global():
///
///   gemm:    m=,n=,k= [,geom=HxLxP] [,seed=] [,acc=0|1] [,name=]
///   tiled:   same keys as gemm (L2-resident tiled pipeline)
///   network: batch= [,in=] [,hidden=a-b-c] [,geom=HxLxP] [,seed=] [,lr=]
///            [,input_seed=] [,warm=0|1]  (warm-start template opt-in)
///
/// create() throws TypedError(kBadConfig) for unknown kinds, malformed
/// values, or unconsumed (typo'd) keys. Untrusted-input hardening, enforced
/// before any factory runs: specs longer than kMaxSpecBytes, specs carrying
/// NUL or other control bytes, and duplicate keys are all refused with typed
/// kBadConfig (a duplicate key is an ambiguity, never a silent last-wins).
class WorkloadRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Workload>(const SpecArgs&)>;

  /// The process-wide registry with the built-in kinds pre-registered.
  static WorkloadRegistry& global();

  /// Registers (or replaces) a factory for \p kind.
  void add(const std::string& kind, Factory factory);
  std::unique_ptr<Workload> create(const std::string& spec) const;
  std::vector<std::string> kinds() const;

 private:
  mutable std::mutex m_;
  std::map<std::string, Factory> factories_;
};

}  // namespace redmule::api
