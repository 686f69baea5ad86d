/// \file run_control.hpp
/// \brief Cooperative cancellation, deadlines, and fault-event delivery for
///        one job execution.
///
/// A RunControl is the per-job control block the execution layer polls at
/// *checkpoints* -- cheap observation points at natural boundaries of the
/// simulation: Simulator::run_until chunk boundaries (every
/// Simulator::kCheckpointInterval cycles), TiledGemmRunner tile boundaries,
/// and NetworkRunner per-GEMM boundaries. A checkpoint either returns (the
/// common case: one relaxed atomic load plus two integer compares) or throws:
///
///  - RunAborted(kCancelled)      when the cancel flag was set (e.g. by
///                                api::Service::cancel() on a running job);
///  - RunAborted(kCycleDeadline)  when the simulated-cycle budget is spent;
///  - RunAborted(kWallDeadline)   when the wall-clock deadline passed;
///  - InjectedFault / std::runtime_error / a DMA stall, when an armed
///    sim::FaultPlan event's cycle has arrived (see fault_plan.hpp).
///
/// The abort is *cooperative*: nothing preempts the simulation, so a module
/// that never reaches a checkpoint is never interrupted. All cycle-burning
/// loops in the tree go through Simulator::run_until, which checkpoints, so
/// in practice every driver/tiled/network job stops within one checkpoint
/// interval of the trigger. A mid-flight abort leaves the cluster in an
/// arbitrary state by design -- recovery is the unconditional
/// reset-before-run contract (Cluster::reset == freshly constructed).
///
/// Determinism: cycle budgets and fault events are functions of the
/// simulated cycle, so whether and where they fire is bit-reproducible.
/// Wall-clock deadlines and cancellation are inherently racy in *whether*
/// they fire; the simulated results of jobs that complete are unaffected.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "sim/fault_plan.hpp"

namespace redmule::sim {

enum class AbortReason : uint8_t {
  kCancelled,      ///< the job's cancel flag was raised mid-flight
  kCycleDeadline,  ///< simulated-cycle budget exhausted
  kWallDeadline,   ///< wall-clock deadline exceeded
};

const char* abort_reason_name(AbortReason reason);

/// Thrown from a checkpoint to unwind a cancelled or over-budget job.
/// Derives from redmule::Error so legacy catch sites keep working; the API
/// boundary maps kCancelled -> api::ErrorCode::kCancelled and both deadline
/// reasons -> api::ErrorCode::kTimeout.
class RunAborted : public redmule::Error {
 public:
  RunAborted(AbortReason reason, uint64_t cycle, const std::string& what)
      : redmule::Error(what), reason_(reason), cycle_(cycle) {}
  AbortReason reason() const { return reason_; }
  /// Simulated cycle at which the abort was observed.
  uint64_t cycle() const { return cycle_; }

 private:
  AbortReason reason_;
  uint64_t cycle_;
};

/// Per-job control block. Stack-owned by the executor (api::Service worker or
/// Service::run_one), installed on the cluster's Simulator for the duration
/// of one Workload::run, and observed via checkpoint(). Not thread-safe by
/// itself: only the cancel flag may be touched from other threads (it is an
/// atomic the submitter retains shared ownership of).
class RunControl {
 public:
  static constexpr uint64_t kNoCycleLimit =
      std::numeric_limits<uint64_t>::max();

  /// Cancellation flag polled (relaxed) at every checkpoint; may be set from
  /// any thread. Nullptr = not cancellable.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_ = flag; }
  /// Aborts when the simulated cycle reaches \p absolute_cycle.
  void set_cycle_limit(uint64_t absolute_cycle) { cycle_limit_ = absolute_cycle; }
  void set_wall_deadline(std::chrono::steady_clock::time_point deadline) {
    wall_deadline_ = deadline;
    has_wall_deadline_ = true;
  }

  /// Arms the plan's events for retry attempt \p attempt (events pinned to a
  /// different attempt are skipped). Events fire in at_cycle order; the
  /// cursor lives here, so the plan itself stays shareable and const.
  void arm_faults(const FaultPlan& plan, int32_t attempt);

  /// Receives kDmaStall events; installed by Cluster::install_run_control so
  /// the sim layer never needs to know the DMA engine.
  void set_dma_stall_hook(std::function<void(uint64_t)> hook) {
    dma_stall_hook_ = std::move(hook);
  }

  /// The poll. Returns in the common case; throws to abort (see file
  /// comment). Cheap enough for the run_until chunk cadence: a relaxed
  /// atomic load, two compares, and a clock read only when a wall deadline
  /// is armed.
  void checkpoint(uint64_t cycle);

  /// Absolute cycle at which the budget aborts (kNoCycleLimit: none).
  uint64_t cycle_limit() const { return cycle_limit_; }
  /// True when arm_faults() left at least one event for this attempt.
  bool faults_armed() const { return !faults_.empty(); }

  /// Checkpoints observed so far (tests assert the polling actually runs).
  uint64_t checkpoints() const { return checkpoints_; }

 private:
  const std::atomic<bool>* cancel_ = nullptr;
  uint64_t cycle_limit_ = kNoCycleLimit;
  std::chrono::steady_clock::time_point wall_deadline_{};
  bool has_wall_deadline_ = false;
  std::vector<FaultEvent> faults_;  ///< armed events, at_cycle order
  size_t next_fault_ = 0;
  std::function<void(uint64_t)> dma_stall_hook_;
  uint64_t checkpoints_ = 0;
};

}  // namespace redmule::sim
