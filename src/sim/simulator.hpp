/// \file simulator.hpp
/// \brief Cycle-driven simulation kernel.
///
/// The cluster model is a synchronous digital design, so the kernel is a
/// two-phase clocked simulator:
///  - tick():   every module evaluates its cycle using *last* cycle's visible
///              state and posts requests/results into staging storage;
///  - commit(): staged state becomes visible, modeling the clock edge.
///
/// Modules are ticked in registration order. The cluster wires initiators
/// (cores, DMA, RedMulE streamer) before the interconnect so that requests
/// posted in phase tick() are arbitrated in the same cycle, with responses
/// visible to the initiators one cycle later -- matching the single-cycle
/// TCDM access latency of the PULP cluster.
///
/// Performance: the kernel itself must not dominate simulation time, so it
/// avoids work that a quiescent design would not do in RTL either:
///  - *idle skipping*: a module whose is_idle() contract holds is neither
///    ticked nor committed that cycle (its phases are guaranteed no-ops);
///  - *commit partitioning*: modules that declare has_commit() == false are
///    kept off the phase-2 list entirely;
///  - *quiescence fast-forward*: when every module is idle, run_until()
///    advances the cycle counter without touching the module lists at all
///    (e.g. the tail of a generous timeout window).
/// All three are architecturally invisible: cycle counts and all observable
/// state are bit-identical with skipping disabled (see tests/sim).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/run_control.hpp"

namespace redmule::sim {

/// Interface for anything driven by the cluster clock.
class Clocked {
 public:
  virtual ~Clocked() = default;
  /// Phase 1: evaluate this cycle.
  virtual void tick() = 0;
  /// Phase 2: clock edge; staged state becomes architecturally visible.
  virtual void commit() {}
  /// Quiescence contract: return true only when tick() and commit() are
  /// guaranteed no-ops for this cycle *and every following cycle* until new
  /// external input arrives (a register write, a queued transfer, a posted
  /// request, ...). The simulator then skips the module's phases without
  /// changing behavior. Within a cycle the query is made at the module's
  /// position in the tick order, so earlier initiators' posts of the same
  /// cycle are already visible. Default: never idle (always ticked).
  virtual bool is_idle() const { return false; }
  /// Modules whose commit() is the inherited no-op can return false so the
  /// kernel keeps them off the phase-2 list entirely.
  virtual bool has_commit() const { return true; }
};

/// Owns the cycle loop. Does not own the modules (the testbench/cluster
/// object owns them and registers raw pointers; lifetimes are managed by the
/// enclosing object, mirroring an RTL hierarchy).
class Simulator {
 public:
  /// Registers \p module; ticked in registration order.
  void add(Clocked* module);

  /// Advances one clock cycle.
  void step();

 private:
  /// step() body; returns true if any module phase ran (false means the
  /// design was fully quiescent this cycle).
  bool step_internal();

 public:

  /// Advances until \p done returns true or \p max_cycles elapse.
  /// Returns true if \p done fired, false on timeout.
  bool run_until(const std::function<bool()>& done, uint64_t max_cycles);

  uint64_t cycle() const { return cycle_; }
  void reset_cycle_counter() { cycle_ = 0; }
  /// Rewinds the cycle counter and the kernel statistics (module list and
  /// skipping mode are wiring/config, not state). Part of the cluster reset
  /// path: a reused cluster starts counting like a freshly built one.
  void reset_counters() {
    cycle_ = 0;
    skipped_module_ticks_ = 0;
    fast_forwarded_cycles_ = 0;
  }

  /// True when every registered module reports is_idle(): no module phase
  /// can change any state until external input arrives.
  bool quiescent() const;

  // --- Snapshot surface (state/snapshot.hpp) --------------------------------
  /// Kernel counters; the module list and skipping mode are wiring/config.
  struct State {
    uint64_t cycle = 0;
    uint64_t skipped_module_ticks = 0;
    uint64_t fast_forwarded_cycles = 0;
    friend bool operator==(const State&, const State&) = default;
  };
  State save_state() const {
    return State{cycle_, skipped_module_ticks_, fast_forwarded_cycles_};
  }
  void restore_state(const State& s) {
    cycle_ = s.cycle;
    skipped_module_ticks_ = s.skipped_module_ticks;
    fast_forwarded_cycles_ = s.fast_forwarded_cycles;
  }

  /// Master switch for idle skipping and quiescence fast-forward. On by
  /// default; turning it off restores the naive tick-everything loop (used
  /// by the architectural-invisibility tests and the kernel bench).
  void set_idle_skipping(bool on) { idle_skipping_ = on; }
  bool idle_skipping() const { return idle_skipping_; }

  // --- Deadlines, cancellation, fault injection -----------------------------
  /// run_until() polls the installed RunControl at chunk boundaries: every
  /// kCheckpointInterval-th simulated cycle. Purely observational -- the
  /// checkpoint either returns or throws (RunAborted / an injected fault),
  /// so cycle counts and all architectural state of completing runs are
  /// bit-identical with and without a control installed.
  static constexpr uint64_t kCheckpointInterval = 1024;

  /// Installs (nullptr: removes) the per-job control block. Not owned; the
  /// executor keeps it alive for the duration of the run.
  void set_run_control(RunControl* rc) { run_control_ = rc; }
  RunControl* run_control() const { return run_control_; }

  /// Explicit checkpoint for coarser natural boundaries (tile boundaries in
  /// the tiled pipeline, per-GEMM boundaries in the network executor).
  /// No-op when no control is installed.
  void checkpoint() {
    if (run_control_ != nullptr) run_control_->checkpoint(cycle_);
  }

  // --- Kernel statistics ----------------------------------------------------
  /// Module phases skipped because the module reported idle.
  uint64_t skipped_module_ticks() const { return skipped_module_ticks_; }
  /// Cycles advanced by the quiescence fast-forward (no module phase ran).
  uint64_t fast_forwarded_cycles() const { return fast_forwarded_cycles_; }

 private:
  std::vector<Clocked*> modules_;
  std::vector<bool> module_has_commit_;  ///< parallel to modules_
  std::vector<Clocked*> active_commit_;  ///< per-cycle scratch, phase-2 list
  uint64_t cycle_ = 0;
  bool idle_skipping_ = true;
  RunControl* run_control_ = nullptr;
  uint64_t skipped_module_ticks_ = 0;
  uint64_t fast_forwarded_cycles_ = 0;
};

}  // namespace redmule::sim
