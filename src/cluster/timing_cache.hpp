/// \file timing_cache.hpp
/// \brief Replays the recorded cycle-model outcome of a repeated GEMM program.
///
/// RedMulE's schedule is fixed by the shapes: the streamer, the HCI and the
/// DMA touch the same addresses in the same cycles whatever the operands
/// hold (the timing contract, tests/cluster/test_timing_contract.cpp). So a
/// GEMM program's effect on the non-memory state of the cluster -- cycles,
/// arbitration pointers, transfer ids, register file, every counter -- is a
/// pure function of the program and that state on entry.
///
/// Every GEMM program goes through one seam, run_gemm_program(), which owns
/// the whole replay protocol: a tiled GEMM (TiledGemmRunner::run_staged)
/// and a monolithic core::Job offload (RedmuleDriver::run_job) each make
/// one call. The first run of a key runs the cycle model and records its
/// outcome (a miss); later runs replay it (a hit) with one body for both:
/// Z from the FP16 golden model, the caller's own writes, the recorded
/// post-state. Results, cycles, counters, L2, TCDM and the whole
/// state::snapshot image equal the model's.
///
/// The key compares the resolved cluster config, the exact pre-state and the
/// program field by field; the hash only picks the bucket. The store is a
/// ByteLru (common/byte_lru.hpp), the one LRU body api::TemplateCache also
/// uses: entries are counted in bytes against one fixed budget and evicted
/// least recently used first. One cache belongs to one api::ClusterPool,
/// which is worker-private, so the cache takes no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>

#include "cluster/cluster.hpp"
#include "cluster/tiled_gemm_runner.hpp"
#include "common/byte_lru.hpp"

namespace redmule::cluster {

/// A tiled GEMM program: one TiledGemmRunner::run_staged() call.
struct TiledProgram {
  StagedGemm addrs;
  workloads::TiledGemmPlan plan;
  bool double_buffer = true;
  uint32_t alloc_mark = 0;  ///< RedmuleDriver::alloc_mark() before the tiles

  friend bool operator==(const TiledProgram&, const TiledProgram&) = default;
};

/// One GEMM program: a tiled one or a single offloaded core::Job (its
/// operand pointers, m/n/k and accumulate).
using GemmProgram = std::variant<TiledProgram, core::Job>;

/// Everything the outcome of one GEMM program depends on. The variant's
/// index keeps a tiled key from ever comparing equal to a monolithic one.
struct TimingKey {
  ClusterConfig config;
  ModuleState pre;
  GemmProgram program;

  uint64_t hash() const;
  friend bool operator==(const TimingKey&, const TimingKey&) = default;
};

/// What the cycle model left behind for a key.
struct TimingOutcome {
  ModuleState post;
  /// A tiled program's stats. A monolithic job's are post.engine.last_stats,
  /// so it records these empty.
  TiledGemmStats stats;
};

/// A non-owning reference to a callable: unlike std::function it never
/// allocates. Valid while the callable it was made from lives.
template <class Sig>
class CallableRef;
template <class R, class... Args>
class CallableRef<R(Args...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, CallableRef>)
  CallableRef(F&& f)  // implicit, like std::string_view
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(std::forward<Args>(args)...);
        }) {}
  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// What a replay read and wrote: the operands in the program's padded
/// shapes and the Z it wrote over them.
struct ReplayedGemm {
  MatrixF16 x, w, z;
};

/// Runs \p program on \p cl through the cluster's timing cache and returns
/// \p model's stats or the recorded ones (empty for a monolithic job, whose
/// stats are the engine's last_job_stats()). \p model runs the cycle model;
/// \p replay_writes leaves in memory what the model would beyond Z (a tiled
/// program's tile buffers). \p job_pending: a start_job() is in flight.
///
/// The model runs, recording nothing, with no cache attached, armed faults
/// (they act on the model's cycles), a schedule observer (it wants the
/// schedule), idle skipping off (the cores tick, and their state is not
/// recorded), a non-quiescent cluster or a pending job, or a Z overlapping
/// X or W, or Y without being Y itself (a replay reads every operand before
/// it writes Z, as the model does only when no Z store lands on an operand
/// it reads later). It also runs when an armed cycle budget ends inside the
/// recorded run, so the abort lands on the model's cycle with its error. A
/// replay polls the run control before it touches the cluster and after it
/// restores the post-state; one cancelled at entry counts no hit.
TiledGemmStats run_gemm_program(Cluster& cl, bool job_pending, const GemmProgram& program,
                                CallableRef<TiledGemmStats()> model,
                                CallableRef<void(const ReplayedGemm&)> replay_writes);

class TimingCache {
 public:
  /// Byte budget of one pool's cache: a few thousand entries (one is about
  /// 1.1 KiB), far more than the distinct GEMMs of a training step.
  static constexpr size_t kBudgetBytes = size_t{4} << 20;

  /// \p budget_bytes exists for tests that need eviction without recording
  /// thousands of GEMMs; pools always use kBudgetBytes.
  explicit TimingCache(size_t budget_bytes = kBudgetBytes) : lru_(budget_bytes) {}

  /// The recorded outcome for \p key, made most recently used; nullptr when
  /// none is recorded. Counts nothing: run_gemm_program() counts the hits.
  std::shared_ptr<const TimingOutcome> find(const TimingKey& key) { return lru_.find(key); }
  /// Records the cycle model's outcome for \p key (one miss), evicting least
  /// recently used entries until the budget holds. An entry larger than the
  /// whole budget is counted as a miss and dropped.
  void insert(TimingKey key, TimingOutcome outcome);

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t bytes = 0;  ///< current footprint of the recorded entries
    /// Cycles the hits reported: a tiled program's total_cycles, a
    /// monolithic job's JobStats::cycles.
    uint64_t replayed_cycles = 0;
  };
  Counters counters() const {
    Counters c = counters_;
    c.evictions = lru_.evictions();
    c.bytes = lru_.bytes();
    return c;
  }
  size_t entries() const { return lru_.size(); }
  /// Visits every recorded (key, outcome) pair, most recently used first.
  template <class Fn>
  void for_each_entry(Fn&& fn) const {
    lru_.for_each(fn);
  }
  size_t budget_bytes() const { return lru_.budget_bytes(); }

 private:
  friend TiledGemmStats run_gemm_program(Cluster&, bool, const GemmProgram&,
                                         CallableRef<TiledGemmStats()>,
                                         CallableRef<void(const ReplayedGemm&)>);

  ByteLru<TimingKey, TimingOutcome> lru_;
  Counters counters_;  ///< hits, misses and replayed_cycles; lru_ holds the rest
};

}  // namespace redmule::cluster
