/// \file timing_cache.hpp
/// \brief Replays the recorded cycle-model outcome of a repeated GEMM program.
///
/// RedMulE's schedule is fixed by the shapes: the streamer, the HCI and the
/// DMA touch the same addresses in the same cycles whatever the operands
/// hold (the timing contract, tests/cluster/test_timing_contract.cpp). So a
/// GEMM program's effect on the non-memory state of the cluster -- cycles,
/// arbitration pointers, transfer ids, register file, every counter -- is a
/// pure function of the program and that state on entry. Two programs go
/// through this one seam: a tiled GEMM (TiledGemmRunner::run_staged) and a
/// monolithic offload of one core::Job (RedmuleDriver::run_job, which
/// gemm(), gemm_acc() and run_gemm() all reach). Each records its outcome
/// here the first time it runs the cycle model for a key (a miss) and
/// replays it afterwards (a hit): Z comes from the FP16 golden model over
/// the operands, the memories are rewritten to the bytes the DMA and the
/// engine would have left, and the four modules restore the recorded
/// post-state. Results, cycles, counters, L2, TCDM and the state::snapshot
/// fingerprint equal the model's.
///
/// The key compares the resolved cluster config, the exact pre-state and the
/// program field by field; the hash only picks the bucket. Entries are
/// counted in bytes against one fixed budget and evicted least recently
/// used first. One cache belongs to one api::ClusterPool, which is
/// worker-private, so the cache takes no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <variant>

#include "cluster/cluster.hpp"
#include "cluster/tiled_gemm_runner.hpp"

namespace redmule::cluster {

/// The non-memory state a GEMM program reads and writes: the kernel
/// counters, the interconnect, the DMA and the accelerator. Cores stay
/// halted through a GEMM (the cache is bypassed otherwise), and the memories
/// are replayed from the operands, so these four are the whole timing state.
struct ModuleState {
  sim::Simulator::State sim;
  mem::Hci::State hci;
  mem::DmaEngine::State dma;
  core::RedmuleEngine::State engine;

  /// Requires a quiescent cluster (every save_state() does).
  static ModuleState save(const Cluster& cl);
  void restore(Cluster& cl) const;

  friend bool operator==(const ModuleState&, const ModuleState&) = default;
};

/// A tiled GEMM program: one TiledGemmRunner::run_staged() call.
struct TiledProgram {
  StagedGemm addrs;
  workloads::TiledGemmPlan plan;
  bool double_buffer = true;
  uint32_t alloc_mark = 0;  ///< RedmuleDriver::alloc_mark() before the tiles

  friend bool operator==(const TiledProgram&, const TiledProgram&) = default;
};

/// Everything the outcome of one GEMM program depends on. The program is a
/// tiled one or a single offloaded core::Job (its operand pointers, m/n/k
/// and accumulate); the variant's index keeps a tiled key from ever
/// comparing equal to a monolithic one.
struct TimingKey {
  ClusterConfig config;
  ModuleState pre;
  std::variant<TiledProgram, core::Job> program;

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

/// The bytes one GEMM operand occupies.
struct OperandBytes {
  uint32_t addr = 0;
  uint64_t len = 0;
};

/// The cache a GEMM program on \p cl may go through, or nullptr when it must
/// run the cycle model. Both programs share these bypass rules: no cache
/// attached; armed faults (they act on the model's cycles); a schedule
/// observer (it wants the schedule); idle skipping off (the cores tick, and
/// their state is not recorded); a non-quiescent cluster or a pending
/// offload (\p job_pending); and a Z that overlaps X or W, or overlaps Y
/// (\p y, nullptr without one) without being Y itself. The replay reads every
/// operand before it writes Z, which is what the model reads only when no
/// Z store can land on an operand it reads later.
TimingCache* replay_cache(const Cluster& cl, bool job_pending, OperandBytes x,
                          OperandBytes w, OperandBytes z, const OperandBytes* y);

/// True when the recorded \p rec (nullptr: none) may stand in for the model
/// on \p cl. An armed cycle budget that ends inside the recorded run must
/// abort on the model's cycle with the model's error, so the model runs it.
bool may_replay(const Cluster& cl, const TimingOutcome* rec);

class TimingCache {
 public:
  /// Byte budget of one pool's cache: a few thousand entries (one is about
  /// 1.1 KiB), far more than the distinct GEMMs of a training step.
  static constexpr size_t kBudgetBytes = size_t{4} << 20;

  /// \p budget_bytes exists for tests that need eviction without recording
  /// thousands of GEMMs; pools always use kBudgetBytes.
  explicit TimingCache(size_t budget_bytes = kBudgetBytes)
      : budget_bytes_(budget_bytes) {}
  TimingCache(const TimingCache&) = delete;
  TimingCache& operator=(const TimingCache&) = delete;

  /// The recorded outcome for \p key, made most recently used; nullptr when
  /// none is recorded. Counts nothing: the caller decides whether it replays.
  const TimingOutcome* find(const TimingKey& key);
  /// Counts one replayed GEMM program that reported \p cycles (a tiled
  /// program's total_cycles, a monolithic job's JobStats::cycles).
  void count_hit(uint64_t cycles) {
    ++counters_.hits;
    counters_.replayed_cycles += cycles;
  }
  /// Records the model's outcome for \p key (see insert()) when \p cl is
  /// quiescent after the run; a cluster still draining is not capturable.
  void record(TimingKey key, const Cluster& cl, const TiledGemmStats& stats) {
    if (cl.sim().quiescent()) insert(std::move(key), TimingOutcome{ModuleState::save(cl), stats});
  }
  /// Records the cycle model's outcome for \p key (one miss), evicting least
  /// recently used entries until the budget holds. An entry larger than the
  /// whole budget is counted as a miss and dropped.
  void insert(TimingKey key, TimingOutcome outcome);

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t bytes = 0;  ///< current footprint of the recorded entries
    uint64_t replayed_cycles = 0;  ///< cycles the hits reported (count_hit)
  };
  const Counters& counters() const { return counters_; }
  size_t entries() const { return lru_.size(); }
  /// Visits every recorded (key, outcome) pair, most recently used first.
  template <class Fn>
  void for_each_entry(Fn&& fn) const {
    for (const Entry& e : lru_) fn(e.key, e.outcome);
  }
  size_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Entry {
    TimingKey key;
    TimingOutcome outcome;
    uint64_t hash = 0;
    size_t bytes = 0;
  };
  using Lru = std::list<Entry>;  ///< front = most recently used

  static size_t entry_bytes(const Entry& e);
  void evict_lru();

  size_t budget_bytes_;
  Lru lru_;
  std::unordered_multimap<uint64_t, Lru::iterator> index_;
  Counters counters_;
};

}  // namespace redmule::cluster
