/// \file timing_cache.hpp
/// \brief Replays the recorded cycle-model outcome of a repeated tiled GEMM.
///
/// RedMulE's schedule is fixed by the shapes: the streamer, the HCI and the
/// DMA touch the same addresses in the same cycles whatever the operands
/// hold (the timing contract, tests/cluster/test_timing_contract.cpp). So a
/// tiled GEMM's effect on the non-memory state of the cluster -- cycles,
/// arbitration pointers, transfer ids, every counter -- is a pure function
/// of its plan, its addresses and that state on entry. TiledGemmRunner::
/// run_staged records that function here the first time it runs the cycle
/// model for a key (a miss) and replays it afterwards (a hit): Z comes from
/// the FP16 golden model over the L2 operands, the TCDM tile buffers are
/// rewritten to the bytes the DMA and the engine would have left, and the
/// four modules restore the recorded post-state. Results, cycles, counters,
/// L2, TCDM and the state::snapshot fingerprint equal the model's.
///
/// The key compares the resolved cluster config, the StagedGemm addresses,
/// the plan, the schedule mode, the TCDM allocation mark and the exact
/// pre-state field by field; the hash only picks the bucket. Entries are
/// counted in bytes against one fixed budget and evicted least recently
/// used first. One cache belongs to one api::ClusterPool, which is
/// worker-private, so the cache takes no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

#include "cluster/cluster.hpp"
#include "cluster/tiled_gemm_runner.hpp"

namespace redmule::cluster {

/// The non-memory state a tiled GEMM reads and writes: the kernel counters,
/// the interconnect, the DMA and the accelerator. Cores stay halted through
/// a GEMM (the runner bypasses the cache otherwise), and the memories are
/// replayed from the operands, so these four are the whole timing state.
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

/// Everything the outcome of one run_staged() call depends on.
struct TimingKey {
  ClusterConfig config;
  StagedGemm addrs;
  workloads::TiledGemmPlan plan;
  bool double_buffer = true;
  uint32_t alloc_mark = 0;  ///< RedmuleDriver::alloc_mark() before the tiles
  ModuleState pre;

  uint64_t hash() const;
  friend bool operator==(const TimingKey&, const TimingKey&) = default;
};

/// What the cycle model left behind for a key.
struct TimingOutcome {
  ModuleState post;
  TiledGemmStats stats;
};

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
  /// Counts one replayed GEMM.
  void count_hit() { ++counters_.hits; }
  /// Records the cycle model's outcome for \p key (one miss), evicting least
  /// recently used entries until the budget holds. An entry larger than the
  /// whole budget is counted as a miss and dropped.
  void insert(TimingKey key, TimingOutcome outcome);

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t bytes = 0;  ///< current footprint of the recorded entries
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
