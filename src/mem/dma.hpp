/// \file dma.hpp
/// \brief Cluster DMA engine (MCHAN-style) moving data between L2 and TCDM.
///
/// The DMA owns a few log-branch ports into the HCI (so its beats contend
/// with the cores, as in the real cluster) and is bandwidth-limited on the
/// L2 side. Transfers are queued jobs; completion is polled via transfer
/// ids, mirroring the MCHAN counter-based interface.
///
/// Transfers are 2-D: \p n_rows rows of \p len_bytes each, with independent
/// byte strides on the L2 and TCDM sides (stride 0 = contiguous), so one
/// transfer moves a whole matrix tile out of a larger row-major matrix --
/// the MCHAN 2-D mode the PULP tiling runtimes rely on.
///
/// Up to \p max_channels transfers are serviced concurrently: beats issue in
/// activation order (the single L2 front-end serializes the data), but a
/// younger transfer's burst-setup latency counts down while an older one
/// still streams, so back-to-back tile transfers pay the L2 access latency
/// only once in steady state. This is what makes true double-buffering
/// possible (see cluster/tiled_gemm_runner.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "mem/hci.hpp"
#include "mem/l2.hpp"
#include "sim/simulator.hpp"

namespace redmule::mem {

struct DmaConfig {
  unsigned first_log_port = 8;  ///< log ports [first, first + n_ports)
  unsigned n_ports = 4;
  unsigned max_outstanding = 16;  ///< queued + active transfers
  unsigned max_channels = 2;      ///< concurrently serviced transfers
};

enum class DmaDirection { kL2ToTcdm, kTcdmToL2 };

struct DmaTransfer {
  uint32_t l2_addr = 0;
  uint32_t tcdm_addr = 0;   ///< must be word-aligned
  uint32_t len_bytes = 0;   ///< bytes per row; must be a positive multiple of 4
  DmaDirection dir = DmaDirection::kL2ToTcdm;
  // 2-D extension (defaults describe the classic 1-D transfer).
  uint32_t n_rows = 1;       ///< rows of len_bytes each
  uint32_t l2_stride = 0;    ///< byte distance between L2 row starts (0 = len_bytes)
  uint32_t tcdm_stride = 0;  ///< byte distance between TCDM row starts (0 = len_bytes)

  uint64_t total_bytes() const {
    return static_cast<uint64_t>(len_bytes) * n_rows;
  }
};

class DmaEngine : public sim::Clocked {
 public:
  DmaEngine(Hci& hci, L2Memory& l2, DmaConfig cfg = {});

  /// Enqueues a transfer; returns its id. Throws if the queue is full.
  uint64_t submit(const DmaTransfer& t);

  /// True once transfer \p id has fully completed. Under HCI contention a
  /// younger transfer on another channel can finish first, so completion is
  /// tracked per id, not as a single counter.
  bool done(uint64_t id) const {
    return id < done_floor_ || done_sparse_.count(id) != 0;
  }
  bool idle() const { return active_.empty() && queue_.empty(); }

  void tick() override;
  /// Quiescent with no queued or active transfer (in-flight beats only exist
  /// while a transfer is active); only an external submit() wakes the engine.
  bool is_idle() const override { return idle(); }
  /// The DMA stages nothing across the clock edge: keep it off phase 2.
  bool has_commit() const override { return false; }

  uint64_t busy_cycles() const { return busy_cycles_; }
  uint64_t stall_cycles() const { return stall_cycles_; }

  /// Fault injection: freeze new-beat issue for \p cycles busy cycles.
  /// In-flight beats still resolve and ungranted beats still repost (the HCI
  /// handshake must complete), so the stall is protocol-safe: it stretches
  /// transfers without corrupting them. Cumulative; cleared by reset().
  void inject_stall(uint64_t cycles) { injected_stall_cycles_ += cycles; }
  uint64_t injected_stall_cycles() const { return injected_stall_cycles_; }
  /// Bytes landed in the TCDM (L2 -> TCDM direction).
  uint64_t bytes_in() const { return bytes_in_; }
  /// Bytes landed in L2 (TCDM -> L2 direction).
  uint64_t bytes_out() const { return bytes_out_; }

  /// In-place re-initialization to the freshly-constructed state: drops any
  /// queued/active transfers and in-flight beats, rewinds transfer ids and
  /// statistics. Part of the cluster reset path.
  void reset() {
    queue_.clear();
    active_.clear();
    in_flight_.clear();
    next_id_ = 0;
    done_floor_ = 0;
    done_sparse_.clear();
    busy_cycles_ = 0;
    stall_cycles_ = 0;
    bytes_in_ = 0;
    bytes_out_ = 0;
    injected_stall_cycles_ = 0;
  }

  // --- Snapshot surface (state/snapshot.hpp) --------------------------------
  /// Persistent DMA state at quiescence: the transfer-id sequence and
  /// completion tracking (a restored driver must see its old ids as done)
  /// plus the cumulative statistics. Queued/active transfers and in-flight
  /// beats are empty at idle by definition, so restore_state() rebuilds the
  /// transient side with reset() and installs the rest.
  struct State {
    uint64_t next_id = 0;
    uint64_t done_floor = 0;
    std::set<uint64_t> done_sparse;
    uint64_t busy_cycles = 0;
    uint64_t stall_cycles = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t injected_stall_cycles = 0;
    friend bool operator==(const State&, const State&) = default;
  };
  /// Requires idle(): a DMA with queued or active transfers cannot be
  /// captured (its in-flight beats reference the live interconnect).
  State save_state() const {
    REDMULE_REQUIRE(idle(), "DMA snapshot requires a drained engine");
    return State{next_id_,      done_floor_, done_sparse_,
                 busy_cycles_,  stall_cycles_, bytes_in_,
                 bytes_out_,    injected_stall_cycles_};
  }
  void restore_state(const State& s) {
    reset();
    next_id_ = s.next_id;
    done_floor_ = s.done_floor;
    done_sparse_ = s.done_sparse;
    busy_cycles_ = s.busy_cycles;
    stall_cycles_ = s.stall_cycles;
    bytes_in_ = s.bytes_in;
    bytes_out_ = s.bytes_out;
    injected_stall_cycles_ = s.injected_stall_cycles;
  }

 private:
  struct Active {
    uint64_t id = 0;
    DmaTransfer t;
    uint64_t next_offset = 0;      ///< next linear byte offset to issue
    uint64_t completed_bytes = 0;
    unsigned latency_left = 0;     ///< initial L2 access latency countdown
    unsigned beats_in_flight = 0;
  };

  struct PendingBeat {
    uint64_t id;       ///< owning transfer
    unsigned port;
    uint64_t offset;   ///< linear byte offset inside the transfer
    bool is_read;      ///< TCDM read (TCDM -> L2 direction)
  };

  /// Pulls queued transfers into free channels (activation order = submit
  /// order); each newly-activated transfer starts its latency countdown.
  void activate();
  /// Pops every fully-drained active transfer and records its completion.
  void retire();
  Active& active_of(uint64_t id);

  static uint32_t row_addr(uint32_t base, uint32_t stride, uint32_t len,
                           uint64_t offset) {
    const uint32_t s = stride != 0 ? stride : len;
    return base + static_cast<uint32_t>(offset / len) * s +
           static_cast<uint32_t>(offset % len);
  }
  uint32_t l2_addr_of(const DmaTransfer& t, uint64_t offset) const {
    return row_addr(t.l2_addr, t.l2_stride, t.len_bytes, offset);
  }
  uint32_t tcdm_addr_of(const DmaTransfer& t, uint64_t offset) const {
    return row_addr(t.tcdm_addr, t.tcdm_stride, t.len_bytes, offset);
  }

  Hci& hci_;
  L2Memory& l2_;
  DmaConfig cfg_;

  struct Queued {
    uint64_t id;
    DmaTransfer t;
  };
  std::deque<Queued> queue_;
  std::deque<Active> active_;  ///< up to cfg_.max_channels, activation order
  std::deque<PendingBeat> in_flight_;
  /// tick()'s ungranted beats, reposted the same cycle. A member, cleared
  /// at the start of each tick, so a busy cycle does not allocate.
  std::vector<PendingBeat> retry_;

  uint64_t next_id_ = 0;
  /// Completion tracking: every id < done_floor_ is complete; ids completed
  /// out of order wait in done_sparse_ until the floor reaches them.
  uint64_t done_floor_ = 0;
  std::set<uint64_t> done_sparse_;
  uint64_t busy_cycles_ = 0;
  uint64_t stall_cycles_ = 0;
  uint64_t bytes_in_ = 0;
  uint64_t bytes_out_ = 0;
  uint64_t injected_stall_cycles_ = 0;  ///< fault injection (inject_stall)
};

}  // namespace redmule::mem
