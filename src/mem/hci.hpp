/// \file hci.hpp
/// \brief Heterogeneous Cluster Interconnect (HCI) model.
///
/// Two branches into the shared TCDM banks, as in the paper's Fig. 1:
///  - the *logarithmic* branch: all-to-all single-cycle crossbar from 32-bit
///    initiator ports (8 cores + DMA ports) to the word-interleaved banks;
///    bank conflicts are resolved by a per-bank round-robin among initiators;
///  - the *shallow* branch: one wide port (288 bits = 9 x 32-bit by default)
///    routed to adjacent banks treated as a single wide bank, used by the
///    RedMulE streamer.
///
/// When both branches address the same bank in a cycle, a configurable-
/// latency starvation-free rotation scheme picks the winner: one branch holds
/// priority, and whenever the other branch has been priority-stalled for
/// `max_stall` consecutive cycles it is granted once (the rotation), so
/// neither branch can starve.
///
/// Protocol (two-phase, see sim/simulator.hpp): initiators post requests
/// during their tick(); the Hci must be ticked after all initiators; results
/// become visible to initiators on the next cycle, modeling the single-cycle
/// TCDM latency.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "mem/tcdm.hpp"
#include "sim/simulator.hpp"

namespace redmule::mem {

struct HciConfig {
  unsigned n_log_ports = 12;     ///< 8 cores + 4 DMA ports by default
  unsigned shallow_words = 9;    ///< width of the shallow port in 32-bit words
  bool shallow_has_priority = true;  ///< HWPE branch holds default priority
  unsigned max_stall = 8;        ///< rotation latency of the arbitration
};

/// One 32-bit log-branch request (core load/store or DMA beat).
struct LogRequest {
  uint32_t addr = 0;   ///< byte address, word-aligned
  bool we = false;
  uint32_t wdata = 0;
  uint8_t be = 0xF;    ///< byte enables (writes only)
};

struct LogResult {
  bool granted = false;  ///< request of the previous cycle was served
  uint32_t rdata = 0;
};

/// One wide shallow-branch request from the RedMulE streamer. Addresses are
/// 16-bit aligned: a misaligned (addr % 4 == 2) 256-bit access spans 9 words,
/// which is exactly why the streamer has the 9th port.
struct ShallowRequest {
  uint32_t addr = 0;        ///< byte address, 2-byte aligned
  unsigned n_halfwords = 0; ///< payload length in FP16 elements (<= 2*(words-1))
  bool we = false;
  std::array<uint16_t, 32> wdata{};  ///< halfword payload (writes)
  uint32_t strb = 0;                 ///< per-halfword write strobes (writes)
};

struct ShallowResult {
  bool granted = false;
  std::array<uint16_t, 32> rdata{};
};

class Hci : public sim::Clocked {
 public:
  Hci(Tcdm& tcdm, HciConfig cfg = {});

  const HciConfig& config() const { return cfg_; }
  /// The TCDM behind this interconnect (address-map queries by initiators).
  const Tcdm& tcdm() const { return tcdm_; }

  // --- Initiator side (call during initiator tick) --------------------------
  void post_log(unsigned port, const LogRequest& req);
  void post_shallow(const ShallowRequest& req);
  /// Result of the request posted in the *previous* cycle.
  const LogResult& log_result(unsigned port) const;
  const ShallowResult& shallow_result() const;

  /// Same-cycle results: valid only during the commit phase of modules that
  /// were registered (and hence ticked) *before* the Hci. This models the
  /// combinational request/grant handshake of the real interconnect, whose
  /// grant is visible to the initiator within the request cycle.
  const LogResult& log_result_now(unsigned port) const {
    REDMULE_ASSERT(port < cfg_.n_log_ports);
    return log_res_staged_[port];
  }
  const ShallowResult& shallow_result_now() const { return shallow_res_staged_; }

  // --- Clocked --------------------------------------------------------------
  void tick() override;    ///< arbitrate + access banks (tick after initiators)
  void commit() override;  ///< publish results
  /// Quiescent when no initiator posted a request this cycle and no grant is
  /// still visible from the previous one: tick() would arbitrate nothing and
  /// commit() would republish an all-clear result set. The query is made
  /// after all initiators ticked (registration order), so same-cycle posts
  /// are already accounted for. Note the rotation streaks need no reset on
  /// skipped cycles: a nonzero streak implies an ungranted initiator, which
  /// must repost next cycle, so the HCI cannot be idle while a streak is
  /// live (skipping never misses a streak reset).
  bool is_idle() const override {
    return !reqs_pending_ && !log_results_live_ && !shallow_result_live_;
  }

  // --- Statistics -----------------------------------------------------------
  uint64_t log_grants() const { return log_grants_; }
  uint64_t log_conflict_stalls() const { return log_conflict_stalls_; }
  uint64_t shallow_grants() const { return shallow_grants_; }
  uint64_t shallow_stalls() const { return shallow_stalls_; }
  uint64_t rotation_events() const { return rotation_events_; }
  void reset_stats();

  /// In-place re-initialization to the freshly-constructed state: pending
  /// requests, staged/visible results, round-robin pointers, rotation
  /// streaks, and statistics. Part of the cluster reset path.
  void reset();

  // --- Snapshot surface (state/snapshot.hpp) --------------------------------
  /// Persistent interconnect state at quiescence: the per-bank round-robin
  /// pointers (they carry arbitration history across jobs) and the cumulative
  /// statistics. Transient state -- requests, staged/visible results,
  /// rotation streaks -- is provably clear at idle (see is_idle()), so
  /// restore_state() reconstructs it with reset() and installs the rest.
  struct State {
    std::vector<unsigned> bank_rr;
    uint64_t log_grants = 0;
    uint64_t log_conflict_stalls = 0;
    uint64_t shallow_grants = 0;
    uint64_t shallow_stalls = 0;
    uint64_t rotation_events = 0;
    friend bool operator==(const State&, const State&) = default;
  };
  /// Requires is_idle(): a mid-flight interconnect has no capturable state.
  State save_state() const;
  void restore_state(const State& s);

 private:
  /// Bank set [first, first + count) mod n_banks touched by a shallow request.
  struct BankSpan {
    unsigned first_word = 0;
    unsigned n_words = 0;
  };
  BankSpan shallow_span(const ShallowRequest& req) const;
  void serve_shallow(const ShallowRequest& req);

  Tcdm& tcdm_;
  HciConfig cfg_;

  std::vector<std::optional<LogRequest>> log_req_;
  std::optional<ShallowRequest> shallow_req_;

  std::vector<LogResult> log_res_visible_;
  std::vector<LogResult> log_res_staged_;
  ShallowResult shallow_res_visible_;
  ShallowResult shallow_res_staged_;

  std::vector<unsigned> bank_rr_;  ///< per-bank round-robin pointer (log branch)
  unsigned shallow_stall_streak_ = 0;
  unsigned log_stall_streak_ = 0;

  /// Ports with a request this cycle, ascending (round-robin scans in port
  /// order). Lets tick() arbitrate only contested banks instead of scanning
  /// n_banks x n_log_ports every cycle.
  std::vector<unsigned> posted_ports_;
  std::vector<uint8_t> shallow_bank_;  ///< per-bank scratch, hoisted out of tick()
  bool reqs_pending_ = false;           ///< any request posted this cycle
  bool log_results_live_ = false;       ///< visible log results not all-clear
  bool shallow_result_live_ = false;    ///< visible shallow result not all-clear
  bool staged_log_grants_ = false;      ///< this tick staged >= 1 log grant
  bool staged_shallow_grant_ = false;   ///< this tick staged a shallow grant

  uint64_t log_grants_ = 0;
  uint64_t log_conflict_stalls_ = 0;
  uint64_t shallow_grants_ = 0;
  uint64_t shallow_stalls_ = 0;
  uint64_t rotation_events_ = 0;
};

}  // namespace redmule::mem
