/// \file streamer.hpp
/// \brief RedMulE's Streamer: the specialized memory-access unit that time-
///        multiplexes the single wide HCI shallow port among W loads, X
///        refills and Z stores (paper §II-B/II-C and Fig. 2c).
///
/// One shallow request can be issued per cycle. The W stream has a hard
/// cadence (one line per P+1 cycles, the array's heartbeat); X refills and
/// Z stores are interleaved in the gaps between adjacent W accesses. The
/// model issues at most one request per cycle and retries on lost
/// arbitration, so TCDM contention with the cores directly shows up as
/// accelerator stall cycles, as in the real cluster.
#pragma once

#include <cstdint>
#include <optional>

#include "core/buffers.hpp"
#include "core/config.hpp"
#include "mem/hci.hpp"

namespace redmule::core {

class Streamer {
 public:
  Streamer(const Geometry& g, mem::Hci& hci, XBuffer& xbuf, XBuffer& ybuf,
           WBuffer& wbuf, ZBuffer& zbuf);

  /// Arms the streamer for a new job.
  void start(const Job& job);
  /// Marks the job's streaming as finished (engine calls it at job end).
  void stop();
  void soft_clear();

  /// True when all load sequences finished, all stores drained, and nothing
  /// is in flight.
  bool idle() const;

  /// Phase 1 (same cycle as the engine): select + post one shallow request.
  void tick();
  /// Phase 2: resolve this cycle's grant and deliver data into the buffers.
  void commit();

  // --- Statistics -----------------------------------------------------------
  /// Kind of the request posted this cycle ('W','X','Y','Z'), or 0 if the
  /// port was idle. For schedule visualization (Fig. 2c).
  char posted_kind() const { return posted_kind_; }
  uint64_t issued_loads() const { return issued_loads_; }
  uint64_t issued_stores() const { return issued_stores_; }
  uint64_t retry_cycles() const { return retry_cycles_; }
  uint64_t idle_port_cycles() const { return idle_port_cycles_; }
  void reset_stats();

  /// In-place re-initialization to the freshly-constructed state (soft_clear
  /// plus iterators, job state, and statistics). Part of the cluster reset
  /// path; the buffers it feeds are reset by the engine.
  void reset();

  // --- Snapshot surface (state/snapshot.hpp) --------------------------------
  /// At idle everything but the cumulative statistics is at its constructed
  /// value (job/iterators are rebuilt by start(), nothing is in flight), so
  /// the counters are the whole persistent state.
  struct State {
    uint64_t issued_loads = 0;
    uint64_t issued_stores = 0;
    uint64_t retry_cycles = 0;
    uint64_t idle_port_cycles = 0;
    friend bool operator==(const State&, const State&) = default;
  };
  /// Requires idle().
  State save_state() const {
    REDMULE_REQUIRE(idle(), "streamer snapshot requires a drained streamer");
    return State{issued_loads_, issued_stores_, retry_cycles_,
                 idle_port_cycles_};
  }
  void restore_state(const State& s) {
    reset();
    issued_loads_ = s.issued_loads;
    issued_stores_ = s.issued_stores;
    retry_cycles_ = s.retry_cycles;
    idle_port_cycles_ = s.idle_port_cycles;
  }

 private:
  enum class Kind { kWLoad, kXLoad, kYLoad, kZStore };

  struct InFlight {
    Kind kind;
    mem::ShallowRequest req;
    // W metadata
    unsigned col = 0;
    uint64_t tile = 0;
    uint32_t trav = 0;
    unsigned valid_halfwords = 0;
  };

  /// W iterator state: next (tile, trav, col) whose W row n = trav*H+col is a
  /// real (non-padded) row.
  struct WIter {
    uint64_t tile = 0;
    uint32_t trav = 0;
    unsigned col = 0;
    bool done = false;
  };
  /// X iterator state: next (tile, group q, row r) to load.
  struct XIter {
    uint64_t tile = 0;
    uint32_t q = 0;
    unsigned row = 0;        ///< next valid row within the group
    bool group_opened = false;
    bool done = false;
  };
  /// Y iterator state (accumulation extension): next (tile, row) to load.
  struct YIter {
    uint64_t tile = 0;
    unsigned row = 0;
    bool group_opened = false;
    bool done = false;
  };

  void advance_w_iter();
  void advance_x_iter();
  void advance_y_iter();
  std::optional<InFlight> make_w_request();
  std::optional<InFlight> make_x_request();
  std::optional<InFlight> make_y_request();
  std::optional<InFlight> make_z_request();

  Geometry geom_;
  mem::Hci& hci_;
  XBuffer& xbuf_;
  XBuffer& ybuf_;  ///< Y lines reuse the X-buffer structure (one group/tile)
  WBuffer& wbuf_;
  ZBuffer& zbuf_;

  Job job_;
  std::optional<Tiling> tiling_;
  bool running_ = false;

  WIter w_iter_;
  XIter x_iter_;
  YIter y_iter_;
  std::optional<InFlight> in_flight_;  ///< posted this cycle, resolved in commit
  std::optional<InFlight> retry_;      ///< lost arbitration, repost next cycle
  bool posted_this_cycle_ = false;
  char posted_kind_ = 0;

  uint64_t issued_loads_ = 0;
  uint64_t issued_stores_ = 0;
  uint64_t retry_cycles_ = 0;
  uint64_t idle_port_cycles_ = 0;
};

}  // namespace redmule::core
