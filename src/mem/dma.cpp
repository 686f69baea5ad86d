#include "mem/dma.hpp"

#include <algorithm>

namespace redmule::mem {

DmaEngine::DmaEngine(Hci& hci, L2Memory& l2, DmaConfig cfg)
    : hci_(hci), l2_(l2), cfg_(cfg) {
  REDMULE_REQUIRE(cfg.n_ports >= 1, "DMA needs at least one port");
  REDMULE_REQUIRE(cfg.max_channels >= 1, "DMA needs at least one channel");
  REDMULE_REQUIRE(cfg.first_log_port + cfg.n_ports <= hci.config().n_log_ports,
                  "DMA ports exceed the HCI log-port count");
}

uint64_t DmaEngine::submit(const DmaTransfer& t) {
  REDMULE_REQUIRE(queue_.size() + active_.size() < cfg_.max_outstanding,
                  "DMA queue full");
  REDMULE_REQUIRE((t.tcdm_addr & 3u) == 0, "DMA TCDM address must be word-aligned");
  REDMULE_REQUIRE((t.len_bytes & 3u) == 0 && t.len_bytes > 0,
                  "DMA row length must be a positive multiple of 4");
  REDMULE_REQUIRE(t.n_rows >= 1, "DMA transfer needs at least one row");
  REDMULE_REQUIRE((t.tcdm_stride & 3u) == 0,
                  "DMA TCDM stride must be word-aligned");
  REDMULE_REQUIRE(t.l2_stride == 0 || t.l2_stride >= t.len_bytes,
                  "DMA L2 stride must cover the row length");
  REDMULE_REQUIRE(t.tcdm_stride == 0 || t.tcdm_stride >= t.len_bytes,
                  "DMA TCDM stride must cover the row length");
  // Span checks in 64-bit: `addr + span` would wrap in uint32 for large
  // strides and sail through a 32-bit range test. A bad transfer must throw
  // here, at the documented validation point, not abort mid-simulation.
  const uint64_t l2_span =
      static_cast<uint64_t>(t.n_rows - 1) *
          (t.l2_stride != 0 ? t.l2_stride : t.len_bytes) +
      t.len_bytes;
  const L2Config& l2_cfg = l2_.config();
  REDMULE_REQUIRE(t.l2_addr >= l2_cfg.base_addr &&
                      t.l2_addr - l2_cfg.base_addr + l2_span <= l2_cfg.size_bytes,
                  "DMA L2 range invalid");
  const uint64_t tcdm_span =
      static_cast<uint64_t>(t.n_rows - 1) *
          (t.tcdm_stride != 0 ? t.tcdm_stride : t.len_bytes) +
      t.len_bytes;
  const TcdmConfig& tc_cfg = hci_.tcdm().config();
  REDMULE_REQUIRE(t.tcdm_addr >= tc_cfg.base_addr &&
                      t.tcdm_addr - tc_cfg.base_addr + tcdm_span <=
                          tc_cfg.size_bytes(),
                  "DMA TCDM range invalid");
  queue_.push_back(Queued{next_id_, t});
  return next_id_++;
}

void DmaEngine::activate() {
  while (active_.size() < cfg_.max_channels && !queue_.empty()) {
    Active a;
    a.id = queue_.front().id;
    a.t = queue_.front().t;
    queue_.pop_front();
    a.latency_left = l2_.config().access_latency;
    active_.push_back(a);
  }
}

DmaEngine::Active& DmaEngine::active_of(uint64_t id) {
  for (Active& a : active_)
    if (a.id == id) return a;
  REDMULE_ASSERT(false && "in-flight beat without an active transfer");
  return active_.front();
}

void DmaEngine::retire() {
  while (!active_.empty()) {
    // Channels retire from the front only in activation order, but any fully
    // drained channel must be released: under contention a younger transfer
    // can finish while an older one still retries.
    bool popped = false;
    for (auto it = active_.begin(); it != active_.end(); ++it) {
      const Active& a = *it;
      if (a.completed_bytes < a.t.total_bytes() || a.beats_in_flight != 0 ||
          a.next_offset < a.t.total_bytes())
        continue;
      if (a.id == done_floor_) {
        ++done_floor_;
        while (done_sparse_.erase(done_floor_) != 0) ++done_floor_;
      } else {
        done_sparse_.insert(a.id);
      }
      active_.erase(it);
      popped = true;
      break;
    }
    if (!popped) break;
  }
}

void DmaEngine::tick() {
  activate();
  if (active_.empty()) return;
  ++busy_cycles_;

  // Resolve last cycle's beats; ungranted beats are reposted below.
  retry_.clear();
  bool any_stall = false;
  for (const PendingBeat& beat : in_flight_) {
    Active& a = active_of(beat.id);
    const LogResult& res = hci_.log_result(beat.port);
    if (!res.granted) {
      retry_.push_back(beat);
      any_stall = true;
      continue;
    }
    if (beat.is_read) {  // TCDM -> L2
      const uint32_t word = res.rdata;
      l2_.write(l2_addr_of(a.t, beat.offset), &word, 4);
      bytes_out_ += 4;
    } else {
      bytes_in_ += 4;
    }
    a.completed_bytes += 4;
    --a.beats_in_flight;
  }
  in_flight_.clear();
  if (any_stall) ++stall_cycles_;

  // Retire drained transfers and backfill their channels in the same cycle,
  // so back-to-back queued transfers never lose a dead cycle between them.
  retire();
  activate();

  // L2 burst-setup countdown. The single L2 front-end is busy while stalled
  // beats are being re-driven, so setup progresses only on retry-free cycles
  // -- a transfer's latency is its own, never consumed by another transfer's
  // contention recovery.
  if (retry_.empty())
    for (Active& a : active_)
      if (a.latency_left > 0) --a.latency_left;

  // Issue new beats: limited by ports, retries, and L2 bandwidth. Channels
  // are served in activation order (the L2 front-end streams one burst at a
  // time); younger channels pick up whatever port/bandwidth budget is left.
  const unsigned l2_beats = std::max(1u, l2_.config().bytes_per_cycle / 4);
  const unsigned budget = std::min(cfg_.n_ports, l2_beats);
  unsigned used_ports = 0;

  auto post = [&](PendingBeat beat) {
    const Active& a = active_of(beat.id);
    beat.port = cfg_.first_log_port + used_ports;  // ports are interchangeable
    REDMULE_ASSERT(beat.port < cfg_.first_log_port + cfg_.n_ports);
    LogRequest req;
    req.addr = tcdm_addr_of(a.t, beat.offset);
    if (beat.is_read) {
      req.we = false;
    } else {
      req.we = true;
      l2_.read(l2_addr_of(a.t, beat.offset), &req.wdata, 4);
    }
    hci_.post_log(beat.port, req);
    in_flight_.push_back(beat);
    ++used_ports;
  };

  for (const PendingBeat& beat : retry_) post(beat);
  // Injected stall: new beats stay frozen while the countdown drains, but the
  // retry reposts above already went out -- the HCI handshake is never broken
  // mid-beat, so an injected stall can slow a transfer but not corrupt it.
  if (injected_stall_cycles_ > 0) {
    --injected_stall_cycles_;
    ++stall_cycles_;
    return;
  }
  for (Active& a : active_) {
    if (a.latency_left > 0) continue;
    while (used_ports < budget && a.next_offset < a.t.total_bytes()) {
      post(PendingBeat{a.id, 0, a.next_offset,
                       a.t.dir == DmaDirection::kTcdmToL2});
      a.next_offset += 4;
      ++a.beats_in_flight;
    }
  }
}

}  // namespace redmule::mem
