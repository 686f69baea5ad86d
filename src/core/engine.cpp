#include "core/engine.hpp"

#include <algorithm>

namespace redmule::core {

using fp16::Float16;

RedmuleEngine::RedmuleEngine(const Geometry& g, mem::Hci& hci)
    : geom_(g),
      hci_(hci),
      datapath_(g),
      xbuf_(g),
      ybuf_(g),
      wbuf_(g),
      zbuf_(g),
      streamer_(g, hci, xbuf_, ybuf_, wbuf_, zbuf_) {
  g.validate();
  // The streamer must fit a whole (possibly 16-bit-misaligned) line into one
  // shallow access: j_slots/2 words of payload + 1 word for misalignment.
  REDMULE_REQUIRE(g.j_slots() / 2 + 1 <= hci.config().shallow_words,
                  "HCI shallow port too narrow for this geometry");
  REDMULE_REQUIRE(g.j_slots() <= 32,
                  "cycle model supports up to 32 j-slots (use the analytical "
                  "model for wider geometries)");
  x_regs_.resize(static_cast<size_t>(g.h) * g.l);
  y_init_.resize(g.l);
  steps_.resize(g.h);
  issues_.resize(g.h);
}

void RedmuleEngine::reg_write(uint32_t offset, uint32_t value) {
  const bool triggered = regfile_.write(offset, value);
  if (offset == kRegSoftClear) {
    // Abort any running job and clear all state.
    state_ = Fsm::kIdle;
    datapath_.reset();
    xbuf_.reset();
    ybuf_.reset();
    wbuf_.reset();
    zbuf_.reset();
    streamer_.soft_clear();
    done_event_ = false;
    return;
  }
  if (triggered) start_job();
}

void RedmuleEngine::reset() {
  state_ = Fsm::kIdle;
  regfile_.reset();
  datapath_.reset();
  xbuf_.reset();
  ybuf_.reset();
  wbuf_.reset();
  zbuf_.reset();
  streamer_.reset();
  job_ = Job{};
  tiling_.reset();
  ac_ = 0;
  total_span_ = 0;
  done_event_ = false;
  clear_schedule_scratch();
  cur_stats_ = JobStats{};
  last_stats_ = JobStats{};
}

RedmuleEngine::State RedmuleEngine::save_state() const {
  REDMULE_REQUIRE(is_idle(), "engine snapshot requires an idle accelerator");
  State s;
  s.regfile = regfile_;
  s.cur_stats = cur_stats_;
  s.last_stats = last_stats_;
  s.done_event = done_event_;
  s.streamer = streamer_.save_state();
  return s;
}

void RedmuleEngine::restore_state(const State& s) {
  reset();
  regfile_ = s.regfile;
  cur_stats_ = s.cur_stats;
  last_stats_ = s.last_stats;
  done_event_ = s.done_event;
  streamer_.restore_state(s.streamer);
}

bool RedmuleEngine::take_done_event() {
  const bool e = done_event_;
  done_event_ = false;
  return e;
}

void RedmuleEngine::start_job() {
  job_ = regfile_.job();
  job_.validate();
  tiling_.emplace(job_, geom_);
  regfile_.on_job_started();
  datapath_.reset();
  streamer_.start(job_);
  ac_ = 0;
  total_span_ = static_cast<uint64_t>(tiling_->tiles()) * tiling_->n_chunks *
                geom_.j_slots();
  clear_schedule_scratch();
  cur_stats_ = JobStats{};
  cur_stats_.macs = job_.macs();
  state_ = Fsm::kRunning;
}

void RedmuleEngine::clear_schedule_scratch() {
  std::fill(x_regs_.begin(), x_regs_.end(), Float16{});
  std::fill(y_init_.begin(), y_init_.end(), Float16{});
  std::fill(steps_.begin(), steps_.end(), ColStep{});
  std::fill(issues_.begin(), issues_.end(), Datapath::ColumnIssue{});
}

void RedmuleEngine::finish_job() {
  streamer_.stop();
  cur_stats_.fma_ops = datapath_.fma_ops();
  last_stats_ = cur_stats_;
  regfile_.on_job_finished();
  done_event_ = true;
  state_ = Fsm::kIdle;
}

bool RedmuleEngine::try_advance() {
  const unsigned h = geom_.h;
  const unsigned js = geom_.j_slots();
  const unsigned lat = geom_.fma_latency();
  const Tiling& tl = *tiling_;

  // --- Phase 1: decode and check every requirement; stall on any miss
  // (global HWPE enable, nothing moves on a stall). steps_ is engine-owned
  // scratch, reused every cycle without allocation.
  for (unsigned c = 0; c < h; ++c) {
    ColStep& st = steps_[c];
    st = ColStep{};
    const int64_t local = static_cast<int64_t>(ac_) - static_cast<int64_t>(c) * lat;
    if (local < 0 || local >= static_cast<int64_t>(total_span_)) continue;
    st.active = true;
    const uint64_t t_global = static_cast<uint64_t>(local) / js;
    st.tile = t_global / tl.n_chunks;
    st.trav = static_cast<uint32_t>(t_global % tl.n_chunks);
    st.tau = static_cast<uint32_t>(local % js);
    st.n = static_cast<uint64_t>(st.trav) * h + c;
    st.padded = st.n >= job_.n;

    if (!st.padded) {
      // The W element is consumed from the column's shift register every
      // cycle of the traversal window.
      st.wline = wbuf_.front_if(c, st.tile, st.trav);
      if (st.wline == nullptr) return false;
      // The X operand registers load from the X-buffer at tau == 0 only;
      // afterwards the line may be retired (the operands are held locally).
      if (st.tau == 0 &&
          xbuf_.find_ready(st.tile, static_cast<uint32_t>(st.n / js)) == nullptr)
        return false;
    }
    // Accumulation input: column 0 injects Y on the first traversal.
    if (job_.accumulate && c == 0 && st.trav == 0 &&
        ybuf_.find_ready(st.tile, 0) == nullptr)
      return false;
    // Z capture-buffer reservation at the start of a tile's last traversal
    // in the final column; the capture itself begins fma_latency later.
    if (c == h - 1 && st.trav == tl.n_chunks - 1 && st.tau == 0 &&
        !zbuf_.can_open_tile())
      return false;
  }

  // --- Phase 2: all operands present; perform latches, pops, and the
  // datapath step. issues_ is reused scratch that hands the datapath the
  // operand registers by pointer, so no operand is copied per cycle.
  for (unsigned c = 0; c < h; ++c) {
    const ColStep& st = steps_[c];
    Datapath::ColumnIssue& issue = issues_[c];
    Float16* x_regs = &x_regs_[static_cast<size_t>(c) * geom_.l];
    issue.active = false;
    issue.first_traversal = false;
    issue.init_acc = nullptr;
    // Padded columns never assign w below, so a stale broadcast from an
    // earlier cycle (possibly Inf/NaN) must not leak into their FMAs.
    issue.w = Float16{};
    if (!st.active) {
      issue.tag = PipeTag{};
      issue.x = nullptr;  // observers must not see a stale operand snapshot
      continue;
    }

    if (st.tau == 0) {
      // Operand-register load: latch the X elements for this traversal.
      if (st.padded) {
        std::fill(x_regs, x_regs + geom_.l, Float16{});
      } else {
        const uint32_t q = static_cast<uint32_t>(st.n / js);
        XGroup* grp = xbuf_.find_ready(st.tile, q);
        REDMULE_ASSERT(grp != nullptr);
        const unsigned off = static_cast<unsigned>(st.n % js);
        for (unsigned r = 0; r < geom_.l; ++r) x_regs[r] = grp->rows[r][off];
        // Retire the line group once its last operand load happened.
        ++grp->uses;
        const uint32_t n0 = q * js;
        const uint32_t expected = std::min<uint32_t>(js, job_.n - n0);
        if (grp->uses == expected) xbuf_.pop_front();
      }
    }

    issue.active = true;
    issue.tag = PipeTag{st.tile, st.trav, st.tau, st.trav == tl.n_chunks - 1};
    issue.first_traversal = st.trav == 0;
    issue.x = x_regs;
    issue.live_rows = live_rows(st.tile, st.tau);
    if (job_.accumulate && c == 0 && st.trav == 0) {
      XGroup* ygrp = ybuf_.find_ready(st.tile, 0);
      REDMULE_ASSERT(ygrp != nullptr);
      for (unsigned r = 0; r < geom_.l; ++r) y_init_[r] = ygrp->rows[r][st.tau];
      issue.init_acc = y_init_.data();
      if (st.tau == js - 1) ybuf_.pop_front();  // Y tile fully injected
    }
    if (!st.padded) {
      REDMULE_ASSERT(st.wline != nullptr);
      issue.w = st.wline->elems[st.tau];
      if (st.tau == js - 1) wbuf_.pop(c);  // line fully broadcast
    }
    if (c == h - 1 && st.trav == tl.n_chunks - 1 && st.tau == 0)
      zbuf_.open_tile(st.tile);
  }

  const Datapath::Capture* cap = datapath_.advance(issues_);
  if (observer_active_)
    observer_(ac_, issues_,
              cap != nullptr ? std::optional<Datapath::Capture>(*cap) : std::nullopt);
  if (cap != nullptr) {
    const unsigned live = live_rows(cap->tag.tile, cap->tag.tau);
    if (live != 0)
      zbuf_.capture(cap->tag.tile, cap->tag.tau, {cap->values.data(), live});
    if (cap->tag.tau == js - 1) {  // tile fully captured: emit row stores
      const unsigned mt = static_cast<unsigned>(cap->tag.tile / tl.k_tiles);
      const unsigned kt = static_cast<unsigned>(cap->tag.tile % tl.k_tiles);
      zbuf_.close_tile(cap->tag.tile, job_.z_ptr, job_, mt, kt);
    }
  }
  ++ac_;
  return true;
}

unsigned RedmuleEngine::live_rows(uint64_t tile, uint32_t tau) const {
  const Tiling& tl = *tiling_;
  const unsigned mt = static_cast<unsigned>(tile / tl.k_tiles);
  const unsigned kt = static_cast<unsigned>(tile % tl.k_tiles);
  return tau < tl.valid_cols(kt) ? tl.valid_rows(mt) : 0;
}

void RedmuleEngine::tick() {
  if (state_ == Fsm::kRunning) {
    ++cur_stats_.cycles;
    if (ac_ < total_span_ + geom_.j_slots()) {
      if (try_advance())
        ++cur_stats_.advance_cycles;
      else
        ++cur_stats_.stall_cycles;
    }
    // Job completes when the schedule ran out, the array drained, and every
    // Z store left the cluster.
    if (ac_ >= total_span_ + geom_.j_slots() && datapath_.drained() &&
        zbuf_.drained() && streamer_.idle()) {
      finish_job();
    }
  }
  streamer_.tick();
}

void RedmuleEngine::commit() { streamer_.commit(); }

}  // namespace redmule::core
