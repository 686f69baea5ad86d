#include "core/streamer.hpp"

#include <algorithm>

namespace redmule::core {

using fp16::Float16;

Streamer::Streamer(const Geometry& g, mem::Hci& hci, XBuffer& xbuf, XBuffer& ybuf,
                   WBuffer& wbuf, ZBuffer& zbuf)
    : geom_(g), hci_(hci), xbuf_(xbuf), ybuf_(ybuf), wbuf_(wbuf), zbuf_(zbuf) {}

void Streamer::start(const Job& job) {
  REDMULE_ASSERT(!running_);
  job_ = job;
  tiling_.emplace(job, geom_);
  w_iter_ = WIter{};
  x_iter_ = XIter{};
  y_iter_ = YIter{};
  y_iter_.done = !job.accumulate;
  // Skip leading padded W rows (cannot happen at trav=0/col=0 since N >= 1,
  // but keep the iterators self-normalizing).
  if (w_iter_.trav * geom_.h + w_iter_.col >= job_.n) advance_w_iter();
  in_flight_.reset();
  retry_.reset();
  running_ = true;
}

void Streamer::stop() {
  REDMULE_ASSERT(idle());
  running_ = false;
  // Clear the per-cycle port snapshot: once stopped the engine may be
  // idle-skipped by the kernel, and tick() (which normally refreshes these)
  // will no longer run.
  posted_this_cycle_ = false;
  posted_kind_ = 0;
}

void Streamer::soft_clear() {
  running_ = false;
  in_flight_.reset();
  retry_.reset();
  posted_this_cycle_ = false;
  posted_kind_ = 0;
}

bool Streamer::idle() const {
  return (!running_ || (w_iter_.done && x_iter_.done && y_iter_.done)) &&
         !zbuf_.has_store() && !in_flight_.has_value() && !retry_.has_value();
}

void Streamer::advance_w_iter() {
  // Move to the next (tile, trav, col) whose W row index is < N; padded rows
  // are synthesized as zeros inside the engine and need no memory access.
  const Tiling& t = *tiling_;
  while (!w_iter_.done) {
    ++w_iter_.col;
    if (w_iter_.col == geom_.h) {
      w_iter_.col = 0;
      ++w_iter_.trav;
      if (w_iter_.trav == t.n_chunks) {
        w_iter_.trav = 0;
        ++w_iter_.tile;
        if (w_iter_.tile == t.tiles()) {
          w_iter_.done = true;
          return;
        }
      }
    }
    if (static_cast<uint64_t>(w_iter_.trav) * geom_.h + w_iter_.col < job_.n) return;
  }
}

void Streamer::advance_x_iter() {
  const Tiling& t = *tiling_;
  const unsigned mt = static_cast<unsigned>(x_iter_.tile / t.k_tiles);
  ++x_iter_.row;
  if (x_iter_.row < t.valid_rows(mt)) return;
  x_iter_.row = 0;
  x_iter_.group_opened = false;
  ++x_iter_.q;
  if (x_iter_.q < t.x_groups) return;
  x_iter_.q = 0;
  ++x_iter_.tile;
  if (x_iter_.tile == t.tiles()) x_iter_.done = true;
}

std::optional<Streamer::InFlight> Streamer::make_w_request() {
  if (w_iter_.done) return std::nullopt;
  if (!wbuf_.can_push(w_iter_.col)) return std::nullopt;
  const Tiling& t = *tiling_;
  const unsigned kt = static_cast<unsigned>(w_iter_.tile % t.k_tiles);
  const uint32_t n_row = w_iter_.trav * geom_.h + w_iter_.col;
  const uint32_t j0 = kt * geom_.j_slots();
  REDMULE_ASSERT(n_row < job_.n && j0 < job_.k);
  InFlight f;
  f.kind = Kind::kWLoad;
  f.col = w_iter_.col;
  f.tile = w_iter_.tile;
  f.trav = w_iter_.trav;
  f.valid_halfwords = t.valid_cols(kt);
  f.req.addr = job_.w_ptr + (n_row * job_.k + j0) * 2;
  f.req.n_halfwords = f.valid_halfwords;
  f.req.we = false;
  return f;
}

std::optional<Streamer::InFlight> Streamer::make_x_request() {
  if (x_iter_.done) return std::nullopt;
  const Tiling& t = *tiling_;
  const unsigned mt = static_cast<unsigned>(x_iter_.tile / t.k_tiles);
  if (!x_iter_.group_opened) {
    if (!xbuf_.can_accept_group()) return std::nullopt;
    xbuf_.open_group(x_iter_.tile, x_iter_.q, t.valid_rows(mt));
    x_iter_.group_opened = true;
  }
  const uint32_t r_global = mt * geom_.l + x_iter_.row;
  const uint32_t n0 = x_iter_.q * geom_.j_slots();
  REDMULE_ASSERT(n0 < job_.n);
  InFlight f;
  f.kind = Kind::kXLoad;
  f.valid_halfwords = std::min<unsigned>(geom_.j_slots(), job_.n - n0);
  f.req.addr = job_.x_ptr + (r_global * job_.n + n0) * 2;
  f.req.n_halfwords = f.valid_halfwords;
  f.req.we = false;
  return f;
}

void Streamer::advance_y_iter() {
  const Tiling& t = *tiling_;
  const unsigned mt = static_cast<unsigned>(y_iter_.tile / t.k_tiles);
  ++y_iter_.row;
  if (y_iter_.row < t.valid_rows(mt)) return;
  y_iter_.row = 0;
  y_iter_.group_opened = false;
  ++y_iter_.tile;
  if (y_iter_.tile == t.tiles()) y_iter_.done = true;
}

std::optional<Streamer::InFlight> Streamer::make_y_request() {
  if (y_iter_.done) return std::nullopt;
  const Tiling& t = *tiling_;
  const unsigned mt = static_cast<unsigned>(y_iter_.tile / t.k_tiles);
  const unsigned kt = static_cast<unsigned>(y_iter_.tile % t.k_tiles);
  if (!y_iter_.group_opened) {
    if (!ybuf_.can_accept_group()) return std::nullopt;
    ybuf_.open_group(y_iter_.tile, 0, t.valid_rows(mt));
    y_iter_.group_opened = true;
  }
  const uint32_t r_global = mt * geom_.l + y_iter_.row;
  const uint32_t j0 = kt * geom_.j_slots();
  InFlight f;
  f.kind = Kind::kYLoad;
  f.valid_halfwords = t.valid_cols(kt);
  f.req.addr = job_.y_ptr + (r_global * job_.k + j0) * 2;
  f.req.n_halfwords = f.valid_halfwords;
  f.req.we = false;
  return f;
}

std::optional<Streamer::InFlight> Streamer::make_z_request() {
  if (!zbuf_.has_store()) return std::nullopt;
  const ZStore& st = zbuf_.front_store();
  InFlight f;
  f.kind = Kind::kZStore;
  f.valid_halfwords = st.n_halfwords;
  f.req.addr = st.addr;
  f.req.n_halfwords = st.n_halfwords;
  f.req.we = true;
  f.req.strb = st.n_halfwords >= 32 ? ~0u : ((1u << st.n_halfwords) - 1);
  for (unsigned h = 0; h < st.n_halfwords; ++h) f.req.wdata[h] = st.data[h].bits();
  return f;
}

namespace {
char kind_char(int k) {
  switch (k) {
    case 0: return 'W';
    case 1: return 'X';
    case 2: return 'Y';
    case 3: return 'Z';
  }
  return '?';
}
}  // namespace

void Streamer::tick() {
  posted_this_cycle_ = false;
  posted_kind_ = 0;
  if (in_flight_.has_value()) return;  // should not happen (resolved in commit)

  if (retry_.has_value()) {
    in_flight_ = retry_;
    retry_.reset();
    hci_.post_shallow(in_flight_->req);
    posted_this_cycle_ = true;
    posted_kind_ = kind_char(static_cast<int>(in_flight_->kind));
    return;
  }
  if (!running_) return;

  // Priority: X refills first (the X-buffer preload gates the array start
  // and has the longest deadline chain), then the W heartbeat, then Z
  // stores. All three duty cycles sum to < 1 port access/cycle in steady
  // state, so priority only shapes corner behaviour (see tests).
  std::optional<InFlight> next = make_x_request();
  if (!next.has_value()) next = make_y_request();
  if (!next.has_value()) next = make_w_request();
  if (!next.has_value()) next = make_z_request();
  if (!next.has_value()) {
    ++idle_port_cycles_;
    return;
  }

  // Advance the producing iterator now; delivery happens on grant.
  switch (next->kind) {
    case Kind::kWLoad:
      advance_w_iter();
      ++issued_loads_;
      break;
    case Kind::kXLoad:
      advance_x_iter();
      ++issued_loads_;
      break;
    case Kind::kYLoad:
      advance_y_iter();
      ++issued_loads_;
      break;
    case Kind::kZStore:
      ++issued_stores_;
      break;
  }
  in_flight_ = std::move(next);
  hci_.post_shallow(in_flight_->req);
  posted_this_cycle_ = true;
  posted_kind_ = kind_char(static_cast<int>(in_flight_->kind));
}

void Streamer::commit() {
  if (!in_flight_.has_value()) return;
  const mem::ShallowResult& res = hci_.shallow_result_now();
  if (!res.granted) {
    ++retry_cycles_;
    retry_ = std::move(in_flight_);
    in_flight_.reset();
    return;
  }
  InFlight& f = *in_flight_;
  // Deliveries fill pre-sized buffer storage in place (push_bits /
  // deliver_row_bits): the grant path is allocation-free.
  switch (f.kind) {
    case Kind::kWLoad:
      wbuf_.push_bits(f.col, f.tile, f.trav, res.rdata.data(), f.valid_halfwords);
      break;
    case Kind::kXLoad:
      xbuf_.deliver_row_bits(res.rdata.data(), f.valid_halfwords);
      break;
    case Kind::kYLoad:
      ybuf_.deliver_row_bits(res.rdata.data(), f.valid_halfwords);
      break;
    case Kind::kZStore:
      zbuf_.pop_store();
      break;
  }
  in_flight_.reset();
}

void Streamer::reset_stats() {
  issued_loads_ = issued_stores_ = retry_cycles_ = idle_port_cycles_ = 0;
}

void Streamer::reset() {
  soft_clear();
  job_ = Job{};
  tiling_.reset();
  w_iter_ = WIter{};
  x_iter_ = XIter{};
  y_iter_ = YIter{};
  reset_stats();
}

}  // namespace redmule::core
