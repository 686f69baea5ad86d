#include "mem/hci.hpp"

#include <algorithm>

namespace redmule::mem {

Hci::Hci(Tcdm& tcdm, HciConfig cfg) : tcdm_(tcdm), cfg_(cfg) {
  REDMULE_REQUIRE(cfg.n_log_ports >= 1, "HCI needs at least one log port");
  REDMULE_REQUIRE(cfg.shallow_words >= 2, "shallow branch needs at least 2 words");
  REDMULE_REQUIRE(cfg.shallow_words <= tcdm.config().n_banks,
                  "shallow branch cannot be wider than the bank set");
  REDMULE_REQUIRE(cfg.max_stall >= 1, "rotation latency must be >= 1");
  log_req_.resize(cfg.n_log_ports);
  log_res_visible_.resize(cfg.n_log_ports);
  log_res_staged_.resize(cfg.n_log_ports);
  bank_rr_.assign(tcdm.config().n_banks, 0);
  posted_ports_.reserve(cfg.n_log_ports);
  shallow_bank_.assign(tcdm.config().n_banks, 0);
}

void Hci::post_log(unsigned port, const LogRequest& req) {
  REDMULE_ASSERT(port < cfg_.n_log_ports);
  REDMULE_ASSERT((req.addr & 3u) == 0);
  REDMULE_ASSERT_MSG(tcdm_.contains(req.addr, 4), "log request outside TCDM");
  REDMULE_ASSERT_MSG(!log_req_[port].has_value(), "one request per port per cycle");
  log_req_[port] = req;
  // Keep the posted list sorted ascending: arbitration scans candidates in
  // port order, so the fast path below must see them the same way the full
  // port scan would.
  auto it = std::lower_bound(posted_ports_.begin(), posted_ports_.end(), port);
  posted_ports_.insert(it, port);
  reqs_pending_ = true;
}

void Hci::post_shallow(const ShallowRequest& req) {
  REDMULE_ASSERT((req.addr & 1u) == 0);
  REDMULE_ASSERT(req.n_halfwords >= 1 && req.n_halfwords <= 2 * cfg_.shallow_words);
  REDMULE_ASSERT_MSG(tcdm_.contains(req.addr, 2 * req.n_halfwords),
                     "shallow request outside TCDM");
  REDMULE_ASSERT_MSG(!shallow_req_.has_value(), "one shallow request per cycle");
  const BankSpan span = shallow_span(req);
  REDMULE_ASSERT_MSG(span.n_words <= cfg_.shallow_words,
                     "shallow request wider than the port");
  shallow_req_ = req;
  reqs_pending_ = true;
}

const LogResult& Hci::log_result(unsigned port) const {
  REDMULE_ASSERT(port < cfg_.n_log_ports);
  return log_res_visible_[port];
}

const ShallowResult& Hci::shallow_result() const { return shallow_res_visible_; }

Hci::BankSpan Hci::shallow_span(const ShallowRequest& req) const {
  const uint32_t base = tcdm_.config().base_addr;
  const uint32_t first_byte = req.addr;
  const uint32_t last_byte = req.addr + 2 * req.n_halfwords - 1;
  BankSpan span;
  span.first_word = (first_byte - base) >> 2;
  span.n_words = ((last_byte - base) >> 2) - span.first_word + 1;
  return span;
}

void Hci::serve_shallow(const ShallowRequest& req) {
  if (!req.we) {
    // One contiguous backdoor copy instead of n_halfwords bank reads: the
    // span is a single wide access by construction (all banks granted
    // together), so batching is observation-equivalent and much cheaper.
    tcdm_.backdoor_read(req.addr, shallow_res_staged_.rdata.data(),
                        2 * req.n_halfwords);
  } else if (const uint32_t full = req.n_halfwords >= 32
                                       ? 0xFFFFFFFFu
                                       : (1u << req.n_halfwords) - 1;
             req.strb == full) {
    // Full-strobe store (the common case): batch it the same way.
    tcdm_.backdoor_write(req.addr, req.wdata.data(), 2 * req.n_halfwords);
  } else {
    for (unsigned h = 0; h < req.n_halfwords; ++h) {
      if ((req.strb & (1u << h)) == 0) continue;
      const uint32_t a = req.addr + 2 * h;
      const uint32_t word_addr = a & ~3u;
      const unsigned hw_in_word = (a >> 1) & 1;
      const uint32_t wdata = static_cast<uint32_t>(req.wdata[h]) << (16 * hw_in_word);
      const uint8_t be = static_cast<uint8_t>(0x3u << (2 * hw_in_word));
      tcdm_.write_word(word_addr, wdata, be);
    }
  }
  shallow_res_staged_.granted = true;
}

void Hci::tick() {
  const unsigned n_banks = tcdm_.config().n_banks;

  // Which banks would the shallow request occupy? shallow_bank_ is hoisted
  // scratch (sized once in the constructor); clear only the touched span.
  if (shallow_req_.has_value()) {
    const BankSpan span = shallow_span(*shallow_req_);
    for (unsigned i = 0; i < span.n_words && i < n_banks; ++i)
      shallow_bank_[(span.first_word + i) % n_banks] = 1;
  }

  // Is there a log request contesting one of those banks? Only the posted
  // ports need checking.
  bool contested = false;
  if (shallow_req_.has_value()) {
    for (const unsigned p : posted_ports_) {
      if (shallow_bank_[tcdm_.bank_of(log_req_[p]->addr)]) {
        contested = true;
        break;
      }
    }
  }

  // Rotation-based branch arbitration (starvation-free by max_stall bound).
  bool shallow_wins = cfg_.shallow_has_priority;
  if (contested) {
    if (cfg_.shallow_has_priority && log_stall_streak_ >= cfg_.max_stall) {
      shallow_wins = false;
      ++rotation_events_;
    } else if (!cfg_.shallow_has_priority && shallow_stall_streak_ >= cfg_.max_stall) {
      shallow_wins = true;
      ++rotation_events_;
    }
  }

  // Serve the shallow branch.
  const bool shallow_granted =
      shallow_req_.has_value() && (!contested || shallow_wins);
  if (shallow_granted) {
    serve_shallow(*shallow_req_);
    ++shallow_grants_;
    shallow_stall_streak_ = 0;
  } else if (shallow_req_.has_value()) {
    ++shallow_stalls_;
    ++shallow_stall_streak_;
  }
  const bool shallow_holds_banks = shallow_granted;

  // Serve the log branch: per-bank round robin among the requesting ports.
  // Iterate only the posted ports (kept ascending) instead of scanning
  // n_banks x n_log_ports: for each not-yet-served posted port, gather the
  // other candidates of its bank in port order and arbitrate that bank.
  bool log_blocked_by_shallow = false;
  bool any_log_grant = false;
  const size_t n_posted = posted_ports_.size();
  bool served[64] = {};
  REDMULE_ASSERT(n_posted <= 64);
  for (size_t i = 0; i < n_posted; ++i) {
    if (served[i]) continue;
    const unsigned b = tcdm_.bank_of(log_req_[posted_ports_[i]]->addr);
    // Candidates of bank b, ascending (posted_ports_ is sorted).
    unsigned candidates[64];
    unsigned n_cand = 0;
    for (size_t j = i; j < n_posted; ++j) {
      if (served[j]) continue;
      const unsigned p = posted_ports_[j];
      if (tcdm_.bank_of(log_req_[p]->addr) != b) continue;
      candidates[n_cand++] = p;
      served[j] = true;  // this bank is arbitrated exactly once this cycle
    }
    if (shallow_holds_banks && shallow_bank_[b]) {
      log_blocked_by_shallow = true;
      continue;  // bank taken by the wide port this cycle; all candidates stall
    }
    // Round-robin pick starting from the pointer, wrapping to the lowest
    // candidate, candidates[0] -- always posted_ports_[i] itself.
    unsigned pick = posted_ports_[i];
    for (unsigned k = 0; k < n_cand; ++k) {
      if (candidates[k] >= bank_rr_[b]) {
        pick = candidates[k];
        break;
      }
    }
    const LogRequest& req = *log_req_[pick];
    LogResult res;
    res.granted = true;
    if (req.we) {
      tcdm_.write_word(req.addr, req.wdata, req.be);
    } else {
      res.rdata = tcdm_.read_word(req.addr);
    }
    log_res_staged_[pick] = res;
    any_log_grant = true;
    ++log_grants_;
    log_conflict_stalls_ += n_cand - 1;
    bank_rr_[b] = (pick + 1) % cfg_.n_log_ports;
  }
  if (log_blocked_by_shallow)
    ++log_stall_streak_;
  else
    log_stall_streak_ = 0;

  staged_log_grants_ = any_log_grant;
  staged_shallow_grant_ = shallow_granted;

  // Consume this cycle's requests; ungranted initiators must repost.
  for (const unsigned p : posted_ports_) log_req_[p].reset();
  posted_ports_.clear();
  if (shallow_req_.has_value()) {
    const BankSpan span = shallow_span(*shallow_req_);
    for (unsigned i = 0; i < span.n_words && i < n_banks; ++i)
      shallow_bank_[(span.first_word + i) % n_banks] = 0;
    shallow_req_.reset();
  }
  reqs_pending_ = false;
}

void Hci::commit() {
  // Publishing an all-clear result set over an already-clear one is a no-op;
  // skip each branch's copies unless a grant is staged or still visible.
  if (staged_log_grants_ || log_results_live_) {
    log_res_visible_ = log_res_staged_;
    std::fill(log_res_staged_.begin(), log_res_staged_.end(), LogResult{});
  }
  if (staged_shallow_grant_ || shallow_result_live_) {
    shallow_res_visible_ = shallow_res_staged_;
    shallow_res_staged_ = ShallowResult{};
  }
  log_results_live_ = staged_log_grants_;
  shallow_result_live_ = staged_shallow_grant_;
  staged_log_grants_ = false;
  staged_shallow_grant_ = false;
}

void Hci::reset_stats() {
  log_grants_ = log_conflict_stalls_ = 0;
  shallow_grants_ = shallow_stalls_ = rotation_events_ = 0;
}

void Hci::reset() {
  for (auto& r : log_req_) r.reset();
  shallow_req_.reset();
  std::fill(log_res_visible_.begin(), log_res_visible_.end(), LogResult{});
  std::fill(log_res_staged_.begin(), log_res_staged_.end(), LogResult{});
  shallow_res_visible_ = ShallowResult{};
  shallow_res_staged_ = ShallowResult{};
  std::fill(bank_rr_.begin(), bank_rr_.end(), 0u);
  shallow_stall_streak_ = 0;
  log_stall_streak_ = 0;
  posted_ports_.clear();
  std::fill(shallow_bank_.begin(), shallow_bank_.end(), uint8_t{0});
  reqs_pending_ = false;
  log_results_live_ = false;
  shallow_result_live_ = false;
  staged_log_grants_ = false;
  staged_shallow_grant_ = false;
  reset_stats();
}

Hci::State Hci::save_state() const {
  REDMULE_REQUIRE(is_idle(), "HCI snapshot requires a quiescent interconnect");
  State s;
  s.bank_rr = bank_rr_;
  s.log_grants = log_grants_;
  s.log_conflict_stalls = log_conflict_stalls_;
  s.shallow_grants = shallow_grants_;
  s.shallow_stalls = shallow_stalls_;
  s.rotation_events = rotation_events_;
  return s;
}

void Hci::restore_state(const State& s) {
  REDMULE_REQUIRE(s.bank_rr.size() == bank_rr_.size(),
                  "HCI state bank-count mismatch");
  reset();
  bank_rr_ = s.bank_rr;
  log_grants_ = s.log_grants;
  log_conflict_stalls_ = s.log_conflict_stalls;
  shallow_grants_ = s.shallow_grants;
  shallow_stalls_ = s.shallow_stalls;
  rotation_events_ = s.rotation_events;
}

}  // namespace redmule::mem
