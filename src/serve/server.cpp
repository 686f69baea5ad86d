#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <utility>

namespace redmule::serve {

using api::ErrorCode;

namespace {

/// Wake-pipe bytes: workers signal completions with 'W'; anything else
/// (e.g. the single byte a SIGTERM handler writes) requests a drain.
constexpr uint8_t kWakeCompletion = 'W';
constexpr uint8_t kWakeDrain = 'D';

/// The RESULT payload of a finished job -- all zero unless it succeeded;
/// deliver_terminal stamps its tag and job id.
ResultMsg result_of(const api::WorkloadResult& r) {
  ResultMsg m;
  if (r.ok()) {
    m.cycles = r.stats.cycles;
    m.advance_cycles = r.stats.advance_cycles;
    m.stall_cycles = r.stats.stall_cycles;
    m.macs = r.stats.macs;
    m.fma_ops = r.stats.fma_ops;
    m.z_hash = r.z_hash;
  }
  return m;
}

}  // namespace

int64_t Server::now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  int fds[2];
  if (::pipe(fds) != 0) throw redmule::Error("serve::Server: pipe() failed");
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  for (const int fd : fds) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  service_ = std::make_unique<api::Service>(cfg_.service);
}

Server::~Server() {
  stop();
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
}

void Server::start() {
  REDMULE_ASSERT_MSG(!loop_thread_.joinable(), "start() called twice");
  listener_ = Listener::bind_to(cfg_.address);
  address_ = listener_.address();
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
}

void Server::begin_drain() {
  drain_requested_.store(true, std::memory_order_release);
  const uint8_t b = kWakeDrain;
  (void)!::write(wake_write_fd_, &b, 1);
}

void Server::drain() {
  if (!loop_thread_.joinable()) return;
  begin_drain();
  {
    std::unique_lock<std::mutex> l(lifecycle_m_);
    lifecycle_cv_.wait(l, [&] { return loop_exited_; });
  }
  loop_thread_.join();
}

void Server::wait() {
  if (!loop_thread_.joinable()) return;
  {
    std::unique_lock<std::mutex> l(lifecycle_m_);
    lifecycle_cv_.wait(l, [&] { return loop_exited_; });
  }
  loop_thread_.join();
}

void Server::stop() {
  stop_requested_.store(true, std::memory_order_release);
  const uint8_t b = kWakeDrain;
  (void)!::write(wake_write_fd_, &b, 1);
  if (loop_thread_.joinable()) loop_thread_.join();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> l(stats_m_);
  return stats_;
}

// --- Event loop -------------------------------------------------------------

void Server::loop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> session_order;
  std::vector<uint64_t> to_reap;
  int64_t force_close_ms = 0;  ///< drain endgame: reap everything after this

  while (!stop_requested_.load(std::memory_order_acquire)) {
    pfds.clear();
    session_order.clear();
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    const bool accepting = listener_.valid() && !draining_;
    if (accepting) pfds.push_back({listener_.fd(), POLLIN, 0});
    const size_t base = pfds.size();
    for (auto& [id, sp] : sessions_) {
      short events = 0;
      if (!sp->doomed()) events |= POLLIN;
      if (sp->wants_write()) events |= POLLOUT;
      pfds.push_back({sp->socket().fd(), events, 0});
      session_order.push_back(id);
    }

    // 200 ms is purely a timer cadence (idle/ping/doom/drain deadlines):
    // completions and drain requests wake the pipe, I/O wakes its fd.
    (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 200);
    const int64_t now = now_ms();

    if (pfds[0].revents & POLLIN) {
      uint8_t buf[256];
      ssize_t n;
      while ((n = ::read(wake_read_fd_, buf, sizeof(buf))) > 0)
        for (ssize_t i = 0; i < n; ++i)
          if (buf[i] != kWakeCompletion)
            drain_requested_.store(true, std::memory_order_release);
    }
    if (stop_requested_.load(std::memory_order_acquire)) break;

    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_deadline_ms_ = now + static_cast<int64_t>(cfg_.drain_grace_ms);
      force_close_ms =
          drain_deadline_ms_ + static_cast<int64_t>(cfg_.doom_linger_ms);
      listener_.close();  // stop accepting; queued clients get ECONNREFUSED
      std::lock_guard<std::mutex> l(stats_m_);
      stats_.draining = true;
    }

    deliver_completions();

    if (accepting && listener_.valid() && (pfds[1].revents & POLLIN))
      accept_pending();

    to_reap.clear();
    for (size_t i = 0; i < session_order.size(); ++i) {
      const auto it = sessions_.find(session_order[i]);
      if (it == sessions_.end()) continue;
      Session& s = *it->second;
      const short rev = pfds[base + i].revents;
      // Read before honoring HUP: a peer that wrote then closed still
      // deserves its last frames parsed (and its truncation detected).
      if (!s.doomed() && (rev & (POLLIN | POLLHUP | POLLERR))) pump_reads(s);
      if (s.wants_write() && (rev & (POLLOUT | POLLERR | POLLHUP)))
        if (!s.flush_writes()) s.doom(now);  // peer gone; reap below
    }

    // Terminal frames whose completion callback never ran (dequeued cancels,
    // shed victims -- all raised synchronously on this thread): synthesize
    // them from the ready futures. Swept across every session because a
    // shed victim belongs to whoever queued it, not whoever submitted last.
    for (auto& [id, sp] : sessions_) sweep_ready_handles(*sp);

    // Timers: idle reaping, keepalive pings, doomed-session linger.
    for (auto& [id, sp] : sessions_) {
      Session& s = *sp;
      if (s.doomed()) {
        if (!s.wants_write() || now >= s.doom_deadline_ms())
          to_reap.push_back(id);
        continue;
      }
      if (cfg_.idle_timeout_ms != 0 &&
          now - s.last_recv_ms() >= static_cast<int64_t>(cfg_.idle_timeout_ms)) {
        {
          std::lock_guard<std::mutex> l(stats_m_);
          ++stats_.idle_disconnects;
        }
        fail_session(s, ErrorCode::kTimeout,
                     "idle timeout: no traffic for " +
                         std::to_string(cfg_.idle_timeout_ms) + " ms",
                     /*count_protocol_error=*/false);
        continue;
      }
      if (cfg_.ping_interval_ms != 0 && s.hello_done() &&
          !s.ping_outstanding() &&
          now - s.last_recv_ms() >=
              static_cast<int64_t>(cfg_.ping_interval_ms)) {
        enqueue(s, MsgType::kPing,
                frame_of(MsgType::kPing, PingMsg{static_cast<uint64_t>(now)}));
        s.note_ping_sent();
      }
    }

    if (draining_) drain_tick(now);
    if (draining_ && now >= force_close_ms)
      for (auto& [id, sp] : sessions_) to_reap.push_back(id);

    for (const uint64_t id : to_reap) reap_session(id);
    // Graceful-drain exits: reap sessions that are fully settled (no live
    // jobs, nothing left to flush), then stop once everyone is gone.
    if (draining_) {
      to_reap.clear();
      for (auto& [id, sp] : sessions_)
        if (sp->live_jobs() == 0 && !sp->wants_write()) to_reap.push_back(id);
      for (const uint64_t id : to_reap) reap_session(id);
      if (sessions_.empty()) break;
    }
  }

  // Teardown (stop or drain complete): unwind every remaining session's
  // jobs through the service and release the sockets.
  std::vector<uint64_t> ids;
  ids.reserve(sessions_.size());
  for (auto& [id, sp] : sessions_) ids.push_back(id);
  for (const uint64_t id : ids) reap_session(id);
  listener_.close();
  running_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> l(lifecycle_m_);
    loop_exited_ = true;
  }
  lifecycle_cv_.notify_all();
}

void Server::drain_tick(int64_t now) {
  if (drain_cancelled_jobs_ || now < drain_deadline_ms_) return;
  // Grace period over: whatever still runs is unwound cooperatively. The
  // kCancelled results flow back through the normal completion paths, so
  // clients that are still connected see typed ERRORs, not silence.
  drain_cancelled_jobs_ = true;
  size_t cancelled = 0;
  for (auto& [id, sp] : sessions_) cancelled += service_->cancel_group(id);
  if (cancelled != 0) {
    std::lock_guard<std::mutex> l(stats_m_);
    stats_.jobs_cancelled_on_disconnect += cancelled;
  }
}

void Server::accept_pending() {
  for (;;) {
    Socket sock = listener_.accept_one();
    if (!sock.valid()) return;
    if (sessions_.size() >= cfg_.max_sessions) {
      // Full house: one typed ERROR frame, best effort, then the door.
      const auto err = frame_of(
          MsgType::kError,
          ErrorMsg{0, ErrorCode::kCapacity,
                   "session limit reached (" +
                       std::to_string(cfg_.max_sessions) + ")"});
      (void)sock.write_some(err.data(), err.size());
      std::lock_guard<std::mutex> l(stats_m_);
      ++stats_.overload_disconnects;
      continue;
    }
    const uint64_t id = next_session_id_++;
    auto session = std::make_unique<Session>(id, std::move(sock),
                                             cfg_.max_frame_bytes);
    session->note_recv(now_ms());
    sessions_.emplace(id, std::move(session));
    std::lock_guard<std::mutex> l(stats_m_);
    ++stats_.sessions_total;
    ++stats_.sessions_now;
  }
}

void Server::pump_reads(Session& s) {
  uint8_t buf[4096];
  for (;;) {
    const IoResult r = s.socket().read_some(buf, sizeof(buf));
    if (r.n != 0) {
      s.counters().bytes_in += r.n;
      s.frames().feed(buf, r.n);
      try {
        std::optional<Frame> f;
        while (!s.doomed() && (f = s.frames().next())) {
          ++s.counters().frames_in;
          {
            std::lock_guard<std::mutex> l(stats_m_);
            ++stats_.frames_in;
          }
          s.note_recv(now_ms());
          handle_frame(s, *f);
        }
      } catch (const api::TypedError& e) {
        // Scanner-level violation (oversized/bad version/unknown type/bad
        // length): typed ERROR, then the connection ends.
        fail_session(s, e.code(), e.what(), /*count_protocol_error=*/true);
        return;
      }
      continue;
    }
    if (r.closed || r.fatal) {
      if (s.frames().buffered_bytes() != 0) {
        // EOF mid-frame: the peer advertised more bytes than it sent.
        std::lock_guard<std::mutex> l(stats_m_);
        ++stats_.protocol_errors;
      }
      s.doom(now_ms());  // nothing to flush to a dead peer; reaped this pass
      return;
    }
    return;  // EAGAIN
  }
}

void Server::handle_frame(Session& s, const Frame& f) {
  try {
    if (!s.hello_done()) {
      if (f.type != MsgType::kHello) {
        fail_session(s, ErrorCode::kBadConfig,
                     std::string("expected HELLO, got ") + msg_type_name(f.type),
                     /*count_protocol_error=*/true);
        return;
      }
      (void)decode_hello(f);  // validated; client_name currently informational
      s.set_hello_done();
      HelloAckMsg ack;
      ack.session_id = s.id();
      ack.max_frame_bytes = cfg_.max_frame_bytes;
      ack.max_spec_bytes = static_cast<uint32_t>(api::kMaxSpecBytes);
      ack.server_name = cfg_.name;
      enqueue(s, MsgType::kHelloAck, frame_of(MsgType::kHelloAck, ack));
      return;
    }
    switch (f.type) {
      case MsgType::kSubmit:
        handle_submit(s, f);
        return;
      case MsgType::kCancel: {
        const CancelMsg m = decode_cancel(f);
        Session::LiveJob* job = s.find_job(m.tag);
        // Unknown tag: the job already completed (its terminal frame is in
        // flight) -- a benign race, not an error.
        if (job == nullptr) return;
        (void)service_->cancel_detail(job->job_id);
        // A dequeued cancel fulfills the future synchronously with no
        // worker callback; the sweep below this loop pass turns it into
        // the terminal ERROR frame.
        return;
      }
      case MsgType::kPing: {
        const PingMsg m = decode_ping(f);
        enqueue(s, MsgType::kPong, frame_of(MsgType::kPong, m));
        return;
      }
      case MsgType::kPong:
        (void)decode_ping(f);  // liveness already noted by note_recv()
        return;
      case MsgType::kStats:
        decode_empty(f);
        handle_stats(s);
        return;
      case MsgType::kShutdown:
        decode_empty(f);
        enqueue(s, MsgType::kShutdownAck, empty_frame(MsgType::kShutdownAck));
        drain_requested_.store(true, std::memory_order_release);
        return;
      default:
        // Structurally valid but server-bound only (HELLO_ACK, RESULT...):
        // a client has no business sending these.
        fail_session(s, ErrorCode::kBadConfig,
                     std::string("unexpected ") + msg_type_name(f.type) +
                         " from a client",
                     /*count_protocol_error=*/true);
        return;
    }
  } catch (const api::TypedError& e) {
    // Payload decode failure: session-fatal (the stream cannot be trusted
    // to be framed correctly past a lying payload).
    fail_session(s, e.code(), e.what(), /*count_protocol_error=*/true);
  }
}

void Server::handle_submit(Session& s, const Frame& f) {
  const SubmitMsg m = decode_submit(f);  // throws -> session-fatal in caller
  if (m.tag == 0) {
    fail_session(s, ErrorCode::kBadConfig,
                 "SUBMIT tag 0 is reserved for session-scoped messages",
                 /*count_protocol_error=*/true);
    return;
  }
  if (s.has_tag(m.tag)) {
    // A duplicate live tag would make the multiplex ambiguous for every
    // later frame; that is a client bug, and session-fatal.
    fail_session(s, ErrorCode::kBadConfig,
                 "duplicate in-flight tag " + std::to_string(m.tag),
                 /*count_protocol_error=*/true);
    return;
  }
  const auto refuse = [&](ErrorCode code, const std::string& why) {
    ++s.counters().errors;
    enqueue(s, MsgType::kError, frame_of(MsgType::kError, ErrorMsg{m.tag, code, why}));
  };
  if (draining_) {
    refuse(ErrorCode::kCapacity, "server is draining; not accepting new work");
    return;
  }
  if (s.live_jobs() >= cfg_.max_jobs_per_session) {
    refuse(ErrorCode::kCapacity,
           "session job limit reached (" +
               std::to_string(cfg_.max_jobs_per_session) + " in flight)");
    return;
  }

  // The trust boundary in action: the raw spec string meets the hardened
  // registry parser (length cap, control bytes, duplicate keys, typed
  // errors) before anything else happens with it.
  std::unique_ptr<api::Workload> workload;
  try {
    workload = api::WorkloadRegistry::global().create(m.spec);
  } catch (const api::TypedError& e) {
    refuse(e.code(), e.what());
    return;
  } catch (const redmule::Error& e) {
    refuse(ErrorCode::kBadConfig, e.what());
    return;
  }

  api::SubmitOptions opts;
  opts.priority = m.priority;
  opts.group = s.id();
  if (m.max_sim_cycles != 0 || m.max_wall_ms != 0)
    opts.deadline = api::Deadline{m.max_sim_cycles, m.max_wall_ms};
  const uint64_t session_id = s.id();
  const uint64_t tag = m.tag;
  opts.on_complete = [this, session_id, tag](const api::WorkloadResult& r) {
    // Worker thread: package the outcome, hand it to the loop, wake it.
    Completion c{session_id, tag, r.error.code, r.error.message, result_of(r)};
    {
      std::lock_guard<std::mutex> l(completions_m_);
      completions_.push_back(std::move(c));
    }
    const uint8_t b = kWakeCompletion;
    (void)!::write(wake_write_fd_, &b, 1);
  };

  api::JobHandle handle = service_->submit(std::move(workload), opts);
  if (handle.id() == 0) {
    // Refused before queueing (capacity admission, full queue, shed at
    // submit): the future is already fulfilled, on this thread, and no
    // callback will ever run. Relay the verdict directly.
    const api::WorkloadResult r = handle.get();
    refuse(r.error.code, r.error.message);
    return;
  }
  ++s.counters().submitted;
  ProgressMsg progress{tag, handle.id(), ProgressState::kQueued};
  Session::LiveJob job;
  job.job_id = handle.id();
  job.handle = std::move(handle);
  s.add_job(tag, std::move(job));
  enqueue(s, MsgType::kProgress, frame_of(MsgType::kProgress, progress));
}

void Server::handle_stats(Session& s) {
  const api::ServiceStats svc = service_->stats();
  StatsReplyMsg m;
  m.submitted = svc.submitted;
  m.completed = svc.completed;
  m.failed = svc.failed;
  m.cancelled = svc.cancelled;
  m.rejected = svc.rejected;
  m.shed = svc.shed;
  m.retries = svc.retries;
  m.sim_cycles = svc.sim_cycles;
  m.macs = svc.macs;
  m.queued_now = service_->queued();
  m.active_now = service_->active();
  {
    std::lock_guard<std::mutex> l(stats_m_);
    m.sessions_now = stats_.sessions_now;
    m.sessions_total = stats_.sessions_total;
    m.protocol_errors = stats_.protocol_errors;
    m.overload_disconnects = stats_.overload_disconnects;
    m.draining = draining_ ? 1 : 0;
  }
  const SessionCounters& c = s.counters();
  m.session_submitted = c.submitted;
  m.session_completed = c.completed;
  m.session_errors = c.errors;
  m.session_progress_shed = c.progress_shed;
  m.session_jobs_live = s.live_jobs();
  enqueue(s, MsgType::kStatsReply, frame_of(MsgType::kStatsReply, m));
}

void Server::deliver_completions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> l(completions_m_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    const auto it = sessions_.find(c.session_id);
    if (it == sessions_.end()) continue;  // client vanished; job was cancelled
    deliver_terminal(*it->second, c.tag, c);
  }
}

void Server::deliver_terminal(Session& s, uint64_t tag, const Completion& c) {
  Session::LiveJob* job = s.find_job(tag);
  if (job == nullptr) return;  // already terminal (callback/sweep race)
  const uint64_t job_id = job->job_id;
  s.finish_job(tag);
  if (c.code == ErrorCode::kNone) {
    ResultMsg m = c.result;
    m.tag = tag;
    m.job_id = job_id;
    ++s.counters().completed;
    enqueue(s, MsgType::kResult, frame_of(MsgType::kResult, m));
  } else {
    ++s.counters().errors;
    enqueue(s, MsgType::kError,
            frame_of(MsgType::kError, ErrorMsg{tag, c.code, c.message}));
  }
}

void Server::sweep_ready_handles(Session& s) {
  for (const uint64_t tag : s.ready_tags()) {
    Session::LiveJob* job = s.find_job(tag);
    if (job == nullptr) continue;
    const api::WorkloadResult r = job->handle.get();
    deliver_terminal(s, tag,
                     {s.id(), tag, r.error.code, r.error.message, result_of(r)});
  }
}

void Server::fail_session(Session& s, ErrorCode code, const std::string& why,
                          bool count_protocol_error) {
  if (s.doomed()) return;
  if (count_protocol_error) {
    std::lock_guard<std::mutex> l(stats_m_);
    ++stats_.protocol_errors;
  }
  ++s.counters().errors;
  // Session-scoped ERROR (tag 0), queued ahead of the close. Queue-cap
  // overflow is ignored here: the frame is small and the session is ending
  // either way.
  std::vector<uint8_t> frame =
      frame_of(MsgType::kError, ErrorMsg{0, code, why});
  {
    std::lock_guard<std::mutex> l(stats_m_);
    ++stats_.frames_out;
  }
  (void)s.enqueue_frame(MsgType::kError, std::move(frame),
                        cfg_.max_write_queue_bytes + 1024);
  s.doom(now_ms() + static_cast<int64_t>(cfg_.doom_linger_ms));
}

bool Server::enqueue(Session& s, MsgType type,
                     std::vector<uint8_t> frame_bytes) {
  {
    std::lock_guard<std::mutex> l(stats_m_);
    ++stats_.frames_out;
  }
  if (s.enqueue_frame(type, std::move(frame_bytes),
                      cfg_.max_write_queue_bytes) == Session::Enqueue::kOk)
    return true;
  // Shedding PROGRESS was not enough: the reader is hopelessly behind.
  // Best-effort direct overload notice (its write queue is full, so this
  // goes straight at the socket), then the session ends.
  {
    std::lock_guard<std::mutex> l(stats_m_);
    ++stats_.overload_disconnects;
  }
  ++s.counters().errors;
  const auto err = frame_of(
      MsgType::kError,
      ErrorMsg{0, ErrorCode::kCapacity,
               "disconnected: write queue overflow (slow reader)"});
  (void)s.socket().write_some(err.data(), err.size());
  s.doom(now_ms() + static_cast<int64_t>(cfg_.doom_linger_ms));
  return false;
}

void Server::reap_session(uint64_t id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  // Everything this client ever submitted and has not yet received dies
  // with it: queued jobs dequeue, running jobs unwind at their next
  // checkpoint. The pooled clusters recover via reset-before-run.
  const size_t cancelled = service_->cancel_group(id);
  sessions_.erase(it);
  std::lock_guard<std::mutex> l(stats_m_);
  --stats_.sessions_now;
  stats_.jobs_cancelled_on_disconnect += cancelled;
}

}  // namespace redmule::serve
