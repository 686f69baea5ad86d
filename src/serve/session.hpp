/// \file session.hpp
/// \brief Per-client connection state for serve::Server.
///
/// One Session per accepted connection, owned and touched exclusively by the
/// server's event-loop thread (no locks in here by design). A session holds
/// the hostile-input side (its FrameBuffer), the job multiplex (client tag ->
/// service job), and the slow-client defense: a bounded outgoing write queue
/// where PROGRESS frames are shed first and overflow beyond that dooms the
/// connection -- one stalled reader can never grow server memory without
/// bound or block the accept loop and other sessions (the socket is
/// non-blocking; the loop simply stops being writable-interested).
///
/// Lifecycle: accepted -> HELLO/HELLO_ACK -> live (SUBMIT/CANCEL/...) ->
/// doomed (protocol error, overload, idle timeout, drain) -> flushed+closed.
/// A doomed session stops reading immediately; its remaining write queue is
/// flushed best-effort until a short deadline, then the socket closes. The
/// server cancels the session's whole job group on teardown.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "api/service.hpp"
#include "serve/frame.hpp"
#include "serve/socket.hpp"

namespace redmule::serve {

/// Counters one session accumulates (surfaced in STATS_REPLY).
struct SessionCounters {
  uint64_t submitted = 0;      ///< SUBMITs admitted to the service
  uint64_t completed = 0;      ///< terminal RESULT frames sent
  uint64_t errors = 0;         ///< terminal + session ERROR frames sent
  uint64_t progress_shed = 0;  ///< PROGRESS frames dropped under write pressure
  uint64_t frames_in = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

class Session {
 public:
  /// Outcome of queueing one outgoing frame against the byte budget.
  enum class Enqueue : uint8_t {
    kOk,        ///< queued (possibly after shedding PROGRESS frames)
    kOverflow,  ///< would not fit even with every PROGRESS shed: overload
  };

  Session(uint64_t id, Socket sock, uint32_t max_frame_bytes)
      : id_(id), sock_(std::move(sock)), frames_(max_frame_bytes) {}

  uint64_t id() const { return id_; }
  Socket& socket() { return sock_; }
  FrameBuffer& frames() { return frames_; }
  SessionCounters& counters() { return counters_; }

  bool hello_done() const { return hello_done_; }
  void set_hello_done() { hello_done_ = true; }

  // --- Job multiplex (client tag -> service job) ---------------------------

  struct LiveJob {
    uint64_t job_id = 0;
    api::JobHandle handle;  ///< kept for no-callback completions (shed/cancel)
  };

  bool has_tag(uint64_t tag) const { return jobs_.count(tag) != 0; }
  size_t live_jobs() const { return jobs_.size(); }
  void add_job(uint64_t tag, LiveJob job) { jobs_.emplace(tag, std::move(job)); }
  /// Looks up a live job; nullptr when the tag is unknown or already done.
  LiveJob* find_job(uint64_t tag) {
    const auto it = jobs_.find(tag);
    return it == jobs_.end() ? nullptr : &it->second;
  }
  /// Marks a tag terminal (RESULT or ERROR sent): drops its entry so a late
  /// duplicate completion (callback vs handle-sweep race) is a no-op.
  void finish_job(uint64_t tag) { jobs_.erase(tag); }
  /// The tags whose futures are ready but whose completion callback never
  /// ran (dequeued cancels, shed victims): terminal frames must be
  /// synthesized from the future by the owner.
  std::vector<uint64_t> ready_tags() const {
    std::vector<uint64_t> out;
    for (const auto& [tag, job] : jobs_)
      if (job.handle.ready()) out.push_back(tag);
    return out;
  }

  // --- Bounded write queue (slow-client defense) ---------------------------

  /// Queues one encoded frame. When the queue would exceed \p max_bytes,
  /// not-yet-started PROGRESS frames are shed (oldest first) -- they are
  /// advisory, RESULT/ERROR are contractual. Returns kOverflow when the
  /// frame still does not fit: the caller must treat the session as a
  /// hopelessly slow reader and disconnect it with a typed overload error.
  Enqueue enqueue_frame(MsgType type, std::vector<uint8_t> bytes,
                        size_t max_bytes);
  bool wants_write() const { return !out_.empty(); }
  /// Non-blocking flush of the front of the queue. Returns false on a fatal
  /// socket error (peer gone).
  bool flush_writes();

  // --- Doom / timers -------------------------------------------------------

  bool doomed() const { return doomed_; }
  int64_t doom_deadline_ms() const { return doom_deadline_ms_; }
  /// Stops reading; the owner flushes remaining writes until \p deadline.
  void doom(int64_t deadline_ms) {
    doomed_ = true;
    doom_deadline_ms_ = deadline_ms;
  }

  int64_t last_recv_ms() const { return last_recv_ms_; }
  void note_recv(int64_t now_ms) {
    last_recv_ms_ = now_ms;
    ping_outstanding_ = false;
  }
  bool ping_outstanding() const { return ping_outstanding_; }
  void note_ping_sent() { ping_outstanding_ = true; }

 private:
  struct OutFrame {
    MsgType type;
    std::vector<uint8_t> bytes;
    size_t off = 0;  ///< bytes already written (a started frame is never shed)
  };

  uint64_t id_;
  Socket sock_;
  FrameBuffer frames_;
  bool hello_done_ = false;
  std::unordered_map<uint64_t, LiveJob> jobs_;
  std::deque<OutFrame> out_;
  size_t out_bytes_ = 0;
  bool doomed_ = false;
  int64_t doom_deadline_ms_ = 0;
  int64_t last_recv_ms_ = 0;
  bool ping_outstanding_ = false;
  SessionCounters counters_;
};

}  // namespace redmule::serve
