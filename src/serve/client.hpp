/// \file client.hpp
/// \brief Blocking client for the serve::Server wire protocol.
///
/// serve::Client is the reference peer implementation: it speaks the framed
/// protocol synchronously (connect + HELLO in the constructor, then
/// submit/wait/cancel/stats/ping as plain blocking calls) while correctly
/// handling the asynchrony the server is allowed: RESULT/ERROR frames for
/// different tags may interleave arbitrarily, PROGRESS may appear (or be
/// shed) at any time, and the server may PING at will. Any frame that is not
/// the one a call is waiting for is dispatched internally -- terminal
/// outcomes are parked per tag for a later wait(), server PINGs are answered
/// immediately -- so callers can submit N jobs and collect them in any order.
///
/// Failure surface: a session-scoped ERROR (tag 0 -- protocol violation,
/// overload disconnect, draining refusals are per-tag) throws
/// api::TypedError with the server's code; a dead/vanished server throws
/// redmule::Error (or redmule::TimeoutError when a receive timeout is set).
/// The client never blocks forever when configured with recv_timeout_ms.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "serve/frame.hpp"
#include "serve/socket.hpp"

namespace redmule::serve {

struct ClientConfig {
  std::string address;               ///< "unix:/path" or "tcp:host:port"
  std::string name = "redmule-client";
  /// Blocking-read timeout; a silent server surfaces as TimeoutError
  /// instead of a hang. 0 = wait forever.
  uint64_t recv_timeout_ms = 0;
};

class Client {
 public:
  /// Connects and completes the HELLO/HELLO_ACK handshake. Throws on
  /// connection failure, version rejection, or a server at capacity.
  explicit Client(const ClientConfig& cfg);

  uint64_t session_id() const { return hello_.session_id; }
  const HelloAckMsg& hello() const { return hello_; }

  /// Terminal outcome of one submission: exactly one per admitted tag.
  struct Outcome {
    api::ErrorCode code = api::ErrorCode::kNone;
    std::string message;  ///< error detail when code != kNone
    ResultMsg result;     ///< valid when code == kNone
    bool ok() const { return code == api::ErrorCode::kNone; }
  };

  /// Sends a SUBMIT and returns its tag immediately (no round trip); collect
  /// the outcome later with wait(). Tags are client-generated and unique for
  /// the connection's lifetime.
  uint64_t submit(const std::string& spec, int32_t priority = 0,
                  uint64_t max_sim_cycles = 0, uint64_t max_wall_ms = 0);

  /// Blocks until \p tag is terminal, dispatching every interleaved frame on
  /// the way. One-shot per tag (the outcome is moved out).
  Outcome wait(uint64_t tag);
  /// Submit + wait in one call, for the common synchronous case.
  Outcome run(const std::string& spec, int32_t priority = 0,
              uint64_t max_sim_cycles = 0, uint64_t max_wall_ms = 0) {
    return wait(submit(spec, priority, max_sim_cycles, max_wall_ms));
  }

  /// Fire-and-forget: the terminal frame (ERROR kCancelled, or RESULT if the
  /// job won the race) still arrives and is collected by wait(tag).
  void cancel(uint64_t tag);

  /// Round trip: STATS -> STATS_REPLY.
  StatsReplyMsg stats();
  /// Round trip: PING -> matching PONG. Returns the echoed nonce.
  uint64_t ping(uint64_t nonce);
  /// Asks the server to begin a graceful drain; returns after SHUTDOWN_ACK.
  void shutdown_server();

  /// PROGRESS frames observed so far (advisory; the server may shed them).
  uint64_t progress_seen() const { return progress_seen_; }

 private:
  /// Blocks for one validated frame. Throws redmule::Error on EOF,
  /// TimeoutError on receive timeout, TypedError on malformed bytes.
  Frame read_frame();
  /// Routes one frame: terminal outcomes parked by tag, server PINGs
  /// answered, session-scoped ERRORs thrown. Returns true when the frame
  /// was consumed internally (caller should keep reading).
  bool dispatch(Frame& f);

  Socket sock_;
  HelloAckMsg hello_;
  uint64_t next_tag_ = 1;
  std::map<uint64_t, Outcome> done_;       ///< parked terminal outcomes
  uint64_t progress_seen_ = 0;
  uint64_t last_pong_nonce_ = 0;
  bool pong_pending_ = false;
  StatsReplyMsg last_stats_;
  bool stats_pending_ = false;
  bool shutdown_acked_ = false;
};

}  // namespace redmule::serve
