/// \file frame.hpp
/// \brief The wire protocol of the remote serving front-end.
///
/// Everything between a client and serve::Server travels as length-prefixed
/// frames over a byte stream (TCP or unix socket):
///
///   offset  size  field
///   0       4     payload length N, little-endian (version byte onward)
///   4       1     protocol version (kProtocolVersion)
///   5       1     message type (MsgType)
///   6       N-2   message payload (little-endian fields, see structs below)
///
/// A payload is its message's fields back to back: integers (and enums, as
/// their one-byte underlying type) as little-endian bytes of their own
/// width, strings as a u32 length plus the bytes. frame.cpp lists each message's fields once, in wire order (the
/// structs below declare them in the same order); encode and decode both
/// walk that list, so a new field is added in one place and the two
/// directions cannot disagree.
///
/// TRUST BOUNDARY. The decoder assumes the peer is hostile: every length is
/// bounds-checked against an explicit byte budget before any allocation, a
/// frame's payload must decode to exactly its declared length (trailing bytes
/// are a protocol error, not padding), and strings are length-prefixed with
/// their own caps -- there is no path on which malformed input does anything
/// but throw api::TypedError{kBadConfig} (or kCapacity for an oversized
/// frame). The server maps that throw onto one typed ERROR frame followed by
/// connection close; it never crashes, hangs, or echoes unvalidated bytes.
///
/// Message flow (C = client, S = server):
///
///   C->S HELLO{client_name}           first frame on every connection
///   S->C HELLO_ACK{session_id, caps}  or ERROR + close (version mismatch)
///   C->S SUBMIT{tag, priority, deadline, spec}   tag: client-chosen, unique
///                                                among the session's live jobs
///   S->C PROGRESS{tag, job_id, state} admission ack (queued), shed first
///                                     under write-queue pressure
///   S->C RESULT{tag, job_id, stats, z_hash}      terminal, exactly one of
///   S->C ERROR{tag, code, message}               RESULT/ERROR per admitted tag
///   C->S CANCEL{tag}                  terminal frame still arrives (ERROR
///                                     kCancelled, or RESULT if it won the race)
///   C->S PING{nonce} / S->C PONG{nonce}  both directions; keepalive + health
///   C->S STATS{} -> S->C STATS_REPLY{service + server + session counters}
///   C->S SHUTDOWN{} -> S->C SHUTDOWN_ACK{}       begins graceful drain
///
/// ERROR frames with tag 0 are session-scoped (protocol violation, overload
/// disconnect); with a nonzero tag they are the terminal outcome of that
/// submission. Unknown message types and versions are session-fatal.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "api/workload.hpp"

namespace redmule::serve {

inline constexpr uint8_t kProtocolVersion = 1;
/// Frame header: u32 length + u8 version + u8 type.
inline constexpr size_t kFrameHeaderBytes = 6;
/// Default ceiling on one frame's payload (version byte onward). Generous
/// for every real message (the largest is a SUBMIT carrying a spec string,
/// capped separately at api::kMaxSpecBytes) while bounding what one hostile
/// or broken client can make the server buffer.
inline constexpr uint32_t kDefaultMaxFrameBytes = 64 * 1024;
/// Cap on any length-prefixed string inside a payload.
inline constexpr uint32_t kMaxStringBytes = 8 * 1024;

enum class MsgType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kSubmit = 3,
  kResult = 4,
  kError = 5,
  kCancel = 6,
  kProgress = 7,
  kPing = 8,
  kPong = 9,
  kStats = 10,
  kStatsReply = 11,
  kShutdown = 12,
  kShutdownAck = 13,
};

const char* msg_type_name(MsgType t);

/// One decoded frame: validated header + raw payload bytes.
struct Frame {
  uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kHello;
  std::vector<uint8_t> payload;
};

// --- Message structs --------------------------------------------------------

struct HelloMsg {
  std::string client_name;
};

struct HelloAckMsg {
  uint64_t session_id = 0;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  uint32_t max_spec_bytes = static_cast<uint32_t>(api::kMaxSpecBytes);
  std::string server_name;
};

struct SubmitMsg {
  uint64_t tag = 0;       ///< client-chosen; unique among the session's live jobs
  int32_t priority = 0;
  uint64_t max_sim_cycles = 0;  ///< 0 = no simulated-cycle deadline
  uint64_t max_wall_ms = 0;     ///< 0 = no wall-clock deadline
  std::string spec;             ///< WorkloadRegistry spec string
};

struct ResultMsg {
  uint64_t tag = 0;
  uint64_t job_id = 0;
  uint64_t cycles = 0;
  uint64_t advance_cycles = 0;
  uint64_t stall_cycles = 0;
  uint64_t macs = 0;
  uint64_t fma_ops = 0;
  uint64_t z_hash = 0;
};

struct ErrorMsg {
  uint64_t tag = 0;  ///< 0 = session-scoped, else the failed submission
  api::ErrorCode code = api::ErrorCode::kNone;
  std::string message;
};

struct CancelMsg {
  uint64_t tag = 0;
};

enum class ProgressState : uint8_t {
  kQueued = 0,   ///< admitted to the service queue
  kRunning = 1,  ///< reserved (the service has no start notification yet)
};

struct ProgressMsg {
  uint64_t tag = 0;
  uint64_t job_id = 0;
  ProgressState state = ProgressState::kQueued;
};

struct PingMsg {
  uint64_t nonce = 0;
};

/// STATS_REPLY: the service's aggregate counters, the server's own, and the
/// asking session's. Fixed field set so the frame is versioned with the
/// protocol rather than open-coded.
struct StatsReplyMsg {
  // api::ServiceStats snapshot.
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t retries = 0;
  uint64_t sim_cycles = 0;
  uint64_t macs = 0;
  // Instantaneous service state.
  uint64_t queued_now = 0;
  uint64_t active_now = 0;
  // Server-wide counters.
  uint64_t sessions_now = 0;
  uint64_t sessions_total = 0;
  uint64_t protocol_errors = 0;
  uint64_t overload_disconnects = 0;
  uint64_t draining = 0;  ///< 1 when a graceful drain is in progress
  // The asking session's counters.
  uint64_t session_submitted = 0;
  uint64_t session_completed = 0;
  uint64_t session_errors = 0;
  uint64_t session_progress_shed = 0;
  uint64_t session_jobs_live = 0;
};

// --- Encoding ---------------------------------------------------------------

/// Appends one whole frame (header + payload) for \p type to \p out.
void encode_frame(std::vector<uint8_t>& out, MsgType type,
                  const std::vector<uint8_t>& payload);

std::vector<uint8_t> encode(const HelloMsg& m);
std::vector<uint8_t> encode(const HelloAckMsg& m);
std::vector<uint8_t> encode(const SubmitMsg& m);
std::vector<uint8_t> encode(const ResultMsg& m);
std::vector<uint8_t> encode(const ErrorMsg& m);
std::vector<uint8_t> encode(const CancelMsg& m);
std::vector<uint8_t> encode(const ProgressMsg& m);
std::vector<uint8_t> encode(const PingMsg& m);
std::vector<uint8_t> encode(const StatsReplyMsg& m);

/// Convenience: encode message + wrap in a frame in one go.
template <typename Msg>
std::vector<uint8_t> frame_of(MsgType type, const Msg& m) {
  std::vector<uint8_t> out;
  encode_frame(out, type, encode(m));
  return out;
}
std::vector<uint8_t> empty_frame(MsgType type);

// --- Decoding ---------------------------------------------------------------

/// All decoders throw api::TypedError{kBadConfig} on any malformation:
/// short payload, overlong string, trailing bytes.
HelloMsg decode_hello(const Frame& f);
HelloAckMsg decode_hello_ack(const Frame& f);
SubmitMsg decode_submit(const Frame& f);
ResultMsg decode_result(const Frame& f);
ErrorMsg decode_error(const Frame& f);
CancelMsg decode_cancel(const Frame& f);
ProgressMsg decode_progress(const Frame& f);
PingMsg decode_ping(const Frame& f);
StatsReplyMsg decode_stats_reply(const Frame& f);
/// STATS / SHUTDOWN / *_ACK carry no payload; enforce that.
void decode_empty(const Frame& f);

/// Incremental frame scanner over a hostile byte stream. feed() appends raw
/// socket bytes; next() yields complete frames one at a time.
///
/// Malformation policy (all thrown as api::TypedError, session-fatal):
///  - declared payload length < 2 (no room for version+type) -> kBadConfig;
///  - declared payload length > max_frame_bytes -> kCapacity (oversized);
///  - version != kProtocolVersion -> kBadConfig, *checked before the type*
///    so future protocol revisions fail cleanly;
///  - buffered bytes beyond max_frame_bytes + header without a complete
///    frame -> kCapacity (cannot happen when the length checks pass; kept as
///    a belt-and-braces bound on buffer growth).
/// A truncated frame (EOF mid-frame) is detected by the owner via
/// buffered_bytes() != 0 at connection close.
class FrameBuffer {
 public:
  explicit FrameBuffer(uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const uint8_t* data, size_t n);
  /// One complete validated frame, or nullopt when more bytes are needed.
  std::optional<Frame> next();
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  uint32_t max_frame_bytes_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  ///< consumed prefix; compacted between feeds
};

}  // namespace redmule::serve
