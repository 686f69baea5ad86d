#include "serve/frame.hpp"

#include <concepts>
#include <cstring>
#include <type_traits>

namespace redmule::serve {

namespace {

using api::ErrorCode;
using api::TypedError;

[[noreturn]] void malformed(const std::string& what) {
  throw TypedError(ErrorCode::kBadConfig, "malformed frame: " + what);
}

/// Little-endian payload appender: the encode side of every field list.
class Writer {
 public:
  template <class... F>
  void operator()(const F&... f) {
    (put(f), ...);
  }
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  template <std::integral T>
  void put(T v) {
    const auto u = static_cast<std::make_unsigned_t<T>>(v);
    for (size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<uint8_t>(u >> (8 * i)));
  }
  template <class T>
    requires std::is_enum_v<T>
  void put(T v) {
    put(static_cast<std::underlying_type_t<T>>(v));
  }
  void put(const std::string& s) {
    // Encoders enforce the same string cap the decoder does, so a server
    // can never emit a frame its own peer implementation must reject.
    if (s.size() > kMaxStringBytes)
      throw TypedError(ErrorCode::kCapacity,
                       "string exceeds the wire cap of " +
                           std::to_string(kMaxStringBytes) + " bytes");
    put(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader: the decode side of every
/// field list. Every read throws kBadConfig on overrun or on an enum byte
/// past its last value; expect_end() makes trailing bytes fatal.
class Reader {
 public:
  explicit Reader(const Frame& f) : data_(f.payload.data()), n_(f.payload.size()) {}

  template <class... F>
  void operator()(F&... f) {
    (get(f), ...);
  }
  void expect_end() const {
    if (pos_ != n_)
      malformed(std::to_string(n_ - pos_) + " trailing payload bytes");
  }

 private:
  template <std::integral T>
  void get(T& v) {
    need(sizeof(T));
    std::make_unsigned_t<T> u = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
      u |= static_cast<std::make_unsigned_t<T>>(data_[pos_++]) << (8 * i);
    v = static_cast<T>(u);
  }
  /// Named so the trust-boundary lint tracks a length read through it.
  uint32_t u32() {
    uint32_t v = 0;
    get(v);
    return v;
  }
  void get(ErrorCode& c) {
    uint8_t b = 0;
    get(b);
    if (b > static_cast<uint8_t>(ErrorCode::kCancelled))
      malformed("unknown error code " + std::to_string(b));
    c = static_cast<ErrorCode>(b);
  }
  void get(ProgressState& s) {
    uint8_t b = 0;
    get(b);
    if (b > static_cast<uint8_t>(ProgressState::kRunning))
      malformed("unknown progress state " + std::to_string(b));
    s = static_cast<ProgressState>(b);
  }
  void get(std::string& s) {
    const uint32_t len = u32();
    // Cap before need(): a hostile length must not even be compared against
    // the remaining bytes in a way that could allocate first.
    if (len > kMaxStringBytes)
      malformed("string length " + std::to_string(len) + " exceeds the cap of " +
                std::to_string(kMaxStringBytes));
    need(len);
    s.assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
  }
  void need(size_t k) const {
    if (n_ - pos_ < k) malformed("payload truncated");
  }

  const uint8_t* data_;
  size_t n_;
  size_t pos_ = 0;
};

// --- Field lists --------------------------------------------------------------
//
// Each payload's wire layout, in order, written once: the Writer walks it to
// encode, the Reader to decode. M is the message, const when encoding.

template <class M, class Msg>
concept Is = std::same_as<std::remove_const_t<M>, Msg>;

template <class IO, Is<HelloMsg> M>
void fields(IO& io, M& m) {
  io(m.client_name);
}

template <class IO, Is<HelloAckMsg> M>
void fields(IO& io, M& m) {
  io(m.session_id, m.max_frame_bytes, m.max_spec_bytes, m.server_name);
}

template <class IO, Is<SubmitMsg> M>
void fields(IO& io, M& m) {
  io(m.tag, m.priority, m.max_sim_cycles, m.max_wall_ms, m.spec);
}

template <class IO, Is<ResultMsg> M>
void fields(IO& io, M& m) {
  io(m.tag, m.job_id, m.cycles, m.advance_cycles, m.stall_cycles, m.macs,
     m.fma_ops, m.z_hash);
}

template <class IO, Is<ErrorMsg> M>
void fields(IO& io, M& m) {
  io(m.tag, m.code, m.message);
}

template <class IO, Is<CancelMsg> M>
void fields(IO& io, M& m) {
  io(m.tag);
}

template <class IO, Is<ProgressMsg> M>
void fields(IO& io, M& m) {
  io(m.tag, m.job_id, m.state);
}

template <class IO, Is<PingMsg> M>
void fields(IO& io, M& m) {
  io(m.nonce);
}

template <class IO, Is<StatsReplyMsg> M>
void fields(IO& io, M& m) {
  io(m.submitted, m.completed, m.failed, m.cancelled, m.rejected, m.shed,
     m.retries, m.sim_cycles, m.macs, m.queued_now, m.active_now,
     m.sessions_now, m.sessions_total, m.protocol_errors,
     m.overload_disconnects, m.draining, m.session_submitted,
     m.session_completed, m.session_errors, m.session_progress_shed,
     m.session_jobs_live);
}

template <class M>
std::vector<uint8_t> encode_fields(const M& m) {
  Writer w;
  fields(w, m);
  return w.take();
}

template <class M>
M decode_fields(const Frame& f) {
  Reader r(f);
  M m;
  fields(r, m);
  r.expect_end();
  return m;
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kHelloAck: return "HELLO_ACK";
    case MsgType::kSubmit: return "SUBMIT";
    case MsgType::kResult: return "RESULT";
    case MsgType::kError: return "ERROR";
    case MsgType::kCancel: return "CANCEL";
    case MsgType::kProgress: return "PROGRESS";
    case MsgType::kPing: return "PING";
    case MsgType::kPong: return "PONG";
    case MsgType::kStats: return "STATS";
    case MsgType::kStatsReply: return "STATS_REPLY";
    case MsgType::kShutdown: return "SHUTDOWN";
    case MsgType::kShutdownAck: return "SHUTDOWN_ACK";
  }
  return "UNKNOWN";
}

void encode_frame(std::vector<uint8_t>& out, MsgType type,
                  const std::vector<uint8_t>& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size()) + 2;
  out.reserve(out.size() + 4 + len);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(len >> (8 * i)));
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<uint8_t> empty_frame(MsgType type) {
  std::vector<uint8_t> out;
  encode_frame(out, type, {});
  return out;
}

std::vector<uint8_t> encode(const HelloMsg& m) { return encode_fields(m); }
std::vector<uint8_t> encode(const HelloAckMsg& m) { return encode_fields(m); }
std::vector<uint8_t> encode(const SubmitMsg& m) { return encode_fields(m); }
std::vector<uint8_t> encode(const ResultMsg& m) { return encode_fields(m); }
std::vector<uint8_t> encode(const ErrorMsg& m) { return encode_fields(m); }
std::vector<uint8_t> encode(const CancelMsg& m) { return encode_fields(m); }
std::vector<uint8_t> encode(const ProgressMsg& m) { return encode_fields(m); }
std::vector<uint8_t> encode(const PingMsg& m) { return encode_fields(m); }
std::vector<uint8_t> encode(const StatsReplyMsg& m) { return encode_fields(m); }

HelloMsg decode_hello(const Frame& f) { return decode_fields<HelloMsg>(f); }
HelloAckMsg decode_hello_ack(const Frame& f) { return decode_fields<HelloAckMsg>(f); }
SubmitMsg decode_submit(const Frame& f) { return decode_fields<SubmitMsg>(f); }
ResultMsg decode_result(const Frame& f) { return decode_fields<ResultMsg>(f); }
ErrorMsg decode_error(const Frame& f) { return decode_fields<ErrorMsg>(f); }
CancelMsg decode_cancel(const Frame& f) { return decode_fields<CancelMsg>(f); }
ProgressMsg decode_progress(const Frame& f) { return decode_fields<ProgressMsg>(f); }
PingMsg decode_ping(const Frame& f) { return decode_fields<PingMsg>(f); }
StatsReplyMsg decode_stats_reply(const Frame& f) {
  return decode_fields<StatsReplyMsg>(f);
}

void decode_empty(const Frame& f) {
  if (!f.payload.empty())
    malformed(msg_type_name(f.type) + std::string(" carries a payload"));
}

void FrameBuffer::feed(const uint8_t* data, size_t n) {
  // Compact the consumed prefix before growing, keeping the buffer bounded
  // by one maximal frame regardless of how the peer fragments its writes.
  if (pos_ != 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameBuffer::next() {
  const size_t avail = buf_.size() - pos_;
  if (avail < 4) return std::nullopt;
  uint32_t len = 0;
  std::memcpy(&len, buf_.data() + pos_, 4);  // buffer bytes are LE already
  // Validate the declared length BEFORE waiting for (or allocating) the
  // body: a hostile length field must be rejected from its first 4 bytes.
  if (len < 2)
    throw api::TypedError(api::ErrorCode::kBadConfig,
                          "malformed frame: declared length " +
                              std::to_string(len) +
                              " is too short for version+type");
  if (len > max_frame_bytes_)
    throw api::TypedError(api::ErrorCode::kCapacity,
                          "oversized frame: declared length " +
                              std::to_string(len) + " exceeds the cap of " +
                              std::to_string(max_frame_bytes_) + " bytes");
  if (avail < 4u + len) return std::nullopt;
  const uint8_t version = buf_[pos_ + 4];
  if (version != kProtocolVersion)
    throw api::TypedError(api::ErrorCode::kBadConfig,
                          "unsupported protocol version " +
                              std::to_string(version) + " (want " +
                              std::to_string(kProtocolVersion) + ")");
  Frame f;
  f.version = version;
  const uint8_t raw_type = buf_[pos_ + 5];
  if (raw_type < static_cast<uint8_t>(MsgType::kHello) ||
      raw_type > static_cast<uint8_t>(MsgType::kShutdownAck))
    throw api::TypedError(api::ErrorCode::kBadConfig,
                          "unknown message type " + std::to_string(raw_type));
  f.type = static_cast<MsgType>(raw_type);
  f.payload.assign(buf_.begin() + static_cast<ptrdiff_t>(pos_ + kFrameHeaderBytes),
                   buf_.begin() + static_cast<ptrdiff_t>(pos_ + 4 + len));
  pos_ += 4u + len;
  return f;
}

}  // namespace redmule::serve
