#include "serve/client.hpp"

namespace redmule::serve {

using api::ErrorCode;
using api::TypedError;

Client::Client(const ClientConfig& cfg) {
  sock_ = Socket::connect_to(cfg.address);
  if (cfg.recv_timeout_ms != 0) sock_.set_recv_timeout_ms(cfg.recv_timeout_ms);
  const auto hello = frame_of(MsgType::kHello, HelloMsg{cfg.name});
  try {
    sock_.write_all(hello.data(), hello.size());
  } catch (const redmule::Error&) {
    // A server at session capacity writes its refusal and closes before
    // reading our HELLO; the write can die on EPIPE while the typed ERROR
    // sits in our receive buffer. Fall through and read it.
  }
  Frame f = read_frame();
  if (f.type == MsgType::kError) {
    // Version rejection or a server at session capacity: surface typed.
    const ErrorMsg e = decode_error(f);
    throw TypedError(e.code, "server refused the connection: " + e.message);
  }
  if (f.type != MsgType::kHelloAck)
    throw TypedError(ErrorCode::kBadConfig,
                     std::string("expected HELLO_ACK, got ") +
                         msg_type_name(f.type));
  hello_ = decode_hello_ack(f);
}

uint64_t Client::submit(const std::string& spec, int32_t priority,
                        uint64_t max_sim_cycles, uint64_t max_wall_ms) {
  SubmitMsg m;
  m.tag = next_tag_++;
  m.priority = priority;
  m.max_sim_cycles = max_sim_cycles;
  m.max_wall_ms = max_wall_ms;
  m.spec = spec;
  const auto bytes = frame_of(MsgType::kSubmit, m);
  sock_.write_all(bytes.data(), bytes.size());
  return m.tag;
}

Client::Outcome Client::wait(uint64_t tag) {
  for (;;) {
    const auto it = done_.find(tag);
    if (it != done_.end()) {
      Outcome out = std::move(it->second);
      done_.erase(it);
      return out;
    }
    Frame f = read_frame();
    dispatch(f);
  }
}

void Client::cancel(uint64_t tag) {
  const auto bytes = frame_of(MsgType::kCancel, CancelMsg{tag});
  sock_.write_all(bytes.data(), bytes.size());
}

StatsReplyMsg Client::stats() {
  const auto bytes = empty_frame(MsgType::kStats);
  sock_.write_all(bytes.data(), bytes.size());
  stats_pending_ = true;
  while (stats_pending_) {
    Frame f = read_frame();
    dispatch(f);
  }
  return last_stats_;
}

uint64_t Client::ping(uint64_t nonce) {
  const auto bytes = frame_of(MsgType::kPing, PingMsg{nonce});
  sock_.write_all(bytes.data(), bytes.size());
  pong_pending_ = true;
  while (pong_pending_) {
    Frame f = read_frame();
    dispatch(f);
  }
  return last_pong_nonce_;
}

void Client::shutdown_server() {
  const auto bytes = empty_frame(MsgType::kShutdown);
  sock_.write_all(bytes.data(), bytes.size());
  shutdown_acked_ = false;
  while (!shutdown_acked_) {
    Frame f = read_frame();
    dispatch(f);
  }
}

Frame Client::read_frame() {
  uint8_t hdr[4];
  if (!sock_.read_exact(hdr, sizeof(hdr)))
    throw redmule::Error("server closed the connection");
  const uint32_t len = static_cast<uint32_t>(hdr[0]) |
                       (static_cast<uint32_t>(hdr[1]) << 8) |
                       (static_cast<uint32_t>(hdr[2]) << 16) |
                       (static_cast<uint32_t>(hdr[3]) << 24);
  const uint32_t cap =
      hello_.max_frame_bytes != 0 ? hello_.max_frame_bytes : kDefaultMaxFrameBytes;
  // Validation is delegated to the same FrameBuffer the server uses, so both
  // peers enforce one malformation policy; the length pre-check only bounds
  // the blocking read.
  if (len > cap + kFrameHeaderBytes)
    throw TypedError(ErrorCode::kCapacity,
                     "oversized frame from server: " + std::to_string(len) +
                         " bytes");
  std::vector<uint8_t> body(len < 2 ? 2 : len);
  if (len != 0) sock_.read_exact(body.data(), len);  // throws on EOF mid-frame
  FrameBuffer fb(cap);
  fb.feed(hdr, sizeof(hdr));
  fb.feed(body.data(), len);
  auto f = fb.next();  // throws TypedError on any malformation
  if (!f)
    throw TypedError(ErrorCode::kBadConfig, "short frame from server");
  return std::move(*f);
}

bool Client::dispatch(Frame& f) {
  switch (f.type) {
    case MsgType::kResult: {
      const ResultMsg m = decode_result(f);
      Outcome out;
      out.result = m;
      done_[m.tag] = std::move(out);
      return true;
    }
    case MsgType::kError: {
      const ErrorMsg m = decode_error(f);
      if (m.tag == 0)
        // Session-scoped: the server is about to close this connection.
        throw TypedError(m.code, "session error from server: " + m.message);
      Outcome out;
      out.code = m.code;
      out.message = m.message;
      done_[m.tag] = std::move(out);
      return true;
    }
    case MsgType::kProgress: {
      (void)decode_progress(f);  // validates the payload
      ++progress_seen_;
      return true;
    }
    case MsgType::kPing: {
      // Server keepalive: echo the nonce back as PONG right away.
      const PingMsg m = decode_ping(f);
      const auto bytes = frame_of(MsgType::kPong, m);
      sock_.write_all(bytes.data(), bytes.size());
      return true;
    }
    case MsgType::kPong: {
      const PingMsg m = decode_ping(f);
      last_pong_nonce_ = m.nonce;
      pong_pending_ = false;
      return true;
    }
    case MsgType::kStatsReply: {
      last_stats_ = decode_stats_reply(f);
      stats_pending_ = false;
      return true;
    }
    case MsgType::kShutdownAck: {
      decode_empty(f);
      shutdown_acked_ = true;
      return true;
    }
    default:
      throw TypedError(ErrorCode::kBadConfig,
                       std::string("unexpected ") + msg_type_name(f.type) +
                           " from server");
  }
}

}  // namespace redmule::serve
