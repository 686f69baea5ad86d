// Wire-protocol contracts of serve::Frame and serve::FrameBuffer:
//
//  - ROUNDTRIP: every message struct encodes and decodes bit-identically,
//    including empty strings, maximum values, and non-ASCII spec bytes.
//  - STRICTNESS: a payload must decode to exactly its declared length --
//    truncated payloads and trailing bytes are typed kBadConfig, never a
//    partial decode.
//  - HOSTILE INPUT: the FrameBuffer validates the length field before
//    allocating, the version before the type, and throws typed errors for
//    every malformation class (short length, oversized, bad version,
//    unknown type) -- table-driven, one case per class.
//  - INCREMENTALITY: frames split across arbitrary feed() boundaries (down
//    to one byte at a time) reassemble identically.
//  - PINNED BYTES: one fixed instance of every payload message encodes to a
//    literal frame, so a field reordered on both the encode and the decode
//    side still fails (a roundtrip alone cannot see it).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "serve/frame.hpp"

using namespace redmule;
using namespace redmule::serve;
using api::ErrorCode;
using api::TypedError;

namespace {

Frame one_frame(const std::vector<uint8_t>& bytes,
                uint32_t cap = kDefaultMaxFrameBytes) {
  FrameBuffer fb(cap);
  fb.feed(bytes.data(), bytes.size());
  auto f = fb.next();
  EXPECT_TRUE(f.has_value());
  EXPECT_EQ(fb.buffered_bytes(), 0u);
  return std::move(*f);
}

ErrorCode thrown_code(const std::vector<uint8_t>& bytes,
                      uint32_t cap = kDefaultMaxFrameBytes) {
  FrameBuffer fb(cap);
  fb.feed(bytes.data(), bytes.size());
  try {
    (void)fb.next();
  } catch (const TypedError& e) {
    return e.code();
  }
  return ErrorCode::kNone;
}

template <typename Fn>
ErrorCode code_of(Fn&& fn) {
  try {
    fn();
  } catch (const TypedError& e) {
    return e.code();
  }
  return ErrorCode::kNone;
}

Frame frame_with_payload(MsgType type, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> bytes;
  encode_frame(bytes, type, payload);
  return one_frame(bytes);
}

}  // namespace

// --- Roundtrips --------------------------------------------------------------

TEST(ServeFrame, HelloRoundtrip) {
  const Frame f = one_frame(frame_of(MsgType::kHello, HelloMsg{"client-x"}));
  EXPECT_EQ(f.type, MsgType::kHello);
  EXPECT_EQ(decode_hello(f).client_name, "client-x");
}

TEST(ServeFrame, HelloAckRoundtrip) {
  HelloAckMsg m;
  m.session_id = 0xdeadbeefcafe1234ULL;
  m.max_frame_bytes = 1 << 20;
  m.max_spec_bytes = 4096;
  m.server_name = "srv";
  const HelloAckMsg d =
      decode_hello_ack(one_frame(frame_of(MsgType::kHelloAck, m)));
  EXPECT_EQ(d.session_id, m.session_id);
  EXPECT_EQ(d.max_frame_bytes, m.max_frame_bytes);
  EXPECT_EQ(d.max_spec_bytes, m.max_spec_bytes);
  EXPECT_EQ(d.server_name, m.server_name);
}

TEST(ServeFrame, SubmitRoundtripIncludingNegativePriority) {
  SubmitMsg m;
  m.tag = ~0ULL;
  m.priority = -17;
  m.max_sim_cycles = 123456789;
  m.max_wall_ms = 42;
  m.spec = "gemm:m=64,n=64,k=64,seed=7";
  const SubmitMsg d = decode_submit(one_frame(frame_of(MsgType::kSubmit, m)));
  EXPECT_EQ(d.tag, m.tag);
  EXPECT_EQ(d.priority, -17);
  EXPECT_EQ(d.max_sim_cycles, m.max_sim_cycles);
  EXPECT_EQ(d.max_wall_ms, m.max_wall_ms);
  EXPECT_EQ(d.spec, m.spec);
}

TEST(ServeFrame, ResultRoundtrip) {
  ResultMsg m;
  m.tag = 3;
  m.job_id = 99;
  m.cycles = 1;
  m.advance_cycles = 2;
  m.stall_cycles = 3;
  m.macs = 4;
  m.fma_ops = 5;
  m.z_hash = 0x0123456789abcdefULL;
  const ResultMsg d = decode_result(one_frame(frame_of(MsgType::kResult, m)));
  EXPECT_EQ(d.tag, m.tag);
  EXPECT_EQ(d.job_id, m.job_id);
  EXPECT_EQ(d.cycles, m.cycles);
  EXPECT_EQ(d.advance_cycles, m.advance_cycles);
  EXPECT_EQ(d.stall_cycles, m.stall_cycles);
  EXPECT_EQ(d.macs, m.macs);
  EXPECT_EQ(d.fma_ops, m.fma_ops);
  EXPECT_EQ(d.z_hash, m.z_hash);
}

TEST(ServeFrame, ErrorRoundtripEveryCode) {
  for (const ErrorCode code :
       {ErrorCode::kNone, ErrorCode::kBadConfig, ErrorCode::kCapacity,
        ErrorCode::kTimeout, ErrorCode::kEngineFault, ErrorCode::kCancelled}) {
    const ErrorMsg d = decode_error(
        one_frame(frame_of(MsgType::kError, ErrorMsg{7, code, "why"})));
    EXPECT_EQ(d.tag, 7u);
    EXPECT_EQ(d.code, code);
    EXPECT_EQ(d.message, "why");
  }
}

TEST(ServeFrame, SmallMessagesRoundtrip) {
  EXPECT_EQ(decode_cancel(one_frame(frame_of(MsgType::kCancel, CancelMsg{9}))).tag,
            9u);
  const ProgressMsg p = decode_progress(
      one_frame(frame_of(MsgType::kProgress, ProgressMsg{1, 2, ProgressState::kQueued})));
  EXPECT_EQ(p.tag, 1u);
  EXPECT_EQ(p.job_id, 2u);
  EXPECT_EQ(decode_ping(one_frame(frame_of(MsgType::kPing, PingMsg{0xabc}))).nonce,
            0xabcu);
  decode_empty(one_frame(empty_frame(MsgType::kStats)));
  decode_empty(one_frame(empty_frame(MsgType::kShutdownAck)));
}

TEST(ServeFrame, StatsReplyRoundtrip) {
  StatsReplyMsg m;
  uint64_t v = 1;
  m.submitted = v++; m.completed = v++; m.failed = v++; m.cancelled = v++;
  m.rejected = v++; m.shed = v++; m.retries = v++; m.sim_cycles = v++;
  m.macs = v++; m.queued_now = v++; m.active_now = v++; m.sessions_now = v++;
  m.sessions_total = v++; m.protocol_errors = v++;
  m.overload_disconnects = v++; m.draining = v++; m.session_submitted = v++;
  m.session_completed = v++; m.session_errors = v++;
  m.session_progress_shed = v++; m.session_jobs_live = v++;
  const StatsReplyMsg d =
      decode_stats_reply(one_frame(frame_of(MsgType::kStatsReply, m)));
  EXPECT_EQ(d.submitted, m.submitted);
  EXPECT_EQ(d.draining, m.draining);
  EXPECT_EQ(d.session_jobs_live, m.session_jobs_live);
  EXPECT_EQ(d.protocol_errors, m.protocol_errors);
}

// --- Strict decoding ---------------------------------------------------------

TEST(ServeFrame, TruncatedPayloadIsTyped) {
  Frame f = one_frame(frame_of(MsgType::kCancel, CancelMsg{9}));
  f.payload.pop_back();
  try {
    (void)decode_cancel(f);
    FAIL() << "truncated payload decoded";
  } catch (const TypedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadConfig);
  }
}

TEST(ServeFrame, TrailingBytesAreTyped) {
  Frame f = one_frame(frame_of(MsgType::kCancel, CancelMsg{9}));
  f.payload.push_back(0);
  try {
    (void)decode_cancel(f);
    FAIL() << "trailing bytes accepted";
  } catch (const TypedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadConfig);
  }
}

TEST(ServeFrame, LyingStringLengthIsTyped) {
  // A HELLO whose string claims more bytes than the payload holds.
  std::vector<uint8_t> payload = {10, 0, 0, 0, 'h', 'i'};  // len=10, 2 bytes
  std::vector<uint8_t> bytes;
  encode_frame(bytes, MsgType::kHello, payload);
  const Frame f = one_frame(bytes);
  try {
    (void)decode_hello(f);
    FAIL() << "lying string length decoded";
  } catch (const TypedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadConfig);
  }
}

// --- Hostile frames (table-driven) -------------------------------------------

namespace {

std::vector<uint8_t> raw_frame(uint32_t len, uint8_t version, uint8_t type,
                               size_t body_bytes) {
  std::vector<uint8_t> out = {static_cast<uint8_t>(len),
                              static_cast<uint8_t>(len >> 8),
                              static_cast<uint8_t>(len >> 16),
                              static_cast<uint8_t>(len >> 24), version, type};
  out.resize(out.size() + body_bytes, 0xab);
  return out;
}

}  // namespace

TEST(ServeFrame, MalformedFrameTable) {
  struct Case {
    const char* what;
    std::vector<uint8_t> bytes;
    ErrorCode want;
  };
  const uint32_t cap = 1024;
  const Case cases[] = {
      {"length 0 (no room for version+type)", raw_frame(0, 1, 1, 0),
       ErrorCode::kBadConfig},
      {"length 1", raw_frame(1, 1, 1, 0), ErrorCode::kBadConfig},
      {"oversized length field", raw_frame(cap + 3, 1, 1, 0),
       ErrorCode::kCapacity},
      {"absurd length field (4 GiB)", raw_frame(0xffffffffu, 1, 1, 0),
       ErrorCode::kCapacity},
      {"unknown version", raw_frame(2, 99, 1, 0), ErrorCode::kBadConfig},
      {"unknown type", raw_frame(2, 1, 200, 0), ErrorCode::kBadConfig},
      {"type 0", raw_frame(2, 1, 0, 0), ErrorCode::kBadConfig},
      // Version must be rejected before the type is even looked at.
      {"unknown version AND unknown type", raw_frame(2, 77, 222, 0),
       ErrorCode::kBadConfig},
  };
  for (const Case& c : cases)
    EXPECT_EQ(thrown_code(c.bytes, cap), c.want) << c.what;
}

TEST(ServeFrame, GarbageBytesThrowTyped) {
  // 64 bytes of pseudo-random garbage: whatever the length field decodes to,
  // the outcome must be a typed error or "need more bytes" -- never a crash.
  std::vector<uint8_t> garbage;
  uint32_t x = 0x12345678;
  for (int i = 0; i < 64; ++i) {
    x = x * 1664525 + 1013904223;
    garbage.push_back(static_cast<uint8_t>(x >> 24));
  }
  FrameBuffer fb(1024);
  fb.feed(garbage.data(), garbage.size());
  try {
    while (fb.next()) {
    }
    SUCCEED();  // interpreted as incomplete frames; fine
  } catch (const TypedError&) {
    SUCCEED();  // typed rejection; fine
  }
}

// --- Incremental reassembly --------------------------------------------------

TEST(ServeFrame, OneByteAtATimeReassembles) {
  SubmitMsg m;
  m.tag = 42;
  m.spec = "tiled:m=96,n=96,k=96,seed=13";
  const std::vector<uint8_t> bytes = frame_of(MsgType::kSubmit, m);
  FrameBuffer fb;
  for (size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_FALSE(fb.next().has_value()) << "frame complete early at " << i;
    fb.feed(&bytes[i], 1);
  }
  auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(decode_submit(*f).spec, m.spec);
}

TEST(ServeFrame, BackToBackFramesInOneFeed) {
  std::vector<uint8_t> stream = frame_of(MsgType::kCancel, CancelMsg{1});
  const auto second = frame_of(MsgType::kPing, PingMsg{2});
  stream.insert(stream.end(), second.begin(), second.end());
  FrameBuffer fb;
  fb.feed(stream.data(), stream.size());
  auto f1 = fb.next();
  auto f2 = fb.next();
  ASSERT_TRUE(f1 && f2);
  EXPECT_EQ(f1->type, MsgType::kCancel);
  EXPECT_EQ(f2->type, MsgType::kPing);
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_EQ(fb.buffered_bytes(), 0u);
}

TEST(ServeFrame, MaxFrameSizedPayloadIsAccepted) {
  // Exactly at the cap passes; the boundary case belongs to the accept side.
  const uint32_t cap = 256;
  std::vector<uint8_t> payload(cap - 2, 0x5a);
  // Build a HELLO whose string fills the payload exactly.
  HelloMsg m;
  m.client_name.assign(cap - 2 - 4, 'x');  // u32 length prefix + bytes
  const auto bytes = frame_of(MsgType::kHello, m);
  const Frame f = one_frame(bytes, cap);
  EXPECT_EQ(decode_hello(f).client_name.size(), m.client_name.size());
}

// --- Pinned wire bytes -------------------------------------------------------

namespace {

/// Space-separated lowercase hex, so a mismatch prints readably.
std::string hex(const std::vector<uint8_t>& bytes) {
  std::string s;
  char b[4];
  for (const uint8_t v : bytes) {
    std::snprintf(b, sizeof b, "%s%02x", s.empty() ? "" : " ", v);
    s += b;
  }
  return s;
}

}  // namespace

TEST(ServeFrame, WireBytesArePinned) {
  HelloAckMsg ack;
  ack.session_id = 0x0123456789abcdefULL;
  ack.max_frame_bytes = 65536;
  ack.max_spec_bytes = 4096;
  ack.server_name = "srv";
  SubmitMsg submit;
  submit.tag = 0x1122334455667788ULL;
  submit.priority = -2;
  submit.max_sim_cycles = 1000000;
  submit.max_wall_ms = 250;
  submit.spec = "gemm:m=8";
  ResultMsg result;
  result.tag = 7;
  result.job_id = 9;
  result.cycles = 8032;
  result.advance_cycles = 8000;
  result.stall_cycles = 32;
  result.macs = 4096;
  result.fma_ops = 4097;
  result.z_hash = 0xfedcba9876543210ULL;
  StatsReplyMsg stats;
  uint64_t v = 1;
  for (uint64_t* f :
       {&stats.submitted, &stats.completed, &stats.failed, &stats.cancelled,
        &stats.rejected, &stats.shed, &stats.retries, &stats.sim_cycles,
        &stats.macs, &stats.queued_now, &stats.active_now, &stats.sessions_now,
        &stats.sessions_total, &stats.protocol_errors,
        &stats.overload_disconnects, &stats.draining, &stats.session_submitted,
        &stats.session_completed, &stats.session_errors,
        &stats.session_progress_shed, &stats.session_jobs_live})
    *f = v++;

  const struct {
    const char* what;
    std::vector<uint8_t> bytes;
    const char* want;
  } cases[] = {
      {"HELLO", frame_of(MsgType::kHello, HelloMsg{"client-x"}),
       "0e 00 00 00 01 01"
       " 08 00 00 00 63 6c 69 65 6e 74 2d 78"},
      {"HELLO_ACK", frame_of(MsgType::kHelloAck, ack),
       "19 00 00 00 01 02"
       " ef cd ab 89 67 45 23 01 00 00 01 00 00 10 00 00"
       " 03 00 00 00 73 72 76"},
      {"SUBMIT", frame_of(MsgType::kSubmit, submit),
       "2a 00 00 00 01 03"
       " 88 77 66 55 44 33 22 11 fe ff ff ff 40 42 0f 00"
       " 00 00 00 00 fa 00 00 00 00 00 00 00 08 00 00 00"
       " 67 65 6d 6d 3a 6d 3d 38"},
      {"RESULT", frame_of(MsgType::kResult, result),
       "42 00 00 00 01 04"
       " 07 00 00 00 00 00 00 00 09 00 00 00 00 00 00 00"
       " 60 1f 00 00 00 00 00 00 40 1f 00 00 00 00 00 00"
       " 20 00 00 00 00 00 00 00 00 10 00 00 00 00 00 00"
       " 01 10 00 00 00 00 00 00 10 32 54 76 98 ba dc fe"},
      {"ERROR",
       frame_of(MsgType::kError, ErrorMsg{5, ErrorCode::kTimeout, "late"}),
       "13 00 00 00 01 05"
       " 05 00 00 00 00 00 00 00 03 04 00 00 00 6c 61 74"
       " 65"},
      {"CANCEL", frame_of(MsgType::kCancel, CancelMsg{0x0102030405060708ULL}),
       "0a 00 00 00 01 06"
       " 08 07 06 05 04 03 02 01"},
      {"PROGRESS",
       frame_of(MsgType::kProgress, ProgressMsg{3, 4, ProgressState::kRunning}),
       "13 00 00 00 01 07"
       " 03 00 00 00 00 00 00 00 04 00 00 00 00 00 00 00"
       " 01"},
      {"PING", frame_of(MsgType::kPing, PingMsg{0xa1b2c3d4e5f60718ULL}),
       "0a 00 00 00 01 08"
       " 18 07 f6 e5 d4 c3 b2 a1"},
      {"PONG", frame_of(MsgType::kPong, PingMsg{42}),
       "0a 00 00 00 01 09"
       " 2a 00 00 00 00 00 00 00"},
      {"STATS_REPLY", frame_of(MsgType::kStatsReply, stats),
       "aa 00 00 00 01 0b"
       " 01 00 00 00 00 00 00 00 02 00 00 00 00 00 00 00"
       " 03 00 00 00 00 00 00 00 04 00 00 00 00 00 00 00"
       " 05 00 00 00 00 00 00 00 06 00 00 00 00 00 00 00"
       " 07 00 00 00 00 00 00 00 08 00 00 00 00 00 00 00"
       " 09 00 00 00 00 00 00 00 0a 00 00 00 00 00 00 00"
       " 0b 00 00 00 00 00 00 00 0c 00 00 00 00 00 00 00"
       " 0d 00 00 00 00 00 00 00 0e 00 00 00 00 00 00 00"
       " 0f 00 00 00 00 00 00 00 10 00 00 00 00 00 00 00"
       " 11 00 00 00 00 00 00 00 12 00 00 00 00 00 00 00"
       " 13 00 00 00 00 00 00 00 14 00 00 00 00 00 00 00"
       " 15 00 00 00 00 00 00 00"},
      {"SHUTDOWN", empty_frame(MsgType::kShutdown),
       "02 00 00 00 01 0c"},
  };
  for (const auto& c : cases) EXPECT_EQ(hex(c.bytes), c.want) << c.what;
}

TEST(ServeFrame, OutOfRangeEnumBytesAreTyped) {
  // ERROR: tag 1, code byte 6 (one past kCancelled), empty message.
  const Frame err = frame_with_payload(
      MsgType::kError, {1, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0});
  EXPECT_EQ(code_of([&] { (void)decode_error(err); }), ErrorCode::kBadConfig);
  // PROGRESS: tag 1, job 2, state byte 2 (one past kRunning).
  const Frame progress = frame_with_payload(
      MsgType::kProgress, {1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2});
  EXPECT_EQ(code_of([&] { (void)decode_progress(progress); }),
            ErrorCode::kBadConfig);
}

TEST(ServeFrame, StringCapsAreTyped) {
  // The encoder refuses a string its peer would have to reject.
  const HelloMsg big{std::string(kMaxStringBytes + 1, 'x')};
  EXPECT_EQ(code_of([&] { (void)encode(big); }), ErrorCode::kCapacity);
  EXPECT_EQ(code_of([&] {
              (void)encode(HelloMsg{std::string(kMaxStringBytes, 'x')});
            }),
            ErrorCode::kNone);
  // A declared length one past the cap is rejected from its 4 length bytes,
  // before the (absent) string bytes are looked at.
  const uint32_t len = kMaxStringBytes + 1;
  const Frame hello = frame_with_payload(
      MsgType::kHello,
      {static_cast<uint8_t>(len), static_cast<uint8_t>(len >> 8),
       static_cast<uint8_t>(len >> 16), static_cast<uint8_t>(len >> 24)});
  EXPECT_EQ(code_of([&] { (void)decode_hello(hello); }), ErrorCode::kBadConfig);
}
