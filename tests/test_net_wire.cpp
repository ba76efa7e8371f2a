// SPDX-License-Identifier: MIT
//
// Wire-format robustness sweep (ISSUE 10 satellite S2), mirroring the
// deployment_io corruption sweep: EVERY single-byte corruption of a frame
// must surface as a typed Status, and every truncation as kNeedMore —
// never a crash, never a silent misdecode.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hostile_bytes.h"

namespace scec::net {
namespace {

std::string SampleFrame() {
  ShareMsg share;
  share.share_id = 7;
  share.rows = 3;
  share.cols = 4;
  share.values = {1.0, 2.0, 3.0,  4.0,  -1.5, 0.25,
                  0.0, 9.0, -2.0, 1e-9, 1e9,  42.0};
  return EncodeFrame(WireType::kShare, share.Encode());
}

TEST(NetWire, EncodeDecodeRoundtrip) {
  const std::string encoded = SampleFrame();
  DecodeResult result = DecodeFrame(encoded);
  ASSERT_EQ(result.progress, DecodeProgress::kFrame);
  EXPECT_EQ(result.consumed, encoded.size());
  EXPECT_EQ(result.frame.type, WireType::kShare);
  Result<ShareMsg> share = ShareMsg::Decode(result.frame.payload);
  ASSERT_TRUE(share.ok()) << share.status().message();
  EXPECT_EQ(share->share_id, 7u);
  EXPECT_EQ(share->rows, 3u);
  EXPECT_EQ(share->cols, 4u);
  EXPECT_EQ(share->values.size(), 12u);
  EXPECT_DOUBLE_EQ(share->values[10], 1e9);
}

TEST(NetWire, EveryByteFlipIsTypedError) {
  const std::string pristine = SampleFrame();
  for (size_t pos = 0; pos < pristine.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0xFF}, uint8_t{0x01}, uint8_t{0x80}}) {
      std::string corrupted = pristine;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ mask);
      DecodeResult result = DecodeFrame(corrupted);
      // A flipped length byte may claim a longer frame — then the buffer
      // looks truncated (kNeedMore), which is also safe. What must NEVER
      // happen is a successfully decoded frame from corrupt bytes.
      if (result.progress == DecodeProgress::kFrame) {
        FAIL() << "byte " << pos << " mask " << int(mask)
               << " produced a silent misdecode";
      }
      if (result.progress == DecodeProgress::kError) {
        EXPECT_FALSE(result.status.ok());
        EXPECT_EQ(result.status.code(), ErrorCode::kInvalidArgument)
            << "byte " << pos;
      }
    }
  }
}

TEST(NetWire, HeaderFlipsAreAlwaysErrorsNeverNeedMore) {
  // The header carries its own CRC precisely so that a corrupted LENGTH
  // field cannot stall the stream forever as kNeedMore: any header flip is
  // detected from the first 20 bytes alone.
  const std::string pristine = SampleFrame();
  for (size_t pos = 0; pos < kFrameHeaderSize; ++pos) {
    std::string corrupted = pristine;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x5A);
    DecodeResult result = DecodeFrame(corrupted);
    EXPECT_EQ(result.progress, DecodeProgress::kError)
        << "header byte " << pos << " not caught";
  }
}

TEST(NetWire, EveryTruncationIsNeedMore) {
  const std::string pristine = SampleFrame();
  for (size_t len = 0; len < pristine.size(); ++len) {
    DecodeResult result = DecodeFrame(std::string_view(pristine).substr(0, len));
    EXPECT_EQ(result.progress, DecodeProgress::kNeedMore)
        << "prefix of " << len << " bytes misreported";
  }
}

TEST(NetWire, OversizePayloadLengthRejected) {
  std::string frame = SampleFrame();
  // Splice an over-limit length in; header CRC catches it first, which is
  // fine — the point is a typed error, not an allocation attempt.
  const uint32_t huge = kMaxPayloadLen + 1;
  for (int i = 0; i < 4; ++i) frame[8 + i] = char((huge >> (8 * i)) & 0xFF);
  DecodeResult result = DecodeFrame(frame);
  EXPECT_EQ(result.progress, DecodeProgress::kError);
}

TEST(NetWire, MaxAdvertisedShareFitsPayloadLimit) {
  // Regression: the 64k×128 share the limit is documented to hold is 2^26
  // bytes of doubles PLUS body overhead — it must encode and frame without
  // tripping EncodeFrame's bound.
  ShareMsg share;
  share.share_id = 1;
  share.rows = 65536;
  share.cols = 128;
  share.values.assign(static_cast<size_t>(share.rows) * share.cols, 0.5);
  const std::string payload = share.Encode();
  ASSERT_LE(payload.size(), static_cast<size_t>(kMaxPayloadLen));
  const std::string frame = EncodeFrame(WireType::kShare, payload);
  DecodeResult result = DecodeFrame(frame);
  EXPECT_EQ(result.progress, DecodeProgress::kFrame);
  EXPECT_EQ(result.consumed, frame.size());
}

TEST(NetWire, TrailingBytesInBodyAreRejected) {
  QueryMsg query;
  query.rpc_id = 3;
  query.share_id = 9;
  query.x = {1.0, 2.0};
  std::string payload = query.Encode();
  payload.push_back('\0');
  Result<QueryMsg> decoded = QueryMsg::Decode(payload);
  EXPECT_FALSE(decoded.ok());
}

TEST(NetWire, AllMessageBodiesRoundtrip) {
  {
    HelloMsg msg{11, 22};
    auto back = HelloMsg::Decode(msg.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->coordinator_id, 11u);
    EXPECT_EQ(back->session_epoch, 22u);
  }
  {
    HelloAckMsg msg{5, 3};
    auto back = HelloAckMsg::Decode(msg.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->daemon_id, 5u);
    EXPECT_EQ(back->shares_held, 3u);
  }
  {
    ShareAckMsg msg;
    msg.share_id = 8;
    msg.ok = 0;
    msg.error = "refused";
    auto back = ShareAckMsg::Decode(msg.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->ok, 0);
    EXPECT_EQ(back->error, "refused");
  }
  {
    ResponseMsg msg;
    msg.rpc_id = 77;
    msg.values = {1.5, -2.5};
    auto back = ResponseMsg::Decode(msg.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->values.size(), 2u);
  }
  {
    RpcErrorMsg msg;
    msg.rpc_id = 4;
    msg.code = 2;
    msg.message = "boom";
    auto back = RpcErrorMsg::Decode(msg.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->message, "boom");
  }
  {
    HeartbeatMsg msg{1234};
    auto back = HeartbeatMsg::Decode(msg.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->seq, 1234u);
  }
  {
    CancelMsg msg{55};
    auto back = CancelMsg::Decode(msg.Encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->rpc_id, 55u);
  }
}

TEST(NetWire, FrameReaderReassemblesByteByByte) {
  const std::string one = SampleFrame();
  HeartbeatMsg hb{9};
  const std::string two = EncodeFrame(WireType::kHeartbeat, hb.Encode());
  const std::string stream = one + two;

  FrameReader reader;
  std::vector<Frame> frames;
  for (char byte : stream) {
    Status status = reader.Feed(std::string_view(&byte, 1), &frames);
    ASSERT_TRUE(status.ok()) << status.message();
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, WireType::kShare);
  EXPECT_EQ(frames[1].type, WireType::kHeartbeat);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(NetWire, FrameReaderPoisonsOnCorruption) {
  std::string corrupted = SampleFrame();
  corrupted[kFrameHeaderSize + 2] ^= 0x10;  // payload byte
  FrameReader reader;
  std::vector<Frame> frames;
  Status status = reader.Feed(corrupted, &frames);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(frames.empty());
  // Poisoned: even pristine bytes are rejected afterwards.
  Status after = reader.Feed(SampleFrame(), &frames);
  EXPECT_FALSE(after.ok());
  EXPECT_TRUE(frames.empty());
}

TEST(NetWire, UnknownTypeAndBadVersionRejected) {
  std::string frame = EncodeFrame(WireType::kHello, HelloMsg{1, 1}.Encode());
  {
    std::string bad = frame;
    bad[4] = char(kWireVersion + 1);  // version — header CRC now stale too
    EXPECT_EQ(DecodeFrame(bad).progress, DecodeProgress::kError);
  }
  {
    std::string bad = frame;
    bad[5] = char(200);  // unknown type
    EXPECT_EQ(DecodeFrame(bad).progress, DecodeProgress::kError);
  }
}

// A CRC-valid frame whose body claims 2^26 - 1 doubles in 20 bytes is a
// truncated body: every vector-carrying message rejects it with a typed
// Status (the reader checks the count against the bytes left before it
// allocates; test_serde pins the allocation bound itself).
TEST(NetWire, HugeVectorCountInCrcValidFrameIsRejected) {
  const std::string huge_count("\xFF\xFF\xFF\x03", 4);  // 2^26 - 1
  const std::string query_body = std::string(16, '\x01') + huge_count;
  const std::string response_body = std::string(8, '\x01') + huge_count;
  const std::string share_body =
      std::string(8, '\x01') + std::string("\x00\x20\x00\x00", 4) +
      std::string("\xFF\x07\x00\x00", 4) + huge_count;  // 8192 x 2047
  ASSERT_EQ(query_body.size(), 20u);

  FrameReader reader;
  std::vector<Frame> frames;
  ASSERT_TRUE(reader.Feed(EncodeFrame(WireType::kQuery, query_body), &frames)
                  .ok());
  ASSERT_TRUE(
      reader.Feed(EncodeFrame(WireType::kResponse, response_body), &frames)
          .ok());
  ASSERT_TRUE(reader.Feed(EncodeFrame(WireType::kShare, share_body), &frames)
                  .ok());
  ASSERT_EQ(frames.size(), 3u);
  const Result<QueryMsg> query = QueryMsg::Decode(frames[0].payload);
  const Result<ResponseMsg> response = ResponseMsg::Decode(frames[1].payload);
  const Result<ShareMsg> share = ShareMsg::Decode(frames[2].payload);
  EXPECT_EQ(query.status().code(), ErrorCode::kDecodeFailure);
  EXPECT_EQ(response.status().code(), ErrorCode::kDecodeFailure);
  EXPECT_EQ(share.status().code(), ErrorCode::kDecodeFailure);
}

template <typename Msg>
Result<std::string> DecodeAndReencode(std::string_view payload) {
  Result<Msg> decoded = Msg::Decode(payload);
  if (!decoded.ok()) return decoded.status();
  return decoded->Encode();
}

struct HostileBodyCase {
  const char* name;
  WireType type;
  std::string body;
  std::vector<size_t> count_offsets;  // u32 length prefixes in `body`
  Result<std::string> (*reencode)(std::string_view);
};

std::vector<HostileBodyCase> HostileBodyCases() {
  ShareMsg share;
  share.share_id = 4;
  share.rows = 2;
  share.cols = 3;
  share.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  ShareAckMsg share_ack;
  share_ack.share_id = 4;
  share_ack.ok = 0;
  share_ack.error = "share store full";
  QueryMsg query;
  query.rpc_id = 7;
  query.share_id = 4;
  query.x = {0.5, -0.5, 0.25};
  ResponseMsg response;
  response.rpc_id = 7;
  response.values = {1.0, -1.0};
  RpcErrorMsg rpc_error;
  rpc_error.rpc_id = 7;
  rpc_error.code = 3;
  rpc_error.message = "unknown share";
  return {
      {"hello", WireType::kHello, HelloMsg{1, 2}.Encode(), {},
       DecodeAndReencode<HelloMsg>},
      {"hello_ack", WireType::kHelloAck, HelloAckMsg{3, 4}.Encode(), {},
       DecodeAndReencode<HelloAckMsg>},
      {"share", WireType::kShare, share.Encode(), {16},
       DecodeAndReencode<ShareMsg>},
      {"share_ack", WireType::kShareAck, share_ack.Encode(), {9},
       DecodeAndReencode<ShareAckMsg>},
      {"query", WireType::kQuery, query.Encode(), {16},
       DecodeAndReencode<QueryMsg>},
      {"response", WireType::kResponse, response.Encode(), {8},
       DecodeAndReencode<ResponseMsg>},
      {"rpc_error", WireType::kRpcError, rpc_error.Encode(), {9},
       DecodeAndReencode<RpcErrorMsg>},
      {"heartbeat", WireType::kHeartbeat, HeartbeatMsg{5}.Encode(), {},
       DecodeAndReencode<HeartbeatMsg>},
      {"cancel", WireType::kCancel, CancelMsg{6}.Encode(), {},
       DecodeAndReencode<CancelMsg>},
  };
}

// Hostile bodies behind a valid CRC reach the body decoder. Each decode
// returns a typed Status; a body that is accepted is exactly the encoding
// of what was decoded (no bytes skipped, none invented). Every body ends in
// its only length-prefixed field, so every changed count is rejected, as
// are truncations and trailing bytes.
TEST(NetWire, HostileBodiesBehindValidCrcFailTyped) {
  uint64_t seed = 0x5EED0001ull;
  for (const HostileBodyCase& c : HostileBodyCases()) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.reencode(c.body).ok());
    size_t rejected = 0;
    for (const auto& variant :
         testutil::HostileVariants(c.body, c.count_offsets, seed++)) {
      FrameReader reader;
      std::vector<Frame> frames;
      ASSERT_TRUE(reader.Feed(EncodeFrame(c.type, variant.bytes), &frames)
                      .ok());
      ASSERT_EQ(frames.size(), 1u);
      ASSERT_EQ(frames[0].payload, variant.bytes);
      const Result<std::string> back = c.reencode(frames[0].payload);
      if (back.ok()) {
        EXPECT_EQ(variant.mutation, testutil::Mutation::kRandom);
        EXPECT_EQ(*back, variant.bytes);
      } else {
        ++rejected;
        EXPECT_TRUE(back.status().code() == ErrorCode::kDecodeFailure ||
                    back.status().code() == ErrorCode::kInvalidArgument)
            << back.status();
      }
    }
    EXPECT_GT(rejected, c.body.size());  // at least every truncation
  }
}

}  // namespace
}  // namespace scec::net
