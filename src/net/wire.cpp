// SPDX-License-Identifier: MIT

#include "net/wire.h"

#include <cstring>

#include "common/check.h"
#include "common/serde.h"
#include "recovery/crc32.h"

namespace scec::net {
namespace {

constexpr char kMagic[4] = {'S', 'N', 'E', 'T'};

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

Status ProtocolError(std::string msg) {
  return Status(ErrorCode::kInvalidArgument, std::move(msg));
}

// Decodes a payload body straight from the payload view and verifies it was
// consumed exactly (trailing garbage is corruption, not padding).
template <typename Fn>
Status DecodeBody(std::string_view payload, Fn&& fn) {
  BinaryReader reader(payload);
  SCEC_RETURN_IF_ERROR(fn(reader));
  if (reader.remaining() != 0) {
    return ProtocolError("trailing bytes after message body");
  }
  return Status::Ok();
}

}  // namespace

const char* WireTypeName(WireType type) {
  switch (type) {
    case WireType::kHello: return "HELLO";
    case WireType::kHelloAck: return "HELLO_ACK";
    case WireType::kShare: return "SHARE";
    case WireType::kShareAck: return "SHARE_ACK";
    case WireType::kQuery: return "QUERY";
    case WireType::kResponse: return "RESPONSE";
    case WireType::kRpcError: return "RPC_ERROR";
    case WireType::kHeartbeat: return "HEARTBEAT";
    case WireType::kHeartbeatAck: return "HEARTBEAT_ACK";
    case WireType::kCancel: return "CANCEL";
    case WireType::kDrain: return "DRAIN";
    case WireType::kDrainAck: return "DRAIN_ACK";
  }
  return "UNKNOWN";
}

bool IsKnownWireType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(WireType::kHello) &&
         raw <= static_cast<uint8_t>(WireType::kDrainAck);
}

std::string EncodeFrame(WireType type, std::string_view payload) {
  SCEC_CHECK_LE(payload.size(), static_cast<size_t>(kMaxPayloadLen));
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  out.push_back(0);  // reserved
  out.push_back(0);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, recovery::Crc32(payload.data(), payload.size()));
  PutU32(&out, recovery::Crc32(out.data(), 16));
  out.append(payload.data(), payload.size());
  return out;
}

DecodeResult DecodeFrame(std::string_view buffer) {
  DecodeResult result;
  if (buffer.size() < kFrameHeaderSize) {
    result.progress = DecodeProgress::kNeedMore;
    return result;
  }
  // Header CRC first: it covers magic/version/type/reserved/length/payload-
  // CRC, so any flipped header byte (including the length, which we must not
  // trust before validating) is caught here.
  const uint32_t header_crc = GetU32(buffer.data() + 16);
  if (recovery::Crc32(buffer.data(), 16) != header_crc) {
    result.progress = DecodeProgress::kError;
    result.status = ProtocolError("frame header checksum mismatch");
    return result;
  }
  if (std::memcmp(buffer.data(), kMagic, sizeof(kMagic)) != 0) {
    result.progress = DecodeProgress::kError;
    result.status = ProtocolError("bad frame magic");
    return result;
  }
  const uint8_t version = static_cast<uint8_t>(buffer[4]);
  if (version != kWireVersion) {
    result.progress = DecodeProgress::kError;
    result.status = ProtocolError("unsupported wire version " +
                                  std::to_string(version));
    return result;
  }
  const uint8_t raw_type = static_cast<uint8_t>(buffer[5]);
  if (!IsKnownWireType(raw_type)) {
    result.progress = DecodeProgress::kError;
    result.status =
        ProtocolError("unknown frame type " + std::to_string(raw_type));
    return result;
  }
  if (buffer[6] != 0 || buffer[7] != 0) {
    result.progress = DecodeProgress::kError;
    result.status = ProtocolError("nonzero reserved bytes");
    return result;
  }
  const uint32_t payload_len = GetU32(buffer.data() + 8);
  if (payload_len > kMaxPayloadLen) {
    result.progress = DecodeProgress::kError;
    result.status = ProtocolError("frame payload length " +
                                  std::to_string(payload_len) +
                                  " exceeds limit");
    return result;
  }
  if (buffer.size() < kFrameHeaderSize + payload_len) {
    result.progress = DecodeProgress::kNeedMore;
    return result;
  }
  const std::string_view payload =
      buffer.substr(kFrameHeaderSize, payload_len);
  const uint32_t payload_crc = GetU32(buffer.data() + 12);
  if (recovery::Crc32(payload.data(), payload.size()) != payload_crc) {
    result.progress = DecodeProgress::kError;
    result.status = ProtocolError("frame payload checksum mismatch");
    return result;
  }
  result.progress = DecodeProgress::kFrame;
  result.frame.type = static_cast<WireType>(raw_type);
  result.frame.payload.assign(payload.data(), payload.size());
  result.consumed = kFrameHeaderSize + payload_len;
  return result;
}

Status FrameReader::Feed(std::string_view bytes, std::vector<Frame>* out) {
  SCEC_CHECK(out != nullptr);
  if (poisoned_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "frame reader poisoned by earlier corruption");
  }
  buffer_.append(bytes.data(), bytes.size());
  size_t offset = 0;
  while (true) {
    DecodeResult result =
        DecodeFrame(std::string_view(buffer_).substr(offset));
    if (result.progress == DecodeProgress::kError) {
      poisoned_ = true;
      buffer_.clear();
      return result.status;
    }
    if (result.progress == DecodeProgress::kNeedMore) break;
    out->push_back(std::move(result.frame));
    offset += result.consumed;
  }
  buffer_.erase(0, offset);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Message bodies.

std::string HelloMsg::Encode() const {
  std::string out;
  BinaryWriter writer(&out);
  writer.WriteU64(coordinator_id);
  writer.WriteU64(session_epoch);
  return out;
}

Result<HelloMsg> HelloMsg::Decode(std::string_view payload) {
  HelloMsg msg;
  Status status = DecodeBody(payload, [&msg](BinaryReader& reader) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.coordinator_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.session_epoch));
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return msg;
}

std::string HelloAckMsg::Encode() const {
  std::string out;
  BinaryWriter writer(&out);
  writer.WriteU64(daemon_id);
  writer.WriteU64(shares_held);
  return out;
}

Result<HelloAckMsg> HelloAckMsg::Decode(std::string_view payload) {
  HelloAckMsg msg;
  Status status = DecodeBody(payload, [&msg](BinaryReader& reader) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.daemon_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.shares_held));
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return msg;
}

std::string ShareMsg::Encode() const {
  SCEC_CHECK_EQ(values.size(), static_cast<size_t>(rows) * cols);
  std::string out;
  out.reserve(8 + 4 + 4 + 4 + 8 * values.size());
  BinaryWriter writer(&out);
  writer.WriteU64(share_id);
  writer.WriteU32(rows);
  writer.WriteU32(cols);
  writer.WriteDoubleVector(values);
  return out;
}

Result<ShareMsg> ShareMsg::Decode(std::string_view payload) {
  ShareMsg msg;
  Status status = DecodeBody(payload, [&msg](BinaryReader& reader) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.share_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU32(&msg.rows));
    SCEC_RETURN_IF_ERROR(reader.ReadU32(&msg.cols));
    SCEC_RETURN_IF_ERROR(reader.ReadDoubleVector(&msg.values));
    if (msg.values.size() != static_cast<size_t>(msg.rows) * msg.cols) {
      return ProtocolError("share dimensions disagree with value count");
    }
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return msg;
}

std::string ShareAckMsg::Encode() const {
  std::string out;
  BinaryWriter writer(&out);
  writer.WriteU64(share_id);
  writer.WriteU8(ok);
  writer.WriteString(error);
  return out;
}

Result<ShareAckMsg> ShareAckMsg::Decode(std::string_view payload) {
  ShareAckMsg msg;
  Status status = DecodeBody(payload, [&msg](BinaryReader& reader) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.share_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU8(&msg.ok));
    SCEC_RETURN_IF_ERROR(reader.ReadString(&msg.error));
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return msg;
}

std::string QueryMsg::Encode() const {
  std::string out;
  out.reserve(8 + 8 + 4 + 8 * x.size());
  BinaryWriter writer(&out);
  writer.WriteU64(rpc_id);
  writer.WriteU64(share_id);
  writer.WriteDoubleVector(x);
  return out;
}

Result<QueryMsg> QueryMsg::Decode(std::string_view payload) {
  QueryMsg msg;
  Status status = DecodeBody(payload, [&msg](BinaryReader& reader) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.rpc_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.share_id));
    SCEC_RETURN_IF_ERROR(reader.ReadDoubleVector(&msg.x));
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return msg;
}

std::string ResponseMsg::Encode() const {
  std::string out;
  out.reserve(8 + 4 + 8 * values.size());
  BinaryWriter writer(&out);
  writer.WriteU64(rpc_id);
  writer.WriteDoubleVector(values);
  return out;
}

Result<ResponseMsg> ResponseMsg::Decode(std::string_view payload) {
  ResponseMsg msg;
  Status status = DecodeBody(payload, [&msg](BinaryReader& reader) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.rpc_id));
    SCEC_RETURN_IF_ERROR(reader.ReadDoubleVector(&msg.values));
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return msg;
}

std::string RpcErrorMsg::Encode() const {
  std::string out;
  BinaryWriter writer(&out);
  writer.WriteU64(rpc_id);
  writer.WriteU8(code);
  writer.WriteString(message);
  return out;
}

Result<RpcErrorMsg> RpcErrorMsg::Decode(std::string_view payload) {
  RpcErrorMsg msg;
  Status status = DecodeBody(payload, [&msg](BinaryReader& reader) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&msg.rpc_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU8(&msg.code));
    SCEC_RETURN_IF_ERROR(reader.ReadString(&msg.message));
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return msg;
}

std::string HeartbeatMsg::Encode() const {
  std::string out;
  BinaryWriter writer(&out);
  writer.WriteU64(seq);
  return out;
}

Result<HeartbeatMsg> HeartbeatMsg::Decode(std::string_view payload) {
  HeartbeatMsg msg;
  Status status = DecodeBody(payload, [&msg](BinaryReader& reader) {
    return reader.ReadU64(&msg.seq);
  });
  if (!status.ok()) return status;
  return msg;
}

std::string CancelMsg::Encode() const {
  std::string out;
  BinaryWriter writer(&out);
  writer.WriteU64(rpc_id);
  return out;
}

Result<CancelMsg> CancelMsg::Decode(std::string_view payload) {
  CancelMsg msg;
  Status status = DecodeBody(payload, [&msg](BinaryReader& reader) {
    return reader.ReadU64(&msg.rpc_id);
  });
  if (!status.ok()) return status;
  return msg;
}

}  // namespace scec::net
