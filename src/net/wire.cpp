// SPDX-License-Identifier: MIT

#include "net/wire.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/crc32.h"
#include "common/serde.h"

namespace scec::net {
namespace {

constexpr char kMagic[4] = {'S', 'N', 'E', 'T'};

// A frame header's length is a claim until the bytes arrive, so FrameReader
// commits at most max(this, 2 × bytes received) to a cut frame, and drops a
// buffer above it once its frame is handed out.
constexpr size_t kFrameReserveLimit = size_t{1} << 20;

void PutU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
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

namespace {

// Builds a frame in place, for bodies written straight from their source:
// BeginFrame appends a header placeholder to *out and returns the frame's
// offset; the caller appends the payload; FinishFrame then writes the
// header — type, payload length, payload CRC and header CRC.
size_t BeginFrame(std::string* out) {
  const size_t start = out->size();
  out->append(kFrameHeaderSize, '\0');
  return start;
}

void FinishFrame(WireType type, size_t frame_start, std::string* out) {
  SCEC_CHECK_GE(out->size(), frame_start + kFrameHeaderSize);
  const size_t payload_len = out->size() - frame_start - kFrameHeaderSize;
  SCEC_CHECK_LE(payload_len, static_cast<size_t>(kMaxPayloadLen));
  char* header = out->data() + frame_start;
  std::memcpy(header, kMagic, sizeof(kMagic));
  header[4] = static_cast<char>(kWireVersion);
  header[5] = static_cast<char>(type);
  header[6] = 0;  // reserved
  header[7] = 0;
  PutU32(header + 8, static_cast<uint32_t>(payload_len));
  PutU32(header + 12,
         Crc32(header + kFrameHeaderSize, payload_len));
  PutU32(header + 16, Crc32(header, 16));
}

}  // namespace

std::string EncodeFrame(WireType type, std::string_view payload) {
  SCEC_CHECK_LE(payload.size(), static_cast<size_t>(kMaxPayloadLen));
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  const size_t start = BeginFrame(&out);
  out.append(payload.data(), payload.size());
  FinishFrame(type, start, &out);
  return out;
}

namespace {

struct FrameHeader {
  WireType type = WireType::kHeartbeat;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
  size_t frame_size() const { return kFrameHeaderSize + payload_len; }
};

// Validates the kFrameHeaderSize header bytes at the head of `buffer`.
// The header CRC is checked first: it covers magic/version/type/reserved/
// length/payload-CRC, so any flipped header byte (including the length,
// which must not be trusted before validating) is caught here.
Status ParseFrameHeader(std::string_view buffer, FrameHeader* header) {
  SCEC_CHECK_GE(buffer.size(), kFrameHeaderSize);
  if (Crc32(buffer.data(), 16) != GetU32(buffer.data() + 16)) {
    return ProtocolError("frame header checksum mismatch");
  }
  if (std::memcmp(buffer.data(), kMagic, sizeof(kMagic)) != 0) {
    return ProtocolError("bad frame magic");
  }
  const uint8_t version = static_cast<uint8_t>(buffer[4]);
  if (version != kWireVersion) {
    return ProtocolError("unsupported wire version " +
                         std::to_string(version));
  }
  const uint8_t raw_type = static_cast<uint8_t>(buffer[5]);
  if (!IsKnownWireType(raw_type)) {
    return ProtocolError("unknown frame type " + std::to_string(raw_type));
  }
  if (buffer[6] != 0 || buffer[7] != 0) {
    return ProtocolError("nonzero reserved bytes");
  }
  const uint32_t payload_len = GetU32(buffer.data() + 8);
  if (payload_len > kMaxPayloadLen) {
    return ProtocolError("frame payload length " +
                         std::to_string(payload_len) + " exceeds limit");
  }
  header->type = static_cast<WireType>(raw_type);
  header->payload_len = payload_len;
  header->payload_crc = GetU32(buffer.data() + 12);
  return Status::Ok();
}

Status CheckPayload(const FrameHeader& header, std::string_view payload) {
  if (Crc32(payload.data(), payload.size()) != header.payload_crc) {
    return ProtocolError("frame payload checksum mismatch");
  }
  return Status::Ok();
}

}  // namespace

DecodeResult DecodeFrame(std::string_view buffer) {
  DecodeResult result;
  if (buffer.size() < kFrameHeaderSize) {
    result.progress = DecodeProgress::kNeedMore;
    return result;
  }
  FrameHeader header;
  result.status = ParseFrameHeader(buffer, &header);
  if (result.status.ok() && buffer.size() < header.frame_size()) {
    result.progress = DecodeProgress::kNeedMore;
    return result;
  }
  const std::string_view payload =
      buffer.substr(kFrameHeaderSize, header.payload_len);
  if (result.status.ok()) result.status = CheckPayload(header, payload);
  if (!result.status.ok()) {
    result.progress = DecodeProgress::kError;
    return result;
  }
  result.progress = DecodeProgress::kFrame;
  result.frame.type = header.type;
  result.frame.payload.assign(payload.data(), payload.size());
  result.consumed = header.frame_size();
  return result;
}

Status FrameReader::Poison(Status status) {
  poisoned_ = true;
  std::string().swap(buffer_);
  return status;
}

void FrameReader::Buffer(std::string_view bytes, size_t frame_size) {
  const size_t needed = buffer_.size() + bytes.size();
  if (needed > buffer_.capacity()) {
    buffer_.reserve(
        std::min(frame_size, std::max(kFrameReserveLimit, 2 * needed)));
  }
  buffer_.append(bytes.data(), bytes.size());
}

Status FrameReader::Feed(std::string_view bytes,
                         const FrameHandler& on_frame) {
  if (poisoned_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "frame reader poisoned by earlier corruption");
  }
  FrameHeader header;
  // 1. Complete the frame whose prefix an earlier Feed left buffered.
  if (!buffer_.empty()) {
    if (buffer_.size() < kFrameHeaderSize) {
      const size_t take =
          std::min(kFrameHeaderSize - buffer_.size(), bytes.size());
      buffer_.append(bytes.data(), take);
      bytes.remove_prefix(take);
      if (buffer_.size() < kFrameHeaderSize) return Status::Ok();
    }
    Status status = ParseFrameHeader(buffer_, &header);
    if (!status.ok()) return Poison(std::move(status));
    const size_t take =
        std::min(header.frame_size() - buffer_.size(), bytes.size());
    Buffer(bytes.substr(0, take), header.frame_size());
    bytes.remove_prefix(take);
    if (buffer_.size() < header.frame_size()) return Status::Ok();
    const std::string_view payload =
        std::string_view(buffer_).substr(kFrameHeaderSize);
    status = CheckPayload(header, payload);
    if (!status.ok()) return Poison(std::move(status));
    const bool more = on_frame(header.type, payload);
    if (buffer_.capacity() > kFrameReserveLimit) {
      std::string().swap(buffer_);
    } else {
      buffer_.clear();
    }
    if (!more) return Poison(Status::Ok());
  }
  // 2. Whole frames straight from the fed bytes.
  while (bytes.size() >= kFrameHeaderSize) {
    Status status = ParseFrameHeader(bytes, &header);
    if (!status.ok()) return Poison(std::move(status));
    if (bytes.size() < header.frame_size()) {
      // 3. A cut frame: keep its prefix.
      Buffer(bytes, header.frame_size());
      return Status::Ok();
    }
    const std::string_view payload =
        bytes.substr(kFrameHeaderSize, header.payload_len);
    status = CheckPayload(header, payload);
    if (!status.ok()) return Poison(std::move(status));
    if (!on_frame(header.type, payload)) return Poison(Status::Ok());
    bytes.remove_prefix(header.frame_size());
  }
  buffer_.append(bytes.data(), bytes.size());
  return Status::Ok();
}

Status FrameReader::Feed(std::string_view bytes, std::vector<Frame>* out) {
  SCEC_CHECK(out != nullptr);
  return Feed(bytes, [out](WireType type, std::string_view payload) {
    out->push_back(Frame{type, std::string(payload)});
    return true;
  });
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

namespace {

// share_id u64 | rows u32 | cols u32 | value count u32 | values.
constexpr size_t kShareBodyFixedBytes = 8 + 4 + 4 + 4;

void AppendShareBody(uint64_t share_id, uint32_t rows, uint32_t cols,
                     std::span<const double> values, std::string* out) {
  SCEC_CHECK_EQ(values.size(), static_cast<size_t>(rows) * cols);
  BinaryWriter writer(out);
  writer.WriteU64(share_id);
  writer.WriteU32(rows);
  writer.WriteU32(cols);
  writer.WriteDoubleVector(values);
}

}  // namespace

std::string EncodeShareFrame(uint64_t share_id, uint32_t rows, uint32_t cols,
                             std::span<const double> values) {
  std::string out;
  out.reserve(kFrameHeaderSize + kShareBodyFixedBytes + 8 * values.size());
  const size_t start = BeginFrame(&out);
  AppendShareBody(share_id, rows, cols, values, &out);
  FinishFrame(WireType::kShare, start, &out);
  return out;
}

Result<ShareBodyView> ParseShareBody(std::string_view payload) {
  ShareBodyView view;
  Status status = DecodeBody(payload, [&view](BinaryReader& reader) {
    SCEC_RETURN_IF_ERROR(reader.ReadU64(&view.share_id));
    SCEC_RETURN_IF_ERROR(reader.ReadU32(&view.rows));
    SCEC_RETURN_IF_ERROR(reader.ReadU32(&view.cols));
    SCEC_RETURN_IF_ERROR(reader.ReadDoubleVectorView(&view.values));
    if (view.values.size() / 8 != static_cast<size_t>(view.rows) * view.cols) {
      return ProtocolError("share dimensions disagree with value count");
    }
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return view;
}

std::string ShareMsg::Encode() const {
  std::string out;
  out.reserve(kShareBodyFixedBytes + 8 * values.size());
  AppendShareBody(share_id, rows, cols, values, &out);
  return out;
}

Result<ShareMsg> ShareMsg::Decode(std::string_view payload) {
  Result<ShareBodyView> view = ParseShareBody(payload);
  if (!view.ok()) return view.status();
  ShareMsg msg;
  msg.share_id = view->share_id;
  msg.rows = view->rows;
  msg.cols = view->cols;
  msg.values.resize(view->values.size() / 8);
  SCEC_CHECK(BinaryReader(view->values).ReadDoubles(msg.values).ok());
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
