// SPDX-License-Identifier: MIT
//
// Compact checksummed binary wire format for the networked SCEC protocol:
// coded row shipment (staging), query dispatch, and B_j·T·x responses, plus
// the control plane (handshake, heartbeats, cancellation, draining).
//
// Frame layout (little-endian):
//
//   offset  size  field
//   0       4     magic "SNET"
//   4       1     version (kWireVersion)
//   5       1     type (WireType)
//   6       2     reserved (must be 0)
//   8       4     payload length
//   12      4     CRC-32 of the payload bytes
//   16      4     CRC-32 of header bytes [0, 16)
//   20      ...   payload
//
// Both the header and the payload carry their own CRC, so EVERY corrupted
// byte — magic, version, type, reserved, length, either checksum, or any
// payload byte — is detected deterministically and surfaces as a typed
// Status (kInvalidArgument), never a crash or a silent misdecode. Truncated
// buffers report kNeedMore rather than faulting, so a streaming reader can
// accumulate bytes safely. Tested byte-by-byte in tests/test_net_wire.cpp.
//
// Payload bodies use the buffer-backed BinaryWriter/BinaryReader of
// common/serde.h: fixed-width little-endian fields and u32-count-prefixed
// vectors. Each Encode writes its body into one string; each Decode reads
// straight from the payload view, checks every count against its limit and
// against the bytes left before allocating, and rejects a body it does not
// consume exactly (trailing bytes are corruption, not padding). Tested with
// hostile bodies behind valid CRCs in tests/test_net_wire.cpp and pinned
// byte for byte in tests/test_format_golden.cpp.
//
// Share staging moves each value byte through user space once per side:
// EncodeShareFrame writes the SHARE frame straight from the matrix rows
// (header reserved, body written, length and both CRCs patched in), and the
// daemon's FrameReader assembles the frame in one buffer, hands it out as a
// view, and ParseShareBody lets the daemon copy the values straight into its
// matrix.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace scec::net {

inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderSize = 20;
// Bounds a single frame. A 64k×128-value share is exactly 2^26 bytes of
// doubles; the +64 slack covers the body's share_id/rows/cols fields and
// the vector count prefix, so the documented capacity actually encodes.
// Still small enough that a corrupted length field cannot provoke a huge
// allocation.
inline constexpr uint32_t kMaxPayloadLen = (1u << 26) + 64;

enum class WireType : uint8_t {
  kHello = 1,      // coordinator -> daemon: identify + session epoch
  kHelloAck,       // daemon -> coordinator: accepted, reports shares held
  kShare,          // coordinator -> daemon: coded rows for one share id
  kShareAck,       // daemon -> coordinator: share stored (or typed refusal)
  kQuery,          // coordinator -> daemon: x vector for share·x
  kResponse,       // daemon -> coordinator: response values
  kRpcError,       // daemon -> coordinator: typed per-RPC failure
  kHeartbeat,      // either direction: liveness probe
  kHeartbeatAck,   // reply to kHeartbeat, echoes the sequence number
  kCancel,         // coordinator -> daemon: abandon an in-flight RPC
  kDrain,          // coordinator -> daemon: finish queued work, then close
  kDrainAck,       // daemon -> coordinator: drained; closing after this
};

const char* WireTypeName(WireType type);
bool IsKnownWireType(uint8_t raw);

struct Frame {
  WireType type = WireType::kHeartbeat;
  std::string payload;
};

// Serializes one frame (header + checksummed payload).
std::string EncodeFrame(WireType type, std::string_view payload);

enum class DecodeProgress {
  kNeedMore,  // buffer holds a prefix of a valid frame; feed more bytes
  kFrame,     // one frame decoded; `consumed` bytes may be discarded
  kError,     // corrupt stream; the connection must be torn down
};

struct DecodeResult {
  DecodeProgress progress = DecodeProgress::kNeedMore;
  Frame frame;          // valid iff progress == kFrame
  size_t consumed = 0;  // bytes of `buffer` consumed (kFrame only)
  Status status;        // non-OK iff progress == kError
};

// Attempts to decode the frame at the head of `buffer`. Never reads past
// `buffer.size()`; never aborts on hostile bytes.
DecodeResult DecodeFrame(std::string_view buffer);

// Streaming frame extractor: append raw socket bytes, pull whole frames.
//
// Whole frames inside the fed bytes are handed out where they lie. Only a
// frame cut by the end of the fed bytes is copied into a buffer. A header's
// length is not trusted before its bytes arrive: the buffer holds at most
// max(1 MiB, twice the bytes received), never more than the frame, so a
// frame of up to 2 MiB is re-copied at most once. A buffer above 1 MiB is
// freed once its frame is handed out, so an idle connection holds at most
// 1 MiB.
class FrameReader {
 public:
  // Called once per whole, checksum-verified frame, in stream order.
  // `payload` points into the fed bytes or the reader's buffer and is valid
  // only during the call. Returning false stops the feed: the rest of the
  // bytes are dropped and the reader accepts no more (the caller is tearing
  // the connection down).
  using FrameHandler = std::function<bool(WireType, std::string_view)>;

  // Consumes `bytes`, calling `on_frame` for every frame completed. Returns
  // a non-OK Status on the first corrupt frame; the reader is then poisoned
  // and the connection should be closed.
  Status Feed(std::string_view bytes, const FrameHandler& on_frame);

  // As above, appending an owning copy of each frame to `out`.
  Status Feed(std::string_view bytes, std::vector<Frame>* out);

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  Status Poison(Status status);
  // Appends `bytes` of a cut frame of `frame_size` bytes to buffer_.
  void Buffer(std::string_view bytes, size_t frame_size);

  std::string buffer_;  // the prefix of one frame cut by a Feed boundary
  bool poisoned_ = false;
};

// ---------------------------------------------------------------------------
// Message bodies. Each struct encodes to a payload string and decodes with a
// typed Status; all reads are bounds-checked.

struct HelloMsg {
  uint64_t coordinator_id = 0;
  uint64_t session_epoch = 0;  // bumps on coordinator restart
  std::string Encode() const;
  static Result<HelloMsg> Decode(std::string_view payload);
};

struct HelloAckMsg {
  uint64_t daemon_id = 0;
  uint64_t shares_held = 0;  // survives reconnects: no restaging needed
  std::string Encode() const;
  static Result<HelloAckMsg> Decode(std::string_view payload);
};

struct ShareMsg {
  uint64_t share_id = 0;
  uint32_t rows = 0;
  uint32_t cols = 0;
  std::vector<double> values;  // rows × cols, row-major
  std::string Encode() const;
  static Result<ShareMsg> Decode(std::string_view payload);
};

// The whole SHARE frame, written once, straight from `values`: equal to
// EncodeFrame(kShare, ShareMsg{share_id, rows, cols, values}.Encode()).
std::string EncodeShareFrame(uint64_t share_id, uint32_t rows, uint32_t cols,
                             std::span<const double> values);

// A SHARE body validated exactly as ShareMsg::Decode validates it, with the
// values left in place: `values` views rows × cols little-endian doubles in
// the payload, for BinaryReader::ReadDoubles into the caller's storage.
struct ShareBodyView {
  uint64_t share_id = 0;
  uint32_t rows = 0;
  uint32_t cols = 0;
  std::string_view values;
};
Result<ShareBodyView> ParseShareBody(std::string_view payload);

struct ShareAckMsg {
  uint64_t share_id = 0;
  uint8_t ok = 1;
  std::string error;
  std::string Encode() const;
  static Result<ShareAckMsg> Decode(std::string_view payload);
};

struct QueryMsg {
  uint64_t rpc_id = 0;
  uint64_t share_id = 0;
  std::vector<double> x;
  std::string Encode() const;
  static Result<QueryMsg> Decode(std::string_view payload);
};

struct ResponseMsg {
  uint64_t rpc_id = 0;
  std::vector<double> values;
  std::string Encode() const;
  static Result<ResponseMsg> Decode(std::string_view payload);
};

struct RpcErrorMsg {
  uint64_t rpc_id = 0;
  uint8_t code = 0;  // NetError
  std::string message;
  std::string Encode() const;
  static Result<RpcErrorMsg> Decode(std::string_view payload);
};

struct HeartbeatMsg {
  uint64_t seq = 0;
  std::string Encode() const;
  static Result<HeartbeatMsg> Decode(std::string_view payload);
};

struct CancelMsg {
  uint64_t rpc_id = 0;
  std::string Encode() const;
  static Result<CancelMsg> Decode(std::string_view payload);
};

}  // namespace scec::net
