// SPDX-License-Identifier: MIT
//
// Client-side RPC channel: one persistent TCP connection from the networked
// coordinator to a scecd daemon, with robustness first-class:
//
//   * handshake with timeout — a half-open connection (SYN accepted, daemon
//     wedged or blackholed) is detected when HELLO_ACK fails to arrive and
//     the connect is retried instead of hanging,
//   * per-connection heartbeats with a miss threshold — crossing it declares
//     the peer partitioned (kPartitioned), fails in-flight work, and starts
//     reconnecting,
//   * automatic reconnection with the shared seeded-jitter backoff policy
//     (common/retry.h BackoffJitter — the same policy that paces sim
//     retransmissions), capped by a RetryPolicy attempt budget, after which
//     the channel is permanently down (on_gone), and
//   * outbound queueing while disconnected — frames queue and flush on
//     (re)handshake, bounded in time by the caller's per-RPC deadlines.
//
// State machine (documented in docs/NETWORKING.md):
//
//   kConnecting -> kHandshaking -> kReady
//        ^              |            |  heartbeat miss / reset / EOF
//        |              v            v
//        +---------- kBackoff <------+      (attempts < budget)
//                       |
//                       v
//                     kDown                  (budget exhausted; on_gone)

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/retry.h"
#include "net/error.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"

namespace scec::net {

enum class ChannelState {
  kIdle,
  kConnecting,
  kHandshaking,
  kReady,
  kBackoff,
  kDown,
};

const char* ChannelStateName(ChannelState state);

struct RpcChannelOptions {
  uint64_t coordinator_id = 1;
  uint64_t session_epoch = 1;
  double heartbeat_interval_s = 0.05;
  size_t heartbeat_miss_threshold = 3;
  double handshake_timeout_s = 0.25;
  // Reconnect pacing: max_attempts bounds consecutive failed reconnects
  // before the channel goes permanently down.
  RetryPolicy reconnect{/*max_attempts=*/6, /*initial_backoff_s=*/0.02,
                        /*backoff_factor=*/2.0, /*max_backoff_s=*/0.5};
  double reconnect_jitter = 0.1;
  uint64_t reconnect_jitter_seed = 0x7E57C0DEULL;
};

struct RpcChannelStats {
  uint64_t connects = 0;            // successful handshakes
  uint64_t connect_attempts = 0;
  uint64_t handshake_timeouts = 0;  // half-open connections detected
  uint64_t heartbeats_sent = 0;
  uint64_t heartbeat_acks = 0;
  uint64_t heartbeat_misses = 0;    // declared-partition events
  uint64_t conn_resets = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t shares_held_reported = 0;  // from the latest HELLO_ACK
};

class RpcChannel {
 public:
  struct Callbacks {
    // Every application frame (responses, rpc errors, share acks, drain
    // acks). HELLO_ACK and HEARTBEAT_ACK are consumed internally. The
    // payload views the receive buffer and is valid only during the call.
    std::function<void(WireType, std::string_view payload)> on_frame;
    // Connection lost: kConnReset (reset/EOF/protocol error) or
    // kPartitioned (heartbeat miss threshold). Fired before reconnecting,
    // so the owner can fail in-flight RPCs with the typed error.
    std::function<void(NetError, const std::string&)> on_down;
    // Handshake completed (first connect and every reconnect).
    std::function<void()> on_ready;
    // Reconnect budget exhausted; the channel will never recover.
    std::function<void()> on_gone;
  };

  // All methods including the constructor must run on `loop`'s thread
  // (construct-before-Run or via Post).
  RpcChannel(EventLoop* loop, uint16_t port, RpcChannelOptions options,
             Callbacks callbacks);
  ~RpcChannel();

  void Start();  // begin connecting

  // Sends (or queues, while not kReady) one frame. Returns false iff the
  // channel is permanently down.
  bool SendFrame(WireType type, std::string payload);
  // The same for a frame already encoded (EncodeFrame, EncodeShareFrame):
  // the bytes move to the socket without another copy.
  bool SendEncoded(std::string frame);

  // Immediate teardown without callbacks (owner-initiated shutdown).
  void Shutdown();

  ChannelState state() const { return state_; }
  const RpcChannelStats& stats() const { return stats_; }
  size_t queued_frames() const { return pending_.size(); }

 private:
  void Connect();
  void ScheduleReconnect(NetError reason, const std::string& detail);
  void HandleFrame(WireType type, std::string_view payload);
  void HandleData(std::string_view bytes);
  void HandleSocketClosed(NetError error, const std::string& detail);
  void HeartbeatTick();
  void CancelTimers();

  EventLoop* loop_;
  uint16_t port_;
  RpcChannelOptions options_;
  Callbacks callbacks_;
  BackoffJitter reconnect_jitter_;

  ChannelState state_ = ChannelState::kIdle;
  std::unique_ptr<BufferedSocket> socket_;
  FrameReader reader_;
  std::deque<std::string> pending_;  // encoded frames awaiting kReady

  size_t reconnect_attempts_ = 0;  // consecutive failures since last kReady
  uint64_t heartbeat_seq_ = 0;
  size_t heartbeats_unacked_ = 0;
  uint64_t heartbeat_timer_ = 0;
  uint64_t handshake_timer_ = 0;
  uint64_t reconnect_timer_ = 0;

  RpcChannelStats stats_;
};

}  // namespace scec::net
