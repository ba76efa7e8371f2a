// SPDX-License-Identifier: MIT

#include "net/channel.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace scec::net {
namespace {

// Global scec_net_* counters (one lookup at first channel construction,
// relaxed-atomic updates after).
struct NetMetrics {
  obs::Counter& connects;
  obs::Counter& reconnect_attempts;
  obs::Counter& handshake_timeouts;
  obs::Counter& heartbeats_ok;
  obs::Counter& heartbeats_missed;
  obs::Counter& partitions;
  obs::Counter& conn_resets;

  NetMetrics()
      : connects(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_connects_total")),
        reconnect_attempts(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_reconnect_attempts_total")),
        handshake_timeouts(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_handshake_timeouts_total")),
        heartbeats_ok(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_heartbeats_total", {{"result", "acked"}})),
        heartbeats_missed(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_heartbeats_total", {{"result", "missed"}})),
        partitions(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_partitions_total")),
        conn_resets(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_conn_resets_total")) {}

  static NetMetrics& Get() {
    static NetMetrics metrics;
    return metrics;
  }
};

}  // namespace

const char* ChannelStateName(ChannelState state) {
  switch (state) {
    case ChannelState::kIdle: return "IDLE";
    case ChannelState::kConnecting: return "CONNECTING";
    case ChannelState::kHandshaking: return "HANDSHAKING";
    case ChannelState::kReady: return "READY";
    case ChannelState::kBackoff: return "BACKOFF";
    case ChannelState::kDown: return "DOWN";
  }
  return "?";
}

RpcChannel::RpcChannel(EventLoop* loop, uint16_t port,
                       RpcChannelOptions options, Callbacks callbacks)
    : loop_(loop),
      port_(port),
      options_(options),
      callbacks_(std::move(callbacks)),
      reconnect_jitter_(options.reconnect_jitter,
                        options.reconnect_jitter_seed) {
  SCEC_CHECK(loop != nullptr);
  SCEC_CHECK(callbacks_.on_frame != nullptr);
  SCEC_CHECK_GT(options_.heartbeat_interval_s, 0.0);
  SCEC_CHECK_GE(options_.heartbeat_miss_threshold, 1u);
  options_.reconnect.Validate();
  NetMetrics::Get();  // resolve counters before the hot path
}

RpcChannel::~RpcChannel() { Shutdown(); }

void RpcChannel::CancelTimers() {
  if (heartbeat_timer_ != 0) {
    loop_->CancelTimer(heartbeat_timer_);
    heartbeat_timer_ = 0;
  }
  if (handshake_timer_ != 0) {
    loop_->CancelTimer(handshake_timer_);
    handshake_timer_ = 0;
  }
  if (reconnect_timer_ != 0) {
    loop_->CancelTimer(reconnect_timer_);
    reconnect_timer_ = 0;
  }
}

void RpcChannel::Shutdown() {
  CancelTimers();
  if (socket_ != nullptr) {
    socket_->Close();
    socket_.reset();
  }
  state_ = ChannelState::kDown;
}

void RpcChannel::Start() {
  SCEC_CHECK(state_ == ChannelState::kIdle);
  Connect();
}

void RpcChannel::Connect() {
  state_ = ChannelState::kConnecting;
  ++stats_.connect_attempts;
  Result<int> fd = ConnectTcp(port_);
  if (!fd.ok()) {
    ScheduleReconnect(NetError::kRefused, fd.status().message());
    return;
  }
  socket_ = std::make_unique<BufferedSocket>(loop_, *fd);
  reader_ = FrameReader();
  socket_->Start(
      [this](std::string_view bytes) { HandleData(bytes); },
      [this](NetError error, const std::string& detail) {
        HandleSocketClosed(error, detail);
      });
  state_ = ChannelState::kHandshaking;
  HelloMsg hello;
  hello.coordinator_id = options_.coordinator_id;
  hello.session_epoch = options_.session_epoch;
  socket_->Send(EncodeFrame(WireType::kHello, hello.Encode()));
  // Half-open detection: a peer that accepted the TCP connection but never
  // answers HELLO (wedged daemon, blackholing proxy) trips this timer.
  handshake_timer_ =
      loop_->AddTimer(options_.handshake_timeout_s, [this]() {
        handshake_timer_ = 0;
        if (state_ != ChannelState::kHandshaking) return;
        ++stats_.handshake_timeouts;
        NetMetrics::Get().handshake_timeouts.Increment();
        socket_->Close();
        socket_.reset();
        ScheduleReconnect(NetError::kTimeout, "handshake timed out");
      });
}

void RpcChannel::ScheduleReconnect(NetError reason,
                                   const std::string& detail) {
  CancelTimers();
  socket_.reset();
  heartbeats_unacked_ = 0;

  const bool was_ready = state_ == ChannelState::kReady;
  if (was_ready && callbacks_.on_down != nullptr) {
    callbacks_.on_down(reason, detail);
  }

  ++reconnect_attempts_;
  if (reconnect_attempts_ >= options_.reconnect.max_attempts) {
    state_ = ChannelState::kDown;
    pending_.clear();
    if (callbacks_.on_gone != nullptr) callbacks_.on_gone();
    return;
  }
  state_ = ChannelState::kBackoff;
  NetMetrics::Get().reconnect_attempts.Increment();
  const double delay = reconnect_jitter_.Apply(
      options_.reconnect.BackoffFor(reconnect_attempts_ - 1));
  reconnect_timer_ = loop_->AddTimer(delay, [this]() {
    reconnect_timer_ = 0;
    if (state_ == ChannelState::kBackoff) Connect();
  });
}

void RpcChannel::HandleSocketClosed(NetError error,
                                    const std::string& detail) {
  ++stats_.conn_resets;
  NetMetrics::Get().conn_resets.Increment();
  ScheduleReconnect(error, detail);
}

void RpcChannel::HandleData(std::string_view bytes) {
  Status status =
      reader_.Feed(bytes, [this](WireType type, std::string_view payload) {
        ++stats_.frames_received;
        HandleFrame(type, payload);
        // A frame handler may have torn the channel down (protocol
        // violation); the reader itself lives until the next Connect.
        return socket_ != nullptr;
      });
  if (!status.ok()) {
    // Corrupt stream: tear the connection down and reconnect — a typed
    // kConnReset, never a crash.
    socket_->Close();
    socket_.reset();
    ++stats_.conn_resets;
    NetMetrics::Get().conn_resets.Increment();
    ScheduleReconnect(NetError::kConnReset,
                      "wire corruption: " + status.message());
  }
}

void RpcChannel::HandleFrame(WireType type, std::string_view payload) {
  switch (type) {
    case WireType::kHelloAck: {
      if (state_ != ChannelState::kHandshaking) return;  // stale
      Result<HelloAckMsg> ack = HelloAckMsg::Decode(payload);
      if (!ack.ok()) {
        socket_->Close();
        socket_.reset();
        ScheduleReconnect(NetError::kConnReset, "bad HELLO_ACK");
        return;
      }
      stats_.shares_held_reported = ack->shares_held;
      state_ = ChannelState::kReady;
      reconnect_attempts_ = 0;
      ++stats_.connects;
      NetMetrics::Get().connects.Increment();
      if (handshake_timer_ != 0) {
        loop_->CancelTimer(handshake_timer_);
        handshake_timer_ = 0;
      }
      heartbeats_unacked_ = 0;
      heartbeat_timer_ = loop_->AddTimer(options_.heartbeat_interval_s,
                                         [this]() { HeartbeatTick(); });
      // Flush frames queued while disconnected.
      while (!pending_.empty() && state_ == ChannelState::kReady) {
        std::string frame = std::move(pending_.front());
        pending_.pop_front();
        ++stats_.frames_sent;
        socket_->Send(std::move(frame));
      }
      // A Send above can fail synchronously and kick off a reconnect; only
      // report readiness if the channel is still actually READY.
      if (state_ == ChannelState::kReady && callbacks_.on_ready != nullptr) {
        callbacks_.on_ready();
      }
      return;
    }
    case WireType::kHeartbeatAck:
      heartbeats_unacked_ = 0;
      ++stats_.heartbeat_acks;
      NetMetrics::Get().heartbeats_ok.Increment();
      return;
    default:
      callbacks_.on_frame(type, payload);
      return;
  }
}

void RpcChannel::HeartbeatTick() {
  heartbeat_timer_ = 0;
  if (state_ != ChannelState::kReady) return;
  if (heartbeats_unacked_ >= options_.heartbeat_miss_threshold) {
    // Peer stopped answering while TCP stays "up" — a partition, not a
    // reset. Fail over to reconnecting.
    ++stats_.heartbeat_misses;
    NetMetrics::Get().heartbeats_missed.Increment();
    NetMetrics::Get().partitions.Increment();
    socket_->Close();
    socket_.reset();
    ScheduleReconnect(NetError::kPartitioned,
                      "missed " + std::to_string(heartbeats_unacked_) +
                          " heartbeats");
    return;
  }
  HeartbeatMsg hb;
  hb.seq = ++heartbeat_seq_;
  ++heartbeats_unacked_;
  ++stats_.heartbeats_sent;
  socket_->Send(EncodeFrame(WireType::kHeartbeat, hb.Encode()));
  heartbeat_timer_ = loop_->AddTimer(options_.heartbeat_interval_s,
                                     [this]() { HeartbeatTick(); });
}

bool RpcChannel::SendFrame(WireType type, std::string payload) {
  return SendEncoded(EncodeFrame(type, payload));
}

bool RpcChannel::SendEncoded(std::string frame) {
  if (state_ == ChannelState::kDown) return false;
  if (state_ != ChannelState::kReady) {
    pending_.push_back(std::move(frame));
    return true;
  }
  ++stats_.frames_sent;
  socket_->Send(std::move(frame));
  return true;
}

}  // namespace scec::net
