// SPDX-License-Identifier: MIT

#include "net/socket_transport.h"

#include <chrono>
#include <future>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace scec::net {
namespace {

struct TransportMetrics {
  obs::Counter& rpcs_response;
  obs::Counter& rpcs_timeout;
  obs::Counter& rpcs_conn_reset;
  obs::Counter& rpcs_partitioned;
  obs::Counter& rpcs_cancelled;
  obs::Histogram& rpc_latency;

  TransportMetrics()
      : rpcs_response(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_rpcs_total", {{"outcome", "response"}})),
        rpcs_timeout(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_rpcs_total", {{"outcome", "timeout"}})),
        rpcs_conn_reset(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_rpcs_total", {{"outcome", "conn_reset"}})),
        rpcs_partitioned(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_rpcs_total", {{"outcome", "partitioned"}})),
        rpcs_cancelled(obs::MetricsRegistry::Global().GetCounter(
            "scec_net_rpcs_total", {{"outcome", "cancelled"}})),
        rpc_latency(obs::MetricsRegistry::Global().GetHistogram(
            "scec_net_rpc_latency_seconds")) {}

  static TransportMetrics& Get() {
    static TransportMetrics metrics;
    return metrics;
  }
};

}  // namespace

struct SocketTransport::StageWaiter {
  std::promise<Status> promise;
  size_t device = 0;
  uint64_t value_bytes = 0;
};

SocketTransport::SocketTransport(std::vector<uint16_t> ports,
                                 SocketTransportOptions options)
    : ports_(std::move(ports)),
      options_(options),
      device_gone_(ports_.size(), false) {
  SCEC_CHECK(!ports_.empty());
  stats_.device_ops.resize(ports_.size());
  TransportMetrics::Get();
  channels_.reserve(ports_.size());
  for (size_t d = 0; d < ports_.size(); ++d) {
    RpcChannelOptions channel_options = options_.channel;
    // Decorrelate reconnect storms across the fleet, deterministically.
    channel_options.reconnect_jitter_seed =
        options_.channel.reconnect_jitter_seed ^ (0x9E3779B9ULL * (d + 1));
    RpcChannel::Callbacks callbacks;
    callbacks.on_frame = [this, d](WireType type, std::string_view payload) {
      HandleFrame(d, type, payload);
    };
    callbacks.on_down = [this, d](NetError error, const std::string&) {
      FailDeviceRpcs(d, error);
    };
    callbacks.on_gone = [this, d]() {
      FailDeviceRpcs(d, NetError::kPartitioned);
      device_gone_[d] = true;
    };
    // Channels are constructed before the loop thread starts, so this is
    // safely "on" the (not yet running) loop thread.
    channels_.push_back(std::make_unique<RpcChannel>(
        &loop_, ports_[d], channel_options, std::move(callbacks)));
  }
  thread_ = std::thread([this]() { loop_.Run(); });
  loop_.Post([this]() {
    for (auto& channel : channels_) channel->Start();
  });
}

SocketTransport::~SocketTransport() {
  loop_.Post([this]() {
    for (auto& [id, rpc] : rpcs_) {
      if (rpc.deadline_timer != 0) loop_.CancelTimer(rpc.deadline_timer);
      if (rpc.delay_timer != 0) loop_.CancelTimer(rpc.delay_timer);
    }
    rpcs_.clear();
    for (auto& [id, waiter] : stage_waiters_) {
      waiter->promise.set_value(ToStatus(NetError::kDraining, "shutdown"));
    }
    stage_waiters_.clear();
    for (auto& channel : channels_) channel->Shutdown();
  });
  loop_.Stop();
  thread_.join();
}

double SocketTransport::Now() const { return EventLoop::Now(); }

void SocketTransport::PushCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    completions_.push_back(std::move(completion));
  }
  cv_.notify_one();
}

Status SocketTransport::StageShare(size_t device, uint64_t share_id,
                                   const Matrix<double>& rows) {
  if (device >= ports_.size()) return OutOfRange("device index out of range");
  auto waiter = std::make_shared<StageWaiter>();
  waiter->device = device;
  waiter->value_bytes = rows.size() * sizeof(double);
  std::future<Status> future = waiter->promise.get_future();

  // The values' one copy on this side: matrix rows straight into the frame,
  // built here on the caller's thread and moved to the loop thread.
  std::string frame = EncodeShareFrame(
      share_id, static_cast<uint32_t>(rows.rows()),
      static_cast<uint32_t>(rows.cols()), rows.Data());

  loop_.Post([this, device, share_id, waiter,
              frame = std::move(frame)]() mutable {
    if (device_gone_[device]) {
      waiter->promise.set_value(
          ToStatus(NetError::kPartitioned, "device unreachable"));
      return;
    }
    stage_waiters_[share_id] = waiter;
    channels_[device]->SendEncoded(std::move(frame));
  });

  const auto timeout =
      std::chrono::duration<double>(options_.stage_timeout_s);
  if (future.wait_for(timeout) != std::future_status::ready) {
    // Withdraw the waiter on the loop thread. An ack that beat the
    // withdrawal was counted as staged, so the staging stands.
    std::promise<void> withdrawn;
    loop_.Post([this, share_id, &withdrawn]() {
      stage_waiters_.erase(share_id);
      withdrawn.set_value();
    });
    withdrawn.get_future().wait();
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      return ToStatus(NetError::kTimeout, "share staging timed out");
    }
  }
  return future.get();
}

void SocketTransport::DispatchOnLoop(uint64_t rpc_id, size_t device,
                                     uint64_t share_id,
                                     std::vector<double> x,
                                     double deadline_s) {
  auto it = rpcs_.find(rpc_id);
  if (it == rpcs_.end()) return;  // cancelled during the start delay
  it->second.delay_timer = 0;

  if (device_gone_[device]) {
    rpcs_.erase(it);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.partitions;
    }
    TransportMetrics::Get().rpcs_partitioned.Increment();
    PushCompletion({.kind = Completion::Kind::kError, .id = rpc_id,
                    .device = device, .error = NetError::kPartitioned});
    return;
  }

  QueryMsg msg;
  msg.rpc_id = rpc_id;
  msg.share_id = share_id;
  msg.x = std::move(x);
  const uint64_t value_bytes = msg.x.size() * sizeof(double);
  channels_[device]->SendFrame(WireType::kQuery, msg.Encode());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.queries_sent;
    stats_.query_value_bytes_sent += value_bytes;
  }

  // The RPC stays open past its deadline: a late response is still
  // delivered until the driver cancels it.
  it->second.deadline_timer = loop_.AddTimer(deadline_s, [this, rpc_id]() {
    auto rpc = rpcs_.find(rpc_id);
    if (rpc == rpcs_.end()) return;
    rpc->second.deadline_timer = 0;
    const size_t dev = rpc->second.device;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.timeouts;
    }
    TransportMetrics::Get().rpcs_timeout.Increment();
    PushCompletion({.kind = Completion::Kind::kError, .id = rpc_id,
                    .device = dev, .error = NetError::kTimeout});
  });
}

uint64_t SocketTransport::SubmitQuery(size_t device, uint64_t share_id,
                                      const std::vector<double>& x,
                                      double deadline_s,
                                      double start_delay_s) {
  SCEC_CHECK_LT(device, ports_.size());
  SCEC_CHECK_GT(deadline_s, 0.0);
  SCEC_CHECK_GE(start_delay_s, 0.0);
  const uint64_t rpc_id = next_id_.fetch_add(1);
  loop_.Post([this, rpc_id, device, share_id, x, deadline_s,
              start_delay_s]() mutable {
    Rpc rpc;
    rpc.device = device;
    rpc.l = x.size();
    auto [it, inserted] = rpcs_.emplace(rpc_id, rpc);
    SCEC_CHECK(inserted);
    if (start_delay_s == 0.0) {
      DispatchOnLoop(rpc_id, device, share_id, std::move(x), deadline_s);
    } else {
      it->second.delay_timer = loop_.AddTimer(
          start_delay_s,
          [this, rpc_id, device, share_id, x = std::move(x), deadline_s]() {
            DispatchOnLoop(rpc_id, device, share_id, x, deadline_s);
          });
    }
  });
  return rpc_id;
}

uint64_t SocketTransport::AddAlarm(double delay_s) {
  const uint64_t alarm_id = next_id_.fetch_add(1);
  loop_.Post([this, alarm_id, delay_s]() {
    loop_.AddTimer(delay_s, [this, alarm_id]() {
      PushCompletion({.kind = Completion::Kind::kAlarm, .id = alarm_id});
    });
  });
  return alarm_id;
}

bool SocketTransport::Cancel(uint64_t id) {
  loop_.Post([this, id]() {
    auto it = rpcs_.find(id);
    if (it == rpcs_.end()) return;
    const size_t dev = it->second.device;
    if (it->second.deadline_timer != 0) {
      loop_.CancelTimer(it->second.deadline_timer);
    }
    if (it->second.delay_timer != 0) loop_.CancelTimer(it->second.delay_timer);
    rpcs_.erase(it);
    if (!device_gone_[dev]) {
      CancelMsg cancel;
      cancel.rpc_id = id;
      channels_[dev]->SendFrame(WireType::kCancel, cancel.Encode());
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cancelled;
    }
    TransportMetrics::Get().rpcs_cancelled.Increment();
  });
  // Best-effort: a completion that races this cancel is surfaced to the
  // driver, which must (and does) ignore completions for settled RPCs.
  return true;
}

void SocketTransport::HandleFrame(size_t device, WireType type,
                                  std::string_view payload) {
  switch (type) {
    case WireType::kResponse: {
      Result<ResponseMsg> response = ResponseMsg::Decode(payload);
      if (!response.ok()) return;
      auto it = rpcs_.find(response->rpc_id);
      if (it == rpcs_.end()) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.stale_responses;
        return;
      }
      if (it->second.deadline_timer != 0) {
        loop_.CancelTimer(it->second.deadline_timer);
      }
      const uint64_t l = it->second.l;
      rpcs_.erase(it);
      {
        const uint64_t rows = response->values.size();
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.responses_delivered;
        stats_.response_value_bytes_delivered += rows * sizeof(double);
        DeviceOps& ops = stats_.device_ops[device];
        ops.mults += rows * l;
        ops.adds += rows * (l - 1);
        ops.values_returned += rows;
      }
      TransportMetrics::Get().rpcs_response.Increment();
      PushCompletion({.kind = Completion::Kind::kResponse,
                      .id = response->rpc_id,
                      .device = device,
                      .values = std::move(response->values)});
      return;
    }
    case WireType::kRpcError: {
      Result<RpcErrorMsg> error = RpcErrorMsg::Decode(payload);
      if (!error.ok()) return;
      auto it = rpcs_.find(error->rpc_id);
      if (it == rpcs_.end()) return;
      if (it->second.deadline_timer != 0) {
        loop_.CancelTimer(it->second.deadline_timer);
      }
      rpcs_.erase(it);
      PushCompletion({.kind = Completion::Kind::kError, .id = error->rpc_id,
                      .device = device, .error = NetError::kProtocol});
      return;
    }
    case WireType::kShareAck: {
      Result<ShareAckMsg> ack = ShareAckMsg::Decode(payload);
      if (!ack.ok()) return;
      auto it = stage_waiters_.find(ack->share_id);
      if (it == stage_waiters_.end()) return;
      std::shared_ptr<StageWaiter> waiter = it->second;
      stage_waiters_.erase(it);
      if (ack->ok != 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.staged_value_bytes += waiter->value_bytes;
        stats_.device_ops[waiter->device].staged_values +=
            waiter->value_bytes / sizeof(double);
      }
      waiter->promise.set_value(
          ack->ok != 0 ? Status::Ok()
                       : ToStatus(NetError::kProtocol, ack->error));
      return;
    }
    case WireType::kDrainAck: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++drain_acks_;
      }
      drain_cv_.notify_all();
      return;
    }
    default:
      return;  // unexpected frame type from a daemon: ignore
  }
}

void SocketTransport::FailDeviceRpcs(size_t device, NetError error) {
  std::vector<uint64_t> to_fail;
  for (const auto& [id, rpc] : rpcs_) {
    // RPCs still in their start-delay have not been sent anywhere; they can
    // stay pending and will be dispatched after reconnection (or fail at
    // their deadline).
    if (rpc.device == device && rpc.delay_timer == 0) to_fail.push_back(id);
  }
  for (uint64_t id : to_fail) {
    auto it = rpcs_.find(id);
    if (it->second.deadline_timer != 0) {
      loop_.CancelTimer(it->second.deadline_timer);
    }
    rpcs_.erase(it);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error == NetError::kPartitioned) {
        ++stats_.partitions;
      } else {
        ++stats_.conn_resets;
      }
    }
    if (error == NetError::kPartitioned) {
      TransportMetrics::Get().rpcs_partitioned.Increment();
    } else {
      TransportMetrics::Get().rpcs_conn_reset.Increment();
    }
    PushCompletion({.kind = Completion::Kind::kError, .id = id,
                    .device = device, .error = error});
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.reconnects;
}

size_t SocketTransport::PollInto(std::vector<Completion>* out,
                                 double max_wait_s) {
  SCEC_CHECK(out != nullptr);
  std::unique_lock<std::mutex> lock(mutex_);
  if (completions_.empty() && max_wait_s > 0.0) {
    cv_.wait_for(lock, std::chrono::duration<double>(max_wait_s),
                 [this]() { return !completions_.empty(); });
  }
  const size_t n = completions_.size();
  while (!completions_.empty()) {
    out->push_back(std::move(completions_.front()));
    completions_.pop_front();
  }
  return n;
}

Status SocketTransport::Drain(double timeout_s) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drain_acks_ = 0;
  }
  size_t expected = 0;
  std::promise<size_t> sent_promise;
  std::future<size_t> sent = sent_promise.get_future();
  loop_.Post([this, &sent_promise]() {
    size_t count = 0;
    for (size_t d = 0; d < channels_.size(); ++d) {
      if (channels_[d]->state() == ChannelState::kReady) {
        channels_[d]->SendFrame(WireType::kDrain, std::string());
        ++count;
      }
    }
    sent_promise.set_value(count);
  });
  expected = sent.get();
  // Wakes on the last DRAIN_ACK, not on a polling tick.
  std::unique_lock<std::mutex> lock(mutex_);
  const bool all_acked = drain_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s),
      [this, expected]() { return drain_acks_ >= expected; });
  if (!all_acked) {
    return ToStatus(NetError::kTimeout, "drain acks incomplete");
  }
  return Status::Ok();
}

RpcChannelStats SocketTransport::ChannelStatsFor(size_t device) const {
  SCEC_CHECK_LT(device, channels_.size());
  // Snapshot via the loop thread to avoid racing channel internals.
  std::promise<RpcChannelStats> promise;
  std::future<RpcChannelStats> future = promise.get_future();
  const_cast<EventLoop&>(loop_).Post([this, device, &promise]() {
    promise.set_value(channels_[device]->stats());
  });
  return future.get();
}

ChannelState SocketTransport::ChannelStateFor(size_t device) const {
  SCEC_CHECK_LT(device, channels_.size());
  std::promise<ChannelState> promise;
  std::future<ChannelState> future = promise.get_future();
  const_cast<EventLoop&>(loop_).Post([this, device, &promise]() {
    promise.set_value(channels_[device]->state());
  });
  return future.get();
}

}  // namespace scec::net
