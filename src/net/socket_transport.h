// SPDX-License-Identifier: MIT
//
// Transport over real TCP: one RpcChannel per scecd daemon, multiplexed on
// a single event-loop thread owned by the transport; the driver thread
// talks to it through thread-safe submit/poll calls.
//
//   driver thread                    loop thread
//   -------------                    -----------
//   SubmitQuery ──Post──────────────> arm start-delay / send QUERY
//                                     arm per-RPC deadline timer
//   PollInto    <─condvar── push ──── RESPONSE / RPC_ERROR / deadline /
//                                     channel down (typed NetError)
//
// Robustness mapping (ISSUE 10): per-RPC deadline timers live on the loop's
// timer wheel; a connection reset fails that device's in-flight RPCs with
// kConnReset; a heartbeat-declared partition fails them with kPartitioned;
// the channel reconnects with seeded jittered backoff underneath, and
// because daemons keep their shares across connections, queries resume
// without restaging. Draining sends kDrain to every ready channel and waits
// for acks before closing.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/channel.h"
#include "net/transport.h"

namespace scec::net {

struct SocketTransportOptions {
  RpcChannelOptions channel;       // per-device; jitter seed decorrelated
  double stage_timeout_s = 10.0;   // staging is synchronous setup
};

class SocketTransport : public Transport {
 public:
  // `ports`: loopback TCP port of each device's scecd (index = device id).
  SocketTransport(std::vector<uint16_t> ports,
                  SocketTransportOptions options);
  ~SocketTransport() override;

  size_t num_devices() const override { return ports_.size(); }
  double Now() const override;
  Status StageShare(size_t device, uint64_t share_id,
                    const Matrix<double>& rows) override;
  uint64_t SubmitQuery(size_t device, uint64_t share_id,
                       const std::vector<double>& x, double deadline_s,
                       double start_delay_s) override;
  uint64_t AddAlarm(double delay_s) override;
  bool Cancel(uint64_t id) override;
  size_t PollInto(std::vector<Completion>* out, double max_wait_s) override;
  const NetTransportStats& stats() const override { return stats_; }
  Status Drain(double timeout_s) override;

  // Aggregated channel stats (tests; call after quiescing).
  RpcChannelStats ChannelStatsFor(size_t device) const;
  ChannelState ChannelStateFor(size_t device) const;

 private:
  // Open until answered, failed or cancelled; a timeout only fires the
  // deadline timer.
  struct Rpc {
    size_t device = 0;
    size_t l = 0;                 // query length: the ops a response bills
    uint64_t deadline_timer = 0;  // loop timer id; 0 = none pending
    uint64_t delay_timer = 0;     // start-delay timer id
  };

  // Loop-thread helpers.
  void DispatchOnLoop(uint64_t rpc_id, size_t device, uint64_t share_id,
                      std::vector<double> x, double deadline_s);
  void HandleFrame(size_t device, WireType type, std::string_view payload);
  void FailDeviceRpcs(size_t device, NetError error);
  void PushCompletion(Completion completion);

  std::vector<uint16_t> ports_;
  SocketTransportOptions options_;
  EventLoop loop_;
  std::thread thread_;
  std::vector<std::unique_ptr<RpcChannel>> channels_;
  std::vector<bool> device_gone_;  // reconnect budget exhausted

  std::atomic<uint64_t> next_id_{1};

  // Loop-thread state.
  std::unordered_map<uint64_t, Rpc> rpcs_;
  struct StageWaiter;
  std::unordered_map<uint64_t, std::shared_ptr<StageWaiter>> stage_waiters_;

  // Shared completion queue.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Completion> completions_;
  NetTransportStats stats_;  // mutated on the loop thread under mutex_
  uint64_t drain_acks_ = 0;  // under mutex_; Drain waits on drain_cv_
  std::condition_variable drain_cv_;
};

}  // namespace scec::net
