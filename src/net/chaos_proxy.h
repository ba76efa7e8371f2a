// SPDX-License-Identifier: MIT
//
// Socket-level chaos proxy: a frame-aware TCP man-in-the-middle between the
// coordinator and one scecd daemon. The coordinator connects to the proxy's
// port; the proxy opens a matching upstream connection and forwards frames,
// injecting faults deterministically from a seed:
//
//   loss       — drop whole data frames with `drop_prob`,
//   delay      — hold a data frame `delay_s` before forwarding,
//   reorder    — swap a data frame with the next one in the same direction,
//   partition  — SetPartitioned(true) silently discards EVERYTHING both ways
//                while TCP stays up: heartbeats go unanswered and the
//                coordinator's miss threshold must declare kPartitioned,
//   crash      — Crash() writes HALF of the next frame and closes both
//                sides mid-message (exercises truncation-at-reset
//                handling), then refuses every connection: the device
//                stays unreachable.
//
// Frame awareness matters: faults apply only to DATA frames (query /
// response / heartbeat / cancel). Handshake, staging, and drain frames
// always pass (outside partitions), so setup stays reliable and chaos
// exercises the query path — mirroring the in-sim chaos harness, where
// staging uses the reliable channel and queries take the lossy one.
//
// All parsing and forwarding runs on the proxy's own event-loop thread;
// SetPartitioned and Crash are thread-safe knobs for scripted schedules.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/error.h"
#include "common/rng.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"

namespace scec::net {

struct ChaosProxyOptions {
  uint16_t upstream_port = 0;
  uint16_t listen_port = 0;  // 0 = ephemeral (read back via port())
  uint64_t seed = 1;

  double drop_prob = 0.0;
  double delay_prob = 0.0;
  double delay_s = 0.02;
  double reorder_prob = 0.0;
};

struct ChaosProxyStats {
  uint64_t frames_dropped = 0;
  uint64_t frames_delayed = 0;
  uint64_t frames_reordered = 0;
  uint64_t partition_discards = 0;
  uint64_t kills = 0;
};

class ChaosProxy {
 public:
  explicit ChaosProxy(ChaosProxyOptions options);
  ~ChaosProxy();

  Status Start();
  void Stop();

  uint16_t port() const { return port_; }

  // Thread-safe fault knobs for scripted schedules.
  void SetPartitioned(bool on) { partitioned_.store(on); }
  void Crash() { crashed_.store(true); }

  ChaosProxyStats stats() const;

 private:
  struct Pair;

  void HandleAccept();
  void OnBytes(Pair* pair, bool from_client, std::string_view bytes);
  void ForwardFrame(Pair* pair, bool from_client, Frame frame);
  void DeliverEncoded(Pair* pair, bool from_client, std::string encoded);
  void ClosePair(Pair* pair);
  double NextDouble() { return rng_.NextDouble(); }

  ChaosProxyOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  EventLoop loop_;
  std::thread thread_;
  bool started_ = false;

  std::atomic<bool> partitioned_{false};
  std::atomic<bool> crashed_{false};

  // Loop-thread state.
  Xoshiro256StarStar rng_;
  std::unordered_map<int, std::unique_ptr<Pair>> pairs_;  // by client fd
  bool kill_done_ = false;

  mutable std::mutex stats_mutex_;
  ChaosProxyStats stats_;
};

}  // namespace scec::net
