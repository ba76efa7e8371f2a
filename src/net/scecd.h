// SPDX-License-Identifier: MIT
//
// scecd: the SCEC edge-device daemon. Listens on loopback TCP, stores coded
// shares shipped by the coordinator, and answers queries with B_j·T·x over
// the checksummed wire format. One daemon models one edge device; a
// loopback cluster is N daemons + one networked coordinator
// (net/socket_transport.h), each daemon on its own event-loop thread.
//
// Robustness behavior:
//   * shares survive reconnects — they are keyed by share id and owned by
//     the daemon process, so a coordinator that reconnects after a reset or
//     partition resumes querying without restaging (HELLO_ACK reports the
//     count),
//   * heartbeats are answered from the read path, so a live daemon is never
//     evicted for slow compute,
//   * corrupt frames poison only the offending connection (typed teardown),
//     never the daemon,
//   * kDrain finishes queued work, answers kDrainAck, and closes cleanly.
//
// The device is a net::DeviceCore, as in SimTransport: shares, answers,
// Eq. (1) ops and the fault script (ScecdOptions::faults) on wall seconds
// since Start(), so a daemon omits and lies as the simulated device does.
// Link faults (delay, loss, partition, crash) belong to net::ChaosProxy.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "net/device_core.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/faults.h"

namespace scec::net {

struct ScecdOptions {
  uint64_t daemon_id = 0;
  uint16_t port = 0;  // 0 = ephemeral (read back via port())
  // The device's fault script: device `daemon_id`'s events of a
  // sim::FaultSchedule seeded `fault_seed`, timed in seconds since Start().
  std::vector<sim::FaultEvent> faults = {};
  uint64_t fault_seed = sim::FaultSchedule::kDefaultSeed;
};

class ScecDaemon {
 public:
  explicit ScecDaemon(ScecdOptions options);
  ~ScecDaemon();

  // Binds the listen socket and spawns the loop thread.
  Status Start();
  // Stops the loop and joins the thread. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

  // Thread-safe reads of the device. ops() is what this daemon computed: a
  // transport's op ledger for this device never exceeds it.
  uint64_t shares_held() const;
  uint64_t queries_served() const;
  DeviceOps ops() const;

 private:
  struct Connection;

  void HandleAccept();
  void HandleFrame(Connection* conn, WireType type, std::string_view payload);
  void CloseConnection(Connection* conn);
  void AnswerQuery(Connection* conn, const QueryMsg& query);

  ScecdOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  EventLoop loop_;
  std::thread thread_;
  bool started_ = false;

  sim::FaultSchedule script_;
  double started_s_ = 0.0;  // EventLoop::Now() at Start()
  mutable std::mutex core_mutex_;  // guards core_ and queries_served_
  DeviceCore core_;
  uint64_t queries_served_ = 0;

  // Loop-thread state.
  ResponseMsg response_;  // the answer buffer, reused query after query
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
};

}  // namespace scec::net
