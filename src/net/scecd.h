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
// Fault injection for tests and chaos benches (SetBehavior): honest,
// corrupt (Byzantine lie on element 0), silent (accept query, never
// answer), delay (answer after a fixed pause via the loop's timer wheel).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "linalg/matrix.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"

namespace scec::net {

struct ScecdOptions {
  uint64_t daemon_id = 0;
  uint16_t port = 0;  // 0 = ephemeral (read back via port())
};

class ScecDaemon {
 public:
  enum class Behavior { kHonest, kCorrupt, kSilent, kDelay };

  explicit ScecDaemon(ScecdOptions options);
  ~ScecDaemon();

  // Binds the listen socket and spawns the loop thread.
  Status Start();
  // Stops the loop and joins the thread. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

  // Thread-safe fault injection; applies to queries arriving after the call.
  void SetBehavior(Behavior behavior, double delay_s = 0.0);

  uint64_t shares_held() const { return shares_held_.load(); }
  uint64_t queries_served() const { return queries_served_.load(); }
  // What this daemon computed: values staged, V·l mults and V·(l−1) adds
  // per answered query, values returned. A transport's op ledger for this
  // device never exceeds it.
  DeviceOps ops() const {
    return {staged_values_.load(), mults_.load(), adds_.load(),
            values_returned_.load()};
  }

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

  std::atomic<int> behavior_{0};  // Behavior
  std::atomic<double> behavior_delay_s_{0.0};
  std::atomic<uint64_t> shares_held_{0};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> staged_values_{0};
  std::atomic<uint64_t> mults_{0};
  std::atomic<uint64_t> adds_{0};
  std::atomic<uint64_t> values_returned_{0};

  // Loop-thread state.
  std::unordered_map<uint64_t, Matrix<double>> shares_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
};

}  // namespace scec::net
