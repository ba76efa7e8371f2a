// SPDX-License-Identifier: MIT
//
// Transport abstraction for the fault-tolerant SCEC query path. The
// networked coordinator (net/driver.h) is written against this interface
// only, so deadlines, retry/backoff, hedging, Byzantine masking, and
// quarantine logic run UNCHANGED over
//
//   * SimTransport (net/sim_transport.h) — the deterministic discrete-event
//     simulator, for reproducible protocol tests, and
//   * SocketTransport (net/socket_transport.h) — real TCP connections to
//     scecd daemons, for loopback clusters and socket-level chaos.
//
// Shape: submit-and-poll with a completion queue. The transport owns every
// per-RPC deadline timer and surfaces expiry as a typed kTimeout completion,
// so the driver never consults a clock to detect stragglers — which is what
// makes its decision sequence identical across simulated and wall-clock
// time (asserted fault-free in tests/test_net_transport.cpp).

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.h"
#include "linalg/matrix.h"
#include "net/error.h"

namespace scec::net {

// One device's Eq. (1) op ledger: the coded values staged on it, the scalar
// multiplications and additions of the answers it computed (V_j·l and
// V_j·(l−1) per query), and the answer values it returned.
struct DeviceOps {
  uint64_t staged_values = 0;
  uint64_t mults = 0;
  uint64_t adds = 0;
  uint64_t values_returned = 0;
};

// Transport-level accounting, shared across implementations. Value-byte
// tallies count protocol payload only (8 bytes per double), excluding frame
// headers, so they reconcile exactly with the driver's cost ledger — the
// same double-entry discipline the chaos harness enforces in-sim.
struct NetTransportStats {
  uint64_t staged_value_bytes = 0;  // shares acknowledged by their device
  uint64_t queries_sent = 0;
  uint64_t query_value_bytes_sent = 0;
  uint64_t responses_delivered = 0;
  uint64_t response_value_bytes_delivered = 0;
  uint64_t timeouts = 0;
  uint64_t cancelled = 0;
  uint64_t conn_resets = 0;
  uint64_t partitions = 0;
  uint64_t reconnects = 0;
  // Responses that arrived after their RPC was answered, failed, or
  // cancelled: counted, then dropped — never delivered twice.
  uint64_t stale_responses = 0;
  // Per device id: staged values as acknowledged, returned values as
  // delivered. SimTransport counts the ops its device model computes;
  // SocketTransport bills each delivered response rows·l mults and
  // rows·(l−1) adds.
  std::vector<DeviceOps> device_ops;
};

struct Completion {
  enum class Kind {
    kResponse,  // values carries the device's share·x answer
    kError,     // error is kTimeout/kConnReset/kPartitioned/kCancelled/...
    kAlarm,     // a driver-requested wakeup (hedge checks, backoff expiry)
  };

  Kind kind = Kind::kResponse;
  uint64_t id = 0;  // rpc id (kResponse/kError) or alarm id (kAlarm)
  size_t device = std::numeric_limits<size_t>::max();
  NetError error = NetError::kOk;
  std::vector<double> values = {};
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual size_t num_devices() const = 0;

  // Transport clock, seconds. Simulated time or monotonic wall clock; the
  // driver uses it only for logging and latency observation, never for
  // timeout decisions (those are transport-owned timers).
  virtual double Now() const = 0;

  // Ships coded rows to a device and waits for the acknowledgment (staging
  // is a reliable, synchronous setup step — queries are the latency path).
  virtual Status StageShare(size_t device, uint64_t share_id,
                            const Matrix<double>& rows) = 0;

  // Dispatches x to `device` after `start_delay_s` (retry backoff waits
  // live in the transport so the driver stays clock-free); the deadline
  // timer starts at actual dispatch and produces a kTimeout completion on
  // expiry. A timeout does not close the RPC: its late response is still
  // delivered, so the caller Cancel()s every RPC it stops waiting for.
  // Returns the rpc id.
  virtual uint64_t SubmitQuery(size_t device, uint64_t share_id,
                               const std::vector<double>& x,
                               double deadline_s, double start_delay_s) = 0;

  // One-shot wakeup after `delay_s`, delivered as a kAlarm completion.
  virtual uint64_t AddAlarm(double delay_s) = 0;

  // Cancels an open RPC (timed out or not) or a pending alarm. A cancelled
  // RPC produces no further completions (a late response is counted as
  // stale and dropped). Returns false if already settled.
  virtual bool Cancel(uint64_t id) = 0;

  // Appends available completions to `out`, waiting up to `max_wait_s` for
  // the first one. Returns the number appended (0 = nothing happened —
  // for SimTransport that means the simulation ran dry).
  virtual size_t PollInto(std::vector<Completion>* out, double max_wait_s) = 0;

  virtual const NetTransportStats& stats() const = 0;

  // Graceful shutdown: stop accepting work, flush in-flight sends, notify
  // peers (socket transport sends kDrain and waits for acks or `timeout_s`).
  virtual Status Drain(double timeout_s) = 0;
};

}  // namespace scec::net
