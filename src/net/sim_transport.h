// SPDX-License-Identifier: MIT
//
// Transport backed by the deterministic discrete-event simulator: a star
// topology of latency+bandwidth links around the user node (user -> device
// on the device's downlink, device -> user on its uplink), single-core
// devices whose queries queue behind the one in progress, and
// straggler-inflated compute, exposed through the poll-based Transport
// interface so the protocol driver runs the same code path as over real
// sockets. It is the simulator's one device model: every simulated SCEC
// run goes through it, the driver's (one query or several in flight: the
// Remark 1 timing, pipelining and lossy-link benches,
// examples/secure_inference, the chaos soak) and the footnote-1 replica
// protocol's (sim/redundant_protocol.h).
//
// Faults follow the simulator's one model (SimTransportOptions): a scripted
// sim::FaultSchedule (crash, omission, corruption, transient outage), the
// Byzantine specs, the straggler model, and message loss. Every fault acts
// on the query path; staging stays reliable and ships one share at a time.
// A lost or withheld message surfaces the way it does on sockets: the
// RPC's deadline fires as a kTimeout, and the driver retries. A query for
// an unknown share, or with the wrong length, gets a kProtocol error after
// the link round trip, as scecd replies. Values are 8-byte doubles on every
// link. The Eq. (1) op ledger (NetTransportStats::device_ops) counts what
// each device model computes, whether or not its answer arrives.
//
// PollInto() advances the simulation one event at a time until a completion
// materialises, so the driver's interleaving of decisions matches the
// socket transport's (one completion batch per wakeup).

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "allocation/device.h"
#include "linalg/matrix.h"
#include "net/transport.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/straggler.h"

namespace scec::net {

// The simulated fleet's faults and timing noise.
struct SimTransportOptions {
  sim::StragglerModel straggler;  // inflates device compute times
  uint64_t straggler_seed = 7;
  std::vector<sim::ByzantineSpec> byzantine;
  uint64_t byzantine_seed = 11;
  const sim::FaultSchedule* faults = nullptr;  // not owned
  double loss_probability = 0.0;  // per query-path message
  uint64_t loss_seed = 99;
};

class SimTransport : public Transport {
 public:
  // `fleet` supplies per-device link latency/bandwidth and compute rate;
  // device ids are fleet indices. `options.faults`, when set, must outlive
  // the transport.
  SimTransport(std::vector<EdgeDevice> fleet, SimTransportOptions options);

  size_t num_devices() const override { return devices_.size(); }
  double Now() const override { return queue_.now(); }
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

 private:
  struct DeviceState {
    EdgeDevice spec;
    std::unordered_map<uint64_t, Matrix<double>> shares;
    double busy_until = 0.0;
    // ByzantineSpec bookkeeping: coin draws, and lies told per spec.
    uint64_t byzantine_draws = 0;
    std::vector<size_t> lies;
  };

  // Open until answered or cancelled; a timeout only fires the deadline.
  struct Rpc {
    size_t device = 0;
    uint64_t deadline_event = 0;  // EventQueue id; 0 = none pending
  };

  void Dispatch(uint64_t rpc_id, size_t device, uint64_t share_id,
                std::vector<double> x, double deadline_s);
  void Compute(uint64_t rpc_id, size_t device, uint64_t share_id,
               std::vector<double> x);
  // Ships a device -> user message unless the link loses it; `error` !=
  // kOk completes the RPC with that error instead of the values.
  void Reply(uint64_t rpc_id, size_t device, std::vector<double> values,
             NetError error);
  bool Lost();

  SimTransportOptions options_;
  sim::EventQueue queue_;
  sim::Network network_{&queue_};
  Xoshiro256StarStar straggler_rng_;
  Xoshiro256StarStar loss_rng_;

  std::vector<DeviceState> devices_;
  uint64_t next_id_ = 1;  // shared by RPCs and alarms
  std::unordered_map<uint64_t, Rpc> rpcs_;
  std::unordered_map<uint64_t, uint64_t> alarms_;  // alarm id -> event id
  std::vector<Completion> ready_;
  NetTransportStats stats_;
  bool draining_ = false;
};

}  // namespace scec::net
