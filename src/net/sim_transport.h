// SPDX-License-Identifier: MIT
//
// Transport backed by a deterministic discrete-event simulation: a star
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
// Simulation: one binary heap of plain events ordered by (time, sequence
// number). The sequence number counts scheduled events, so events due at
// the same time fire in the order they were scheduled. An RPC's events
// (start delay, query arrival, compute done, reply arrival, deadline)
// point at its record, which holds x and the answer in buffers that are
// recycled once its last event has run. A cancelled deadline or alarm
// stays in the heap and is skipped when it surfaces, without moving the
// clock. A link transfer of `bytes` starts when the link has sent its
// backlog, its last bit leaves 8·bytes/bandwidth later, and it lands one
// latency after that; each device's downlink and uplink keep their own
// backlog.
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
#include "sim/faults.h"
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
  double Now() const override { return now_; }
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
  enum class EventKind : uint8_t {
    kStart,         // an RPC's start delay ran out: dispatch it
    kDeadline,      // an RPC's deadline
    kQueryArrival,  // x reached the device
    kComputeDone,   // the device finished the mat-vec
    kReplyArrival,  // the answer (or error) reached the user
    kAlarm,
    kStaged,        // the share being staged reached its device
  };
  struct Event {
    double when = 0.0;
    uint64_t seq = 0;  // 1-based count of scheduled events
    uint64_t id = 0;   // record index (RPC events) or alarm id
    EventKind kind = EventKind::kStart;
  };

  struct DeviceState {
    EdgeDevice spec;
    std::unordered_map<uint64_t, Matrix<double>> shares;
    double busy_until = 0.0;           // the single core
    double downlink_busy_until = 0.0;  // user -> device
    double uplink_busy_until = 0.0;    // device -> user
    // ByzantineSpec bookkeeping: coin draws, and lies told per spec.
    uint64_t byzantine_draws = 0;
    std::vector<size_t> lies;
  };

  // One RPC, from submit until its last event ran. It is open until
  // answered or cancelled (a timeout only fires the deadline); its events
  // run one after another, submit to reply, so at most one of them and
  // its deadline are pending.
  struct Rpc {
    uint64_t id = 0;
    size_t device = 0;
    uint64_t share_id = 0;
    double deadline_s = 0.0;
    bool open = false;
    bool event_pending = false;
    uint64_t deadline_seq = 0;  // the live deadline event; 0 = none
    NetError error = NetError::kOk;
    std::vector<double> x;
    std::vector<double> values;  // the answer on its way back
  };

  void Schedule(double when, EventKind kind, uint64_t id);
  // Pops events until one that is not a cancelled deadline or alarm, moves
  // the clock to it and runs it. False once the heap is empty.
  bool RunOne();
  // The arrival time of `bytes` sent now on a link with backlog until
  // `*busy_until`, which moves to when the last bit has left.
  double Transfer(double* busy_until, double bandwidth_bps, double latency_s,
                  uint64_t bytes) const;

  void Dispatch(uint32_t rpc);
  void Compute(uint32_t rpc);
  void ComputeDone(uint32_t rpc);
  // Ships the record's answer (or `error`, with no values) device -> user
  // unless the link loses it.
  void Reply(uint32_t rpc, NetError error);
  void Deliver(uint32_t rpc);
  // Frees a record that is settled and has no event pending.
  void Release(uint32_t rpc);
  bool Lost();

  // Ids are shared by RPCs and alarms. Every id from `first_id_` on has a
  // slot: an RPC's record index, kAlarmOpen, or kClosed once settled.
  static constexpr uint32_t kClosed = 0xFFFFFFFFu;
  static constexpr uint32_t kAlarmOpen = 0xFFFFFFFEu;
  uint32_t& IdSlot(uint64_t id) { return id_slots_[id - first_id_]; }
  bool IsOpen(uint64_t id) const;
  void CloseId(uint64_t id);

  SimTransportOptions options_;
  Xoshiro256StarStar straggler_rng_;
  Xoshiro256StarStar loss_rng_;
  std::vector<DeviceState> devices_;

  double now_ = 0.0;
  uint64_t next_seq_ = 1;
  std::vector<Event> heap_;  // min-heap on (when, seq)

  std::vector<Rpc> rpcs_;
  std::vector<uint32_t> free_rpcs_;
  uint64_t next_id_ = 1;
  uint64_t first_id_ = 1;
  std::vector<uint32_t> id_slots_;  // [id - first_id_]
  size_t settled_prefix_ = 0;       // leading kClosed slots

  struct Staging {
    size_t device = 0;
    uint64_t share_id = 0;
    const Matrix<double>* rows = nullptr;
  } staging_;

  std::vector<Completion> ready_;
  NetTransportStats stats_;
  bool draining_ = false;
};

}  // namespace scec::net
