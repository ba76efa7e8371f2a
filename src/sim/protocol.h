// SPDX-License-Identifier: MIT
//
// The full SCEC protocol over the discrete-event simulator (§II-D):
//
//   Phase 1  Coded Data Distribution — cloud sends B_j·T to each device.
//   Phase 2  Coded Edge Computing    — user broadcasts x; devices compute.
//   Phase 3  Original Result Recovery — user concatenates responses and
//            runs the O(m) subtraction decode.
//
// ScecProtocol owns the actors and wires them through the Network. It runs
// against a `Deployment<double>` from core/pipeline.h, so the exact same
// planning/encoding path is exercised in-process and under simulation.

#pragma once

#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "sim/actors.h"
#include "sim/metrics.h"
#include "sim/reliable.h"

namespace scec::sim {

class ScecProtocol {
 public:
  // `fleet_specs` must contain one EdgeDevice per *participating* device of
  // the deployment, in scheme order (the planner's `participating` indices
  // resolve fleet devices; SimulateQuery in simulation.h does this mapping).
  ScecProtocol(const Deployment<double>* deployment,
               std::vector<EdgeDevice> fleet_specs, SimOptions options);

  // Phase 1. Runs the event queue to completion of staging.
  void Stage();

  // Phases 2–3 for one query. Returns the decoded A·x.
  std::vector<double> RunQuery(const std::vector<double>& x);

  // Pipelined execution of several queries: all are dispatched back-to-back
  // (links and single-core devices queue them), responses are matched to
  // queries by per-device arrival order. Throughput beats sequential
  // RunQuery calls because transfer and compute of consecutive queries
  // overlap across devices.
  struct StreamResult {
    std::vector<std::vector<double>> decoded;   // one A·x per query
    std::vector<double> completion_times;       // per query, since dispatch
    double makespan = 0.0;                      // until the last decode
  };
  StreamResult RunQueryStream(const std::vector<std::vector<double>>& xs);

  const RunMetrics& metrics() const { return metrics_; }
  EventQueue& queue() { return queue_; }
  Network& network() { return network_; }


 private:
  void BuildTopology();

  // Sends a message over the raw network or, under lossy options, the
  // reliable channel. A transfer that exhausts its retry budget aborts the
  // simulation — the base protocol (like the paper) requires every selected
  // device to eventually answer; tune max_retries for the loss rate.
  void SendMsg(NodeId from, NodeId to, uint64_t bytes,
               EventQueue::Callback on_delivered);

  const Deployment<double>* deployment_;
  std::vector<EdgeDevice> specs_;
  SimOptions options_;

  EventQueue queue_;
  Network network_{&queue_};
  std::unique_ptr<ReliableChannel> channel_;  // non-null iff lossy links
  Xoshiro256StarStar straggler_rng_;
  std::vector<std::unique_ptr<EdgeDeviceActor>> devices_;
  std::unique_ptr<ResponseCollector> collector_;
  // When non-null (stream mode), device responses append here — per-device
  // FIFO of (arrival time, values) — instead of feeding `collector_`.
  std::vector<std::vector<std::pair<SimTime, std::vector<double>>>>*
      stream_inbox_ = nullptr;
  RunMetrics metrics_;
  bool staged_ = false;
  // Dispatch time of the in-flight query (or stream), so the per-device
  // response callback can emit a sim-time span without plumbing state
  // through the actors.
  SimTime query_start_ = 0.0;
};

}  // namespace scec::sim
