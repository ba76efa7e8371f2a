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
//
// A sequential run (one query at a time, with or without faults or loss)
// goes through the protocol driver over net::SimTransport instead; this
// class remains for what the driver cannot do yet: several queries in
// flight at once (RunQueryStream, bench/sim_throughput).

#pragma once

#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "sim/actors.h"

namespace scec::sim {

class ScecProtocol {
 public:
  // `fleet_specs` must contain one EdgeDevice per *participating* device of
  // the deployment, in scheme order (the planner's `participating` indices
  // resolve fleet devices).
  ScecProtocol(const Deployment<double>* deployment,
               std::vector<EdgeDevice> fleet_specs, SimOptions options);

  // Phase 1. Runs the event queue to completion of staging.
  void Stage();

  // Phases 2–3 for one query (a stream of one). Returns the decoded A·x.
  std::vector<double> RunQuery(const std::vector<double>& x);

  // Pipelined execution of several queries: all are dispatched back-to-back
  // (links and single-core devices queue them), responses are matched to
  // queries by per-device arrival order over the loss-free, in-order links.
  // Throughput beats sequential RunQuery calls because transfer and compute
  // of consecutive queries overlap across devices.
  struct StreamResult {
    std::vector<std::vector<double>> decoded;   // one A·x per query
    std::vector<double> completion_times;       // per query, since dispatch
    double makespan = 0.0;                      // until the last decode
  };
  StreamResult RunQueryStream(const std::vector<std::vector<double>>& xs);

  EventQueue& queue() { return queue_; }

 private:
  void BuildTopology();

  const Deployment<double>* deployment_;
  std::vector<EdgeDevice> specs_;
  SimOptions options_;

  EventQueue queue_;
  Network network_{&queue_};
  Xoshiro256StarStar straggler_rng_;
  std::vector<std::unique_ptr<EdgeDeviceActor>> devices_;
  // Per-device FIFO of (arrival time, response): the q-th response from
  // device d answers the stream's query q.
  std::vector<std::vector<std::pair<SimTime, std::vector<double>>>> inbox_;
  bool staged_ = false;
  // Dispatch time of the in-flight query (or stream), so the per-device
  // response callback can emit a sim-time span without plumbing state
  // through the actors.
  SimTime query_start_ = 0.0;
};

}  // namespace scec::sim
