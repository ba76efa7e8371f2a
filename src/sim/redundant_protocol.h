// SPDX-License-Identifier: MIT
//
// Discrete-event execution of a redundant SCEC deployment (see
// core/redundancy.h): each coded block lives on 1 + g devices; the user
// broadcasts x to every replica and decodes as soon as EVERY BLOCK has at
// least one response — late replicas are ignored. This is the mechanism
// behind the paper's footnote-1 delay guarantee.

#pragma once

#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "core/redundancy.h"
#include "sim/actors.h"

namespace scec::sim {

struct RedundantRunMetrics {
  double staging_completion_time = 0.0;
  // Query latency under first-response-per-block decoding.
  double query_completion_time = 0.0;
  // What the latency would have been WITHOUT redundancy masking (time at
  // which the slowest primary answered) — for apples-to-apples comparison.
  double primary_only_completion_time = 0.0;
  // How many blocks were rescued by a replica beating its primary.
  size_t blocks_won_by_replica = 0;
  uint64_t total_bytes = 0;
  // Replica-voting integrity check (EXTENSION beyond the paper's passive
  // model): blocks whose replicas disagreed, resolved by majority. Voting
  // requires waiting for every replica, so its latency is the full fan-in:
  double verified_completion_time = 0.0;
  size_t blocks_with_disagreement = 0;
  // Blocks where no strict majority existed (decode keeps the first
  // response and flags the run as untrustworthy).
  size_t blocks_unresolved = 0;
  // Blocks where the shared error-locating decoder
  // (coding/byzantine_decoder.h) pinned the disagreement on a unique replica
  // subset and corrected the block from the surviving candidates.
  size_t blocks_corrected = 0;
  // Fleet indices the locator named guilty during the last verified query.
  std::vector<size_t> guilty_devices;
};

class RedundantScecProtocol {
 public:
  // `deployment` is the base deployment; `fleet` is the whole problem fleet
  // (replica groups index into it).
  RedundantScecProtocol(const Deployment<double>* deployment,
                        const RedundantPlan* plan,
                        const std::vector<EdgeDevice>* fleet,
                        SimOptions options);

  void Stage();
  std::vector<double> RunQuery(const std::vector<double>& x);

  // Like RunQuery, but decodes from the per-block MAJORITY response across
  // replicas instead of the first response — detecting (and with g >= 2
  // correcting) Byzantine devices at the price of waiting for all replicas.
  std::vector<double> RunVerifiedQuery(const std::vector<double>& x);

  const RedundantRunMetrics& metrics() const { return metrics_; }

 private:
  struct Replica {
    size_t block = 0;        // scheme block index
    size_t ordinal = 0;      // 0 = primary
    std::unique_ptr<EdgeDeviceActor> actor;
  };

  const Deployment<double>* deployment_;
  const RedundantPlan* plan_;
  const std::vector<EdgeDevice>* fleet_;
  SimOptions options_;

  EventQueue queue_;
  Network network_{&queue_};
  Xoshiro256StarStar straggler_rng_;
  std::vector<Replica> replicas_;

  void Broadcast(const std::vector<double>& x);

  // Per-query state.
  std::vector<std::vector<double>> first_response_;  // per block
  std::vector<double> first_response_time_;          // per block, -1 if none
  std::vector<double> primary_response_time_;        // per block, -1 if none
  // All replica responses per block (ordinal-indexed), for voting.
  std::vector<std::vector<std::vector<double>>> all_responses_;
  std::vector<double> last_response_time_;           // per block

  RedundantRunMetrics metrics_;
  bool staged_ = false;
};

}  // namespace scec::sim
