// SPDX-License-Identifier: MIT
//
// A redundant SCEC deployment (see core/redundancy.h) served over a
// Transport: each coded block lives on 1 + g devices; the user sends x to
// every replica and decodes as soon as EVERY BLOCK has one answer that
// passes its Freivalds digest — late replicas are ignored. This is the
// mechanism behind the paper's footnote-1 delay guarantee. Over
// net::SimTransport (device ids = fleet indices) the replicas share the
// simulator's links, single-core queues, stragglers and faults with the
// protocol driver, and the transport keeps the byte and Eq. (1) ledgers.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coding/result_verify.h"
#include "core/pipeline.h"
#include "core/redundancy.h"
#include "net/transport.h"

namespace scec::sim {

struct RedundantRunMetrics {
  // Query latency under first-verified-answer-per-block decoding.
  double query_completion_time = 0.0;
  // What the latency would have been WITHOUT redundancy masking (time at
  // which the slowest primary answered) — for apples-to-apples comparison.
  double primary_only_completion_time = 0.0;
  // How many blocks were rescued by a replica beating its primary.
  size_t blocks_won_by_replica = 0;
  // Replica-voting integrity check (EXTENSION beyond the paper's passive
  // model): blocks whose replicas disagreed, resolved by majority. Voting
  // requires waiting for every replica, so its latency is the full fan-in:
  double verified_completion_time = 0.0;
  size_t blocks_with_disagreement = 0;
  // Blocks where no strict majority existed (decode keeps the first
  // response and flags the run as untrustworthy).
  size_t blocks_unresolved = 0;
};

class RedundantScecProtocol {
 public:
  // `deployment` is the base deployment and `plan` its replication, whose
  // replica groups name transport devices. All three must outlive the
  // protocol.
  RedundantScecProtocol(const Deployment<double>* deployment,
                        const RedundantPlan* plan, net::Transport* transport);

  // Stages every replica's share, one at a time.
  Status Stage();
  std::vector<double> RunQuery(const std::vector<double>& x);

  // Like RunQuery, but decodes from the per-block MAJORITY answer across
  // replicas instead of the first verified one — detecting (and with
  // g >= 2 correcting) Byzantine devices at the price of waiting for all
  // replicas.
  std::vector<double> RunVerifiedQuery(const std::vector<double>& x);

  const RedundantRunMetrics& metrics() const { return metrics_; }

 private:
  struct Replica {
    size_t block = 0;    // scheme block index
    size_t ordinal = 0;  // 0 = primary
    size_t device = 0;   // transport device id
  };

  // Sends x to every replica, waits for every answer (a replica that fails
  // or times out leaves an empty one) and records the first-answer
  // latencies. Returns the send time.
  double Broadcast(const std::vector<double>& x);

  const Deployment<double>* deployment_;
  const RedundantPlan* plan_;
  net::Transport* transport_;
  ResultVerifier<double> verifier_;  // one entry per block
  std::vector<Replica> replicas_;    // block-major
  std::vector<uint64_t> rpcs_;       // per replica; 0 once answered
  std::vector<net::Completion> completions_;

  // Per-query state, per block.
  std::vector<std::vector<double>> first_response_;
  std::vector<double> first_response_time_;    // -1 if none
  std::vector<double> primary_response_time_;  // -1 if none
  std::vector<double> last_response_time_;
  // Every replica's answer (ordinal-indexed), for voting.
  std::vector<std::vector<std::vector<double>>> all_responses_;

  RedundantRunMetrics metrics_;
  bool staged_ = false;
};

}  // namespace scec::sim
