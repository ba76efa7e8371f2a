// SPDX-License-Identifier: MIT

#include "sim/redundant_protocol.h"

#include <algorithm>
#include <span>

#include "coding/byzantine_decoder.h"

namespace scec::sim {
namespace {

// Replicas are never retried: the deadline only ends the wait for one
// that never answers.
constexpr double kReplicaDeadlineS = 60.0;
// The Freivalds weights' stream, as the driver's default digest seed.
constexpr uint64_t kDigestSeed = 43;

}  // namespace

RedundantScecProtocol::RedundantScecProtocol(
    const Deployment<double>* deployment, const RedundantPlan* plan,
    net::Transport* transport)
    : deployment_(deployment), plan_(plan), transport_(transport) {
  SCEC_CHECK(deployment_ != nullptr);
  SCEC_CHECK(plan_ != nullptr);
  SCEC_CHECK(transport_ != nullptr);
  const size_t blocks = plan_->base.scheme.num_devices();
  SCEC_CHECK_EQ(deployment_->shares.size(), blocks);
  SCEC_CHECK_EQ(plan_->replica_groups.size(), blocks);

  ChaCha20Rng digest_rng(kDigestSeed);
  verifier_ = ResultVerifier<double>::DrawWeights(
      plan_->base.scheme.row_counts, digest_rng);
  for (size_t block = 0; block < blocks; ++block) {
    verifier_.SetDigests(block, deployment_->shares[block].coded_rows);
    const std::vector<size_t>& group = plan_->replica_groups[block];
    for (size_t ordinal = 0; ordinal < group.size(); ++ordinal) {
      SCEC_CHECK_LT(group[ordinal], transport_->num_devices());
      replicas_.push_back(Replica{block, ordinal, group[ordinal]});
    }
  }
  rpcs_.resize(replicas_.size());
}

Status RedundantScecProtocol::Stage() {
  SCEC_CHECK(!staged_);
  // Share id r + 1 is replica r's copy of its block.
  for (size_t r = 0; r < replicas_.size(); ++r) {
    SCEC_RETURN_IF_ERROR(transport_->StageShare(
        replicas_[r].device, r + 1,
        deployment_->shares[replicas_[r].block].coded_rows));
  }
  staged_ = true;
  return Status::Ok();
}

double RedundantScecProtocol::Broadcast(const std::vector<double>& x) {
  SCEC_CHECK(staged_);
  SCEC_CHECK_EQ(x.size(), deployment_->l);
  const double start = transport_->Now();
  const size_t blocks = plan_->base.scheme.num_devices();
  first_response_.assign(blocks, {});
  first_response_time_.assign(blocks, -1.0);
  primary_response_time_.assign(blocks, -1.0);
  last_response_time_.assign(blocks, 0.0);
  all_responses_.assign(blocks, {});
  for (size_t block = 0; block < blocks; ++block) {
    all_responses_[block].resize(plan_->replica_groups[block].size());
  }
  metrics_ = RedundantRunMetrics{};

  for (size_t r = 0; r < replicas_.size(); ++r) {
    rpcs_[r] = transport_->SubmitQuery(replicas_[r].device, r + 1, x,
                                       kReplicaDeadlineS,
                                       /*start_delay_s=*/0.0);
  }
  size_t pending = replicas_.size();
  while (pending > 0) {
    completions_.clear();
    transport_->PollInto(&completions_, /*max_wait_s=*/0.05);
    for (net::Completion& completion : completions_) {
      const auto it = std::find(rpcs_.begin(), rpcs_.end(), completion.id);
      if (it == rpcs_.end()) continue;
      *it = 0;
      --pending;
      if (completion.kind != net::Completion::Kind::kResponse) {
        transport_->Cancel(completion.id);  // a timed-out RPC stays open
        continue;
      }
      const Replica& replica = replicas_[it - rpcs_.begin()];
      const size_t block = replica.block;
      const double now = transport_->Now();
      if (replica.ordinal == 0) primary_response_time_[block] = now;
      last_response_time_[block] = now;
      std::vector<double>& values = completion.values;
      if (first_response_time_[block] < 0.0 &&
          values.size() == plan_->base.scheme.row_counts[block] &&
          verifier_.Check(block, std::span<const double>(x),
                          std::span<const double>(values))) {
        first_response_time_[block] = now;
        first_response_[block] = values;
        if (replica.ordinal != 0) ++metrics_.blocks_won_by_replica;
      }
      all_responses_[block][replica.ordinal] = std::move(values);
    }
  }
  const auto last = [start](const std::vector<double>& times) {
    return *std::max_element(times.begin(), times.end()) - start;
  };
  metrics_.query_completion_time = last(first_response_time_);
  metrics_.primary_only_completion_time = last(primary_response_time_);
  return start;
}

std::vector<double> RedundantScecProtocol::RunQuery(
    const std::vector<double>& x) {
  Broadcast(x);
  for (size_t block = 0; block < first_response_time_.size(); ++block) {
    SCEC_CHECK_GE(first_response_time_[block], 0.0)
        << "block " << block << " has no verified answer";
  }
  const std::vector<double> y =
      ConcatenateResponses(plan_->base.scheme, first_response_);
  return SubtractionDecode(deployment_->code, std::span<const double>(y));
}

std::vector<double> RedundantScecProtocol::RunVerifiedQuery(
    const std::vector<double>& x) {
  const double start = Broadcast(x);
  const size_t blocks = plan_->base.scheme.num_devices();

  // Per-block correction through the shared locator. Honest replicas run
  // the identical computation on the identical share, so their responses are
  // bit-equal; any deviation marks a fault. Full replication is the
  // degenerate locator instance — one unit, one single-device candidate per
  // replica — so the majority-vote arithmetic lives in
  // coding/byzantine_decoder.h instead of being hand-rolled here.
  const auto equal = [](const std::vector<double>& lhs,
                        const std::vector<double>& rhs) { return lhs == rhs; };
  std::vector<std::vector<double>> voted(blocks);
  double verified_completion = 0.0;
  for (size_t block = 0; block < blocks; ++block) {
    const auto& candidates = all_responses_[block];
    SCEC_CHECK(!candidates.empty());
    verified_completion =
        std::max(verified_completion, last_response_time_[block]);

    const MajorityOutcome vote = MajorityVote(candidates, equal);
    if (!vote.disagreement) {
      voted[block] = candidates[vote.best_index];
      continue;
    }
    ++metrics_.blocks_with_disagreement;

    DecodeUnit<std::vector<double>> unit;
    for (size_t i = 0; i < candidates.size(); ++i) {
      unit.candidates.push_back(
          {candidates[i], {plan_->replica_groups[block][i]}});
    }
    LocatorLimits limits;
    limits.max_guilty = candidates.size() - 1;
    const LocateResult<std::vector<double>> located = LocateAndDecode(
        std::vector<DecodeUnit<std::vector<double>>>{std::move(unit)},
        /*flagged=*/{}, limits, equal);
    if (located.located && !located.ambiguous) {
      voted[block] = located.values.front();
    } else {
      // No unique honest explanation (tie, or all-distinct responses): keep
      // the first-maximum candidate and flag the run as untrustworthy.
      ++metrics_.blocks_unresolved;
      voted[block] = candidates[vote.best_index];
    }
  }
  metrics_.verified_completion_time = verified_completion - start;

  const std::vector<double> y =
      ConcatenateResponses(plan_->base.scheme, voted);
  return SubtractionDecode(deployment_->code, std::span<const double>(y));
}

}  // namespace scec::sim
