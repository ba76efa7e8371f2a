// SPDX-License-Identifier: MIT

#include "sim/fault_tolerant_protocol.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "allocation/cost_model.h"
#include "coding/byzantine_decoder.h"
#include "core/byzantine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scec::sim {
namespace {

// Lazily-fetched global instruments for the resilience layer (same idiom as
// ReliableChannel::ChannelMetrics): one lookup, then atomic-only updates.
struct ResilienceMetrics {
  obs::Counter& hedges_dispatched;
  obs::Counter& hedges_won;
  obs::Counter& hedges_cancelled;
  obs::Counter& hedge_staging_aborts;
  obs::Counter& adaptive_deadlines;
  obs::Counter& byzantine_flagged;
  obs::Counter& byzantine_masked;
  obs::Counter& byzantine_located;
  obs::Counter& reputation_quarantines;
  obs::Counter& reputation_readmissions;
  obs::Counter& reputation_canaries;
  obs::Histogram& adaptive_deadline_seconds;
  obs::Histogram& device_response_seconds;

  static ResilienceMetrics& Get() {
    static ResilienceMetrics metrics;
    return metrics;
  }

 private:
  ResilienceMetrics()
      : hedges_dispatched(obs::MetricsRegistry::Global().GetCounter(
            "scec_hedges_total", {{"outcome", "dispatched"}})),
        hedges_won(obs::MetricsRegistry::Global().GetCounter(
            "scec_hedges_total", {{"outcome", "won"}})),
        hedges_cancelled(obs::MetricsRegistry::Global().GetCounter(
            "scec_hedges_total", {{"outcome", "cancelled"}})),
        hedge_staging_aborts(obs::MetricsRegistry::Global().GetCounter(
            "scec_hedge_staging_aborts_total")),
        adaptive_deadlines(obs::MetricsRegistry::Global().GetCounter(
            "scec_adaptive_deadlines_total")),
        byzantine_flagged(obs::MetricsRegistry::Global().GetCounter(
            "scec_byzantine_total", {{"event", "flagged"}})),
        byzantine_masked(obs::MetricsRegistry::Global().GetCounter(
            "scec_byzantine_total", {{"event", "masked_query"}})),
        byzantine_located(obs::MetricsRegistry::Global().GetCounter(
            "scec_byzantine_total", {{"event", "located_liar"}})),
        reputation_quarantines(obs::MetricsRegistry::Global().GetCounter(
            "scec_reputation_total", {{"event", "quarantine"}})),
        reputation_readmissions(obs::MetricsRegistry::Global().GetCounter(
            "scec_reputation_total", {{"event", "readmit"}})),
        reputation_canaries(obs::MetricsRegistry::Global().GetCounter(
            "scec_reputation_total", {{"event", "canary"}})),
        adaptive_deadline_seconds(obs::MetricsRegistry::Global().GetHistogram(
            "scec_adaptive_deadline_seconds")),
        device_response_seconds(obs::MetricsRegistry::Global().GetHistogram(
            "scec_device_response_seconds")) {}
};

// Crash-recovery instruments (scec_recovery_*), same lazy idiom.
struct RecoveryInstruments {
  obs::Counter& restarts;
  obs::Counter& resumed_responses;
  obs::Counter& restored_segments;
  obs::Counter& restored_evictions;

  static RecoveryInstruments& Get() {
    static RecoveryInstruments instruments;
    return instruments;
  }

 private:
  RecoveryInstruments()
      : restarts(obs::MetricsRegistry::Global().GetCounter(
            "scec_recovery_total", {{"event", "restart"}})),
        resumed_responses(obs::MetricsRegistry::Global().GetCounter(
            "scec_recovery_total", {{"event", "resumed_response"}})),
        restored_segments(obs::MetricsRegistry::Global().GetCounter(
            "scec_recovery_total", {{"event", "restored_segment"}})),
        restored_evictions(obs::MetricsRegistry::Global().GetCounter(
            "scec_recovery_total", {{"event", "restored_eviction"}})) {}
};

// Pad seeds for coordinator incarnation `generation`. Generation 0 keeps the
// seed verbatim (bit-identical to the pre-journal runtime); restarts mix the
// generation in so no incarnation ever replays another's pad stream.
uint64_t GenerationSeed(uint64_t seed, uint32_t generation) {
  if (generation == 0) return seed;
  SplitMix64 mix(seed ^ (0x9E3779B97F4A7C15ull * generation));
  return mix.Next();
}

}  // namespace

namespace {

// Helpers for the session-based constructor: both dereference through a
// checked pointer so a null session fails loudly whichever argument the
// compiler evaluates first.
const Deployment<double>* SessionDeployment(
    const DeploymentSession<double>* session) {
  SCEC_CHECK(session != nullptr);
  return &session->deployment();
}

FaultToleranceOptions WithSessionGeneration(
    FaultToleranceOptions ft, const DeploymentSession<double>* session) {
  SCEC_CHECK(session != nullptr);
  ft.generation = session->pad_generation();
  return ft;
}

}  // namespace

FaultTolerantScecProtocol::FaultTolerantScecProtocol(
    const DeploymentSession<double>* session, const Matrix<double>* a,
    std::vector<EdgeDevice> fleet_specs, SimOptions options,
    FaultToleranceOptions ft_options)
    : FaultTolerantScecProtocol(SessionDeployment(session), a,
                                std::move(fleet_specs), options,
                                WithSessionGeneration(ft_options, session)) {
  if (session->journal() != nullptr) {
    AttachJournal(session->journal());
  }
}

FaultTolerantScecProtocol::FaultTolerantScecProtocol(
    const Deployment<double>* deployment, const Matrix<double>* a,
    std::vector<EdgeDevice> fleet_specs, SimOptions options,
    FaultToleranceOptions ft_options)
    : deployment_(deployment),
      a_(a),
      options_(options),
      ft_(ft_options),
      straggler_rng_(options.straggler_seed),
      jitter_(ft_options.backoff_jitter, ft_options.jitter_seed),
      verifier_rng_(ft_options.verifier_seed),
      repair_rng_(
          GenerationSeed(ft_options.repair_pad_seed, ft_options.generation)),
      hedge_rng_(
          GenerationSeed(ft_options.hedge_pad_seed, ft_options.generation)),
      guard_rng_(
          GenerationSeed(ft_options.guard_pad_seed, ft_options.generation)),
      fleet_(std::move(fleet_specs)),
      evicted_(fleet_.size(), false) {
  SCEC_CHECK(deployment_ != nullptr);
  SCEC_CHECK(a_ != nullptr);
  SCEC_CHECK_EQ(a_->rows(), deployment_->code.m());
  SCEC_CHECK_EQ(a_->cols(), deployment_->l);
  ft_.retry.Validate();
  SCEC_CHECK_GT(ft_.deadline_factor, 0.0);
  SCEC_CHECK_GT(ft_.min_deadline_s, 0.0);
  SCEC_CHECK_GE(ft_.backoff_jitter, 0.0);
  SCEC_CHECK_LT(ft_.backoff_jitter, 1.0);
  SCEC_CHECK_GE(ft_.timeout_quantile, 0.0);
  SCEC_CHECK_LE(ft_.timeout_quantile, 1.0);
  SCEC_CHECK_GT(ft_.timeout_margin, 0.0);
  SCEC_CHECK_GE(ft_.hedge_quantile, 0.0);
  SCEC_CHECK_LE(ft_.hedge_quantile, 1.0);
  SCEC_CHECK_GT(ft_.hedge_margin, 0.0);
  ft_.estimator.Validate();
  SCEC_CHECK_GE(ft_.num_digests, 1u);
  // Masking is meaningless without quarantine: a tolerance knob forces the
  // reputation layer on (defaults apply unless the caller tuned them).
  if (ft_.byzantine_tolerance > 0) ft_.reputation.enabled = true;
  ft_.reputation.Validate();

  for (size_t fleet_index : deployment_->plan.participating) {
    SCEC_CHECK_LT(fleet_index, fleet_.size())
        << "fleet_specs must cover every participating device";
  }
  latency_.assign(fleet_.size(), LatencyEstimator(ft_.estimator));
  reputation_ = ReputationTracker(fleet_.size(), ft_.reputation);
  views_ = CumulativeViews(fleet_.size(), a_->rows());
  BuildTopology();

  // The base deployment is segment 0: all m data rows, the planner's scheme,
  // participating fleet indices as the physical mapping.
  AddSegment(CodedSegment(AllRows(a_->rows()), deployment_->code,
                          deployment_->plan.scheme,
                          deployment_->plan.participating),
             deployment_->shares);
  recovery_.base_plan_cost = deployment_->plan.allocation.total_cost;
  recovery_.generation = ft_.generation;
}

void FaultTolerantScecProtocol::AttachJournal(
    recovery::QueryJournal* journal) {
  SCEC_CHECK(!staged_) << "AttachJournal() must precede Stage()";
  journal_ = journal;
}

void FaultTolerantScecProtocol::JournalAppend(recovery::JournalEvent event,
                                              bool committed) {
  if (journal_ == nullptr) return;
  event.generation = ft_.generation;
  if (committed) {
    journal_->AppendCommitted(event);
  } else {
    journal_->Append(event);
  }
}

size_t FaultTolerantScecProtocol::num_evicted() const {
  return static_cast<size_t>(
      std::count(evicted_.begin(), evicted_.end(), true));
}

void FaultTolerantScecProtocol::BuildTopology() {
  if (options_.loss_probability > 0.0) {
    channel_ = std::make_unique<ReliableChannel>(
        &queue_, &network_, options_.loss_probability, options_.loss_seed,
        options_.retransmit_jitter, options_.retransmit_jitter_seed);
  }
  // Links for the FULL fleet (node id = fleet index): recovery can re-plan
  // onto any surviving device, whether or not segment 0 used it.
  for (size_t d = 0; d < fleet_.size(); ++d) {
    const EdgeDevice& spec = fleet_[d];
    const NodeId node = DeviceNode(d);
    network_.AddLink(kCloudNode, node,
                     LinkSpec{spec.link_latency_s, spec.downlink_bps});
    network_.AddLink(node, kCloudNode,
                     LinkSpec{spec.link_latency_s, spec.uplink_bps});
    network_.AddLink(kUserNode, node,
                     LinkSpec{spec.link_latency_s, spec.downlink_bps});
    network_.AddLink(node, kUserNode,
                     LinkSpec{spec.link_latency_s, spec.uplink_bps});
  }
}

void FaultTolerantScecProtocol::SendMsg(NodeId from, NodeId to, uint64_t bytes,
                                        EventQueue::Callback on_delivered,
                                        EventQueue::Callback on_failure) {
  if (channel_ != nullptr) {
    channel_->Send(from, to, bytes, std::move(on_delivered),
                   std::move(on_failure), options_.retransmit_timeout_s,
                   options_.max_retries);
  } else {
    network_.Send(from, to, bytes, std::move(on_delivered));
  }
}

void FaultTolerantScecProtocol::AddSegment(
    CodedSegment layout, std::vector<DeviceShare<double>> shares) {
  SCEC_CHECK_EQ(shares.size(), layout.num_slots());
  views_.Add(layout);

  const size_t seg_index = segments_.size();
  Segment seg{std::move(layout),
              ResultVerifier<double>::Create(shares, verifier_rng_,
                                             ft_.num_digests),
              {}, {}, {}, false};
  seg.share_rows.reserve(shares.size());
  for (DeviceShare<double>& share : shares) {
    seg.share_rows.push_back(std::move(share.coded_rows));
  }
  for (size_t j = 0; j < seg.layout.num_slots(); ++j) {
    const size_t phys_index = seg.layout.devices()[j];
    seg.actors.push_back(std::make_unique<EdgeDeviceActor>(
        phys_index, fleet_[phys_index], &queue_, &network_, &options_,
        &straggler_rng_,
        [this, seg_index, j](size_t, std::vector<double> response) {
          OnResponse(seg_index, j, std::move(response));
        },
        channel_.get()));
  }
  seg.responses.assign(seg.layout.num_slots(), std::nullopt);
  segments_.push_back(std::move(seg));

  // Journal the new segment's shape so a restarted coordinator can
  // re-account its pad columns. The base segment (index 0) is added in the
  // constructor, before any journal can be attached — deliberately: it is
  // rebuilt from the sealed snapshot, not the journal, and its pad VALUES
  // must never leave the coordinator. Only shapes are journaled, ever.
  if (journal_ != nullptr) {
    recovery::JournalEvent event;
    event.kind = recovery::JournalEventKind::kSegmentAdded;
    event.segment = seg_index;
    event.segment_record = SegmentRecord(segments_.back().layout, seg_index);
    JournalAppend(std::move(event), /*committed=*/true);
  }
}

void FaultTolerantScecProtocol::StageSegment(size_t segment_index) {
  StageSegmentAsync(
      segment_index,
      [this, segment_index]() { segments_[segment_index].staged = true; },
      []() {
        SCEC_CHECK(false) << "reliable transfer exhausted its retry budget";
      });
  queue_.RunUntilEmpty();
  SCEC_CHECK(segments_[segment_index].staged);
}

uint64_t FaultTolerantScecProtocol::StageSegmentAsync(
    size_t segment_index, EventQueue::Callback on_staged,
    EventQueue::Callback on_abort) {
  Segment& seg = segments_[segment_index];
  struct StagingState {
    size_t remaining = 0;
    bool aborted = false;
    EventQueue::Callback on_staged;
    EventQueue::Callback on_abort;
  };
  auto state = std::make_shared<StagingState>();
  state->remaining = seg.actors.size();
  state->on_staged = std::move(on_staged);
  state->on_abort = std::move(on_abort);
  uint64_t total_bytes = 0;
  for (size_t j = 0; j < seg.actors.size(); ++j) {
    const Matrix<double>& share = seg.share_rows[j];
    const uint64_t bytes = static_cast<uint64_t>(
        static_cast<double>(share.size()) * options_.value_bytes);
    metrics_.staging_bytes += bytes;
    total_bytes += bytes;
    EdgeDeviceActor* actor = seg.actors[j].get();
    SendMsg(kCloudNode, DeviceNode(seg.layout.devices()[j]), bytes,
            [actor, share, state]() {
              actor->OnShareDelivered(share);
              if (state->aborted) return;
              // `staged` is NOT set here: the on_staged callback decides.
              // A hedge whose original resolved while shares were in
              // flight must stay unstaged, or every later round-0 would
              // re-query the dead speculative segment.
              if (--state->remaining == 0) state->on_staged();
            },
            [state]() {
              // Lossy link exhausted its retransmit budget: the segment
              // can never fully stage. A hedge is abandoned (the original
              // pending's own deadline/retry path still runs).
              if (state->aborted) return;
              state->aborted = true;
              state->on_abort();
            });
  }
  return total_bytes;
}

void FaultTolerantScecProtocol::Stage() {
  SCEC_CHECK(!staged_) << "Stage() must run exactly once";
  const SimTime stage_start = queue_.now();
  StageSegment(0);
  ProvisionGuards();
  metrics_.staging_completion_time = queue_.now();
  if (obs::Tracer::Enabled()) {
    obs::Tracer::Global().RecordSimSpan("stage", stage_start,
                                        queue_.now() - stage_start,
                                        /*tid=*/fleet_.size());
  }
  {
    recovery::JournalEvent event;
    event.kind = recovery::JournalEventKind::kStageDone;
    event.device = byzantine_tolerance_effective_;
    JournalAppend(std::move(event), /*committed=*/true);
  }
  staged_ = true;
}

void FaultTolerantScecProtocol::ProvisionGuards() {
  if (ft_.byzantine_tolerance == 0) return;
  const std::vector<std::array<size_t, 2>> pairs =
      SelectGuardPairs(fleet_, deployment_->l, deployment_->plan.participating,
                       ft_.byzantine_tolerance);
  const size_t m = a_->rows();
  for (const std::array<size_t, 2>& pair : pairs) {
    // Each guard re-encodes ALL m data rows with fresh pads: pad block on
    // pair[0], mixed block on pair[1].
    CodedSegment layout = PairSegment(AllRows(m), pair[0], pair[1]);
    EncodedDeployment<double> encoded = EncodeSegment(layout, *a_, guard_rng_);
    AddSegment(std::move(layout), std::move(encoded.shares));
    StageSegment(segments_.size() - 1);
    ++recovery_.byzantine_guard_segments;
    recovery_.byzantine_guard_rows += 2 * m;
    // Eq. (1) spend on the surplus, same formula as PlanByzantineMcscec.
    recovery_.byzantine_guard_cost +=
        static_cast<double>(m) *
        (UnitCost(fleet_[pair[0]].costs, deployment_->l) +
         UnitCost(fleet_[pair[1]].costs, deployment_->l));
  }
  byzantine_tolerance_effective_ = pairs.size();
  SCEC_CHECK(VerifyCumulativeSecurity().all_secure)
      << "guard re-encode leaked data rows (cumulative ITS violated)";
  if (obs::Tracer::Enabled() && !pairs.empty()) {
    obs::Tracer::Global().RecordSimInstant(
        "guards(" + std::to_string(pairs.size()) + ")", queue_.now(),
        /*tid=*/fleet_.size(), "fault");
  }
}

double FaultTolerantScecProtocol::ModelDeadlineFor(
    const Pending& pending) const {
  const Segment& seg = segments_[pending.segment];
  const EdgeDevice& spec = fleet_[pending.phys];
  const double l = static_cast<double>(deployment_->l);
  const double v =
      static_cast<double>(seg.layout.scheme().row_counts[pending.local]);
  const double x_bits = l * options_.value_bytes * 8.0;
  const double response_bits = v * options_.value_bytes * 8.0;
  const double flops = v * (2.0 * l - 1.0);
  const double estimate = 2.0 * spec.link_latency_s +
                          x_bits / spec.downlink_bps +
                          flops / spec.compute_rate_flops +
                          response_bits / spec.uplink_bps;
  return std::max(ft_.min_deadline_s, ft_.deadline_factor * estimate);
}

double FaultTolerantScecProtocol::DeadlineFor(const Pending& pending) {
  const double model = ModelDeadlineFor(pending);
  if (!ft_.adaptive_timeouts) return model;
  const LatencyEstimator& est = latency_[pending.phys];
  if (!est.HasEstimate()) return model;  // cold start: model-based budget
  const double deadline =
      std::max(ft_.min_deadline_s,
               ft_.timeout_margin * est.Quantile(ft_.timeout_quantile));
  ++recovery_.adaptive_deadlines;
  ResilienceMetrics::Get().adaptive_deadlines.Increment();
  ResilienceMetrics::Get().adaptive_deadline_seconds.Observe(deadline);
  return deadline;
}

double FaultTolerantScecProtocol::HedgeDelayFor(const Pending& pending) const {
  const LatencyEstimator& est = latency_[pending.phys];
  if (est.HasEstimate()) {
    return std::max(ft_.min_deadline_s,
                    ft_.hedge_margin * est.Quantile(ft_.hedge_quantile));
  }
  // Cold start: hedge at half the eviction deadline, so speculation still
  // beats the timeout+retry path before a latency profile exists.
  return 0.5 * ModelDeadlineFor(pending);
}

void FaultTolerantScecProtocol::Resolve(Pending* pending,
                                        PendingOutcome outcome) {
  SCEC_CHECK(!pending->accepted && !pending->failed && !pending->cancelled)
      << "pending resolved twice";
  switch (outcome) {
    case PendingOutcome::kAccepted:
      pending->accepted = true;
      break;
    case PendingOutcome::kFailed:
      pending->failed = true;
      break;
    case PendingOutcome::kCancelled:
      pending->cancelled = true;
      break;
  }
  SCEC_CHECK_GT(round_unresolved_, 0u);
  if (--round_unresolved_ == 0) {
    // The round is settled the moment its last pending resolves; trailing
    // events (a cancelled straggler's late response, stale deadlines) no
    // longer affect completion time. Hedge dispatches can re-raise the
    // count, in which case a later settle overwrites this one.
    round_settled_s_ = queue_.now();
  }
}

void FaultTolerantScecProtocol::Dispatch(Pending* pending) {
  ++pending->attempts;
  const size_t attempt = pending->attempts;
  if (attempt == 1) {
    pending->dispatch_s = queue_.now();
    // Fresh (first-attempt, non-hedge) work earns the retry budget its
    // future recovery spend; retries and hedges only ever withdraw.
    if (ft_.retry_budget != nullptr && !pending->is_hedge) {
      ft_.retry_budget->OnFreshDispatch();
    }
  } else if (obs::Tracer::Enabled()) {
    obs::Tracer::Global().RecordSimInstant(
        "retry attempt " + std::to_string(attempt), queue_.now(),
        /*tid=*/pending->phys, "fault");
  }
  ++recovery_.queries_dispatched;
  EdgeDeviceActor* actor =
      segments_[pending->segment].actors[pending->local].get();
  const std::vector<double> x = *current_x_;
  const uint64_t x_bytes = static_cast<uint64_t>(
      static_cast<double>(x.size()) * options_.value_bytes);
  metrics_.query_uplink_bytes += x_bytes;
  // Write-ahead the billing entry (group-committed in CollectRound): the
  // uplink spend is journaled before the bytes move, so a crash can lose the
  // dispatch but never bill one that was not journaled first.
  if (journal_ != nullptr) {
    recovery::JournalEvent event;
    event.kind = recovery::JournalEventKind::kDispatch;
    event.query_id = current_query_id_;
    event.segment = pending->segment;
    event.local = pending->local;
    event.device = pending->phys;
    event.attempt = attempt;
    event.bytes = x_bytes;
    JournalAppend(std::move(event), /*committed=*/false);
  }
  SendMsg(kUserNode, DeviceNode(pending->phys), x_bytes,
          [actor, x]() { actor->OnQueryDelivered(x); },
          /*on_failure=*/nullptr);

  // Arm the hedge trigger once per pending, on the first dispatch: if the
  // device is still unresolved past its hedge threshold, speculate.
  if (ft_.hedging && attempt == 1 && !pending->is_hedge &&
      pending->hedge_group == kNoHedgeGroup) {
    queue_.ScheduleAfter(HedgeDelayFor(*pending),
                         [this, pending]() { MaybeHedge(pending); });
  }

  queue_.ScheduleAfter(DeadlineFor(*pending), [this, pending, attempt]() {
    if (pending->accepted || pending->failed || pending->cancelled) return;
    // A later dispatch owns the live deadline; this one is stale.
    if (pending->attempts != attempt) return;
    ++recovery_.deadline_timeouts;
    if (obs::Tracer::Enabled()) {
      obs::Tracer::Global().RecordSimInstant("deadline_timeout", queue_.now(),
                                             /*tid=*/pending->phys, "fault");
    }
    if (ft_.reputation.enabled) {
      const bool was_usable = reputation_.Usable(pending->phys);
      reputation_.RecordTimeout(pending->phys);
      if (was_usable && !reputation_.Usable(pending->phys)) {
        ++recovery_.devices_quarantined;
        ResilienceMetrics::Get().reputation_quarantines.Increment();
        if (obs::Tracer::Enabled()) {
          obs::Tracer::Global().RecordSimInstant(
              "quarantine(timeout)", queue_.now(), /*tid=*/pending->phys,
              "fault");
        }
        recovery::JournalEvent event;
        event.kind = recovery::JournalEventKind::kEvict;
        event.query_id = current_query_id_;
        event.device = pending->phys;
        event.attempt = recovery::kEvictReasonQuarantine;
        JournalAppend(std::move(event), /*committed=*/true);
      }
    }
    bool fail_fast = pending->attempts >= ft_.retry.max_attempts;
    if (!fail_fast && ft_.retry_budget != nullptr &&
        !ft_.retry_budget->TrySpend()) {
      // Adaptive retry throttling: the shared budget is dry, so another
      // retry would only amplify the storm. Fail fast exactly as if the
      // attempt limit were reached — evict, and let the recovery re-plan
      // pick the rows up on surviving devices.
      ++recovery_.retries_suppressed;
      fail_fast = true;
    }
    if (fail_fast) {
      Resolve(pending, PendingOutcome::kFailed);
      ++recovery_.devices_evicted_timeout;
      evicted_[pending->phys] = true;
      if (obs::Tracer::Enabled()) {
        obs::Tracer::Global().RecordSimInstant("evict(timeout)", queue_.now(),
                                               /*tid=*/pending->phys, "fault");
      }
      recovery::JournalEvent event;
      event.kind = recovery::JournalEventKind::kEvict;
      event.query_id = current_query_id_;
      event.device = pending->phys;
      event.attempt = recovery::kEvictReasonTimeout;
      JournalAppend(std::move(event), /*committed=*/true);
      return;
    }
    ++recovery_.retries_sent;
    // Deterministic multiplicative jitter: same jitter_seed, same trace.
    const double backoff =
        jitter_.Apply(ft_.retry.BackoffFor(pending->attempts - 1));
    queue_.ScheduleAfter(backoff, [this, pending]() {
      if (pending->accepted || pending->failed || pending->cancelled) return;
      Dispatch(pending);
    });
  });
}

void FaultTolerantScecProtocol::OnResponse(size_t segment, size_t local,
                                           std::vector<double> response) {
  metrics_.query_downlink_bytes += static_cast<uint64_t>(
      static_cast<double>(response.size()) * options_.value_bytes);
  ++recovery_.responses_received;
  recovery_.response_values_received += response.size();

  // Canary probes: a quarantined device's answer is digest-checked and then
  // DISCARDED — it never enters the decode or the pending machinery.
  const auto canary = canary_probes_.find({segment, local});
  if (canary != canary_probes_.end()) {
    const size_t phys = canary->second;
    canary_probes_.erase(canary);
    const bool passed = segments_[segment].verifier.Check(
        local, std::span<const double>(*current_x_),
        std::span<const double>(response));
    if (passed) {
      ++recovery_.canaries_passed;
    } else {
      ++recovery_.canaries_failed;
    }
    if (reputation_.RecordCanaryResult(phys, passed)) {
      ++recovery_.devices_readmitted;
      ResilienceMetrics::Get().reputation_readmissions.Increment();
      if (obs::Tracer::Enabled()) {
        obs::Tracer::Global().RecordSimInstant("readmit", queue_.now(),
                                               /*tid=*/phys, "fault");
      }
      recovery::JournalEvent event;
      event.kind = recovery::JournalEventKind::kEvict;
      event.query_id = current_query_id_;
      event.device = phys;
      event.attempt = recovery::kEvictReasonReadmit;
      JournalAppend(std::move(event), /*committed=*/true);
    }
    return;
  }

  if (segment >= pending_index_.size()) return;
  Pending* pending = pending_index_[segment][local];
  // Not part of this round, a duplicate after a retry, a late response from
  // an already-evicted device, or a pending superseded by a hedge decision.
  if (pending == nullptr || pending->accepted || pending->failed ||
      pending->cancelled) {
    return;
  }

  Segment& seg = segments_[segment];
  if (!seg.verifier.Check(local, std::span<const double>(*current_x_),
                          std::span<const double>(response))) {
    ++recovery_.corrupt_responses;
    Resolve(pending, PendingOutcome::kFailed);
    if (ft_.byzantine_tolerance > 0) {
      // Masking mode: the liar is QUARANTINED (recoverable via canaries)
      // and the locator decodes around it in this same round.
      FlagByzantine(pending->phys);
    } else {
      // A corrupted response is Byzantine behaviour, not noise: evict
      // immediately instead of retrying.
      ++recovery_.devices_evicted_corrupt;
      evicted_[pending->phys] = true;
      if (obs::Tracer::Enabled()) {
        obs::Tracer::Global().RecordSimInstant("evict(corrupt)", queue_.now(),
                                               /*tid=*/pending->phys, "fault");
      }
      recovery::JournalEvent event;
      event.kind = recovery::JournalEventKind::kEvict;
      event.query_id = current_query_id_;
      event.device = pending->phys;
      event.attempt = recovery::kEvictReasonCorrupt;
      JournalAppend(std::move(event), /*committed=*/true);
    }
    return;
  }
  if (pending->attempts > 1) ++recovery_.devices_recovered_by_retry;
  reputation_.RecordVerified(pending->phys);
  Resolve(pending, PendingOutcome::kAccepted);
  const double duration = queue_.now() - pending->dispatch_s;
  latency_[pending->phys].Observe(duration);
  ResilienceMetrics::Get().device_response_seconds.Observe(duration);
  if (obs::Tracer::Enabled()) {
    obs::Tracer::Global().RecordSimSpan(
        "device_response seg" + std::to_string(segment), pending->dispatch_s,
        duration, /*tid=*/pending->phys);
  }
  // Durable before usable: the verified payload is committed to the journal
  // before it enters the decode, so a restarted coordinator can re-verify
  // and re-inject it instead of re-dispatching (and re-billing) the device.
  if (journal_ != nullptr) {
    recovery::JournalEvent event;
    event.kind = recovery::JournalEventKind::kResponse;
    event.query_id = current_query_id_;
    event.segment = segment;
    event.local = local;
    event.device = pending->phys;
    event.values = response;
    JournalAppend(std::move(event), /*committed=*/true);
  }
  seg.responses[local] = std::move(response);

  if (pending->is_hedge) {
    // First answer wins: once every device of the hedge pair has answered,
    // the at-risk rows are decodable without the original — cancel it.
    HedgeGroup& group = hedge_groups_[pending->hedge_group];
    bool all_accepted = true;
    for (const Pending* hedge : group.hedges) {
      all_accepted = all_accepted && hedge->accepted;
    }
    if (all_accepted && !group.original->accepted) {
      if (!group.original->failed && !group.original->cancelled) {
        Resolve(group.original, PendingOutcome::kCancelled);
      }
      ++recovery_.hedges_won;
      ResilienceMetrics::Get().hedges_won.Increment();
      if (obs::Tracer::Enabled()) {
        obs::Tracer::Global().RecordSimInstant(
            "hedge_win", queue_.now(), /*tid=*/group.original->phys, "fault");
      }
      // A hedge is one query's speculation, not permanent redundancy: unless
      // the original was actually evicted (then the hedge doubles as
      // pre-emptive recovery), retire the segment so later queries go back
      // to dispatching the original holder only — otherwise every past hedge
      // would add duplicate sub-queries to every future query.
      if (!group.original->failed) seg.staged = false;
    }
  } else if (pending->hedge_group != kNoHedgeGroup) {
    // The original answered first: drop its speculative duplicate.
    CancelHedges(&hedge_groups_[pending->hedge_group]);
  }
}

void FaultTolerantScecProtocol::CancelHedges(HedgeGroup* group) {
  if (group->abandoned) return;
  group->abandoned = true;
  for (Pending* hedge : group->hedges) {
    if (!hedge->accepted && !hedge->failed && !hedge->cancelled) {
      Resolve(hedge, PendingOutcome::kCancelled);
    }
  }
  ++recovery_.hedges_cancelled;
  ResilienceMetrics::Get().hedges_cancelled.Increment();
  if (obs::Tracer::Enabled()) {
    obs::Tracer::Global().RecordSimInstant(
        "hedge_cancel", queue_.now(), /*tid=*/group->original->phys, "fault");
  }
  // The original answered (or the hedge never fully staged): retire the
  // hedge segment so it is not re-queried by future rounds.
  segments_[group->segment].staged = false;
}

std::vector<size_t> FaultTolerantScecProtocol::RowsAtRisk(
    const Pending& pending) const {
  // Global rows already decodable from verified responses on hand — those
  // are safe regardless of what the straggler does.
  std::vector<bool> decodable(a_->rows(), false);
  for (const Segment& seg : segments_) {
    if (!seg.staged) continue;
    for (size_t p = 0; p < seg.layout.data_rows().size(); ++p) {
      if (DecodeRow(seg.layout, p, seg.responses).has_value()) {
        decodable[seg.layout.data_rows()[p]] = true;
      }
    }
  }
  // Rows whose decode within the pending's segment needs the straggler's
  // block (as the mixed-row holder or the pad holder) and have no verified
  // path yet.
  const CodedSegment& layout = segments_[pending.segment].layout;
  std::vector<size_t> at_risk;
  for (size_t p = 0; p < layout.data_rows().size(); ++p) {
    const size_t global = layout.data_rows()[p];
    if (!decodable[global] && layout.paths()[p].Uses(pending.local)) {
      at_risk.push_back(global);
    }
  }
  return at_risk;
}

bool FaultTolerantScecProtocol::BusyInRound(size_t fleet_index) const {
  const auto busy = [fleet_index](const Pending& pending) {
    return pending.phys == fleet_index && !pending.accepted &&
           !pending.failed && !pending.cancelled;
  };
  if (round_pendings_ != nullptr) {
    for (const Pending& pending : *round_pendings_) {
      if (busy(pending)) return true;
    }
  }
  for (const Pending& pending : hedge_pendings_) {
    if (busy(pending)) return true;
  }
  return false;
}

void FaultTolerantScecProtocol::MaybeHedge(Pending* pending) {
  if (pending->accepted || pending->failed || pending->cancelled) return;
  if (pending->hedge_group != kNoHedgeGroup) return;
  if (hedges_this_query_ >= ft_.max_hedges_per_query) return;

  const std::vector<size_t> rows = RowsAtRisk(*pending);
  if (rows.empty()) return;  // nothing only this device can still yield

  // The two cheapest idle survivors by Eq. (1) unit cost. A PAIR, not one
  // device: hedged rows get fresh pads, and a single device holding both a
  // fresh pad row and the mixed row it masks could subtract and unmask the
  // data — Def. 2 requires the pad holder and the mixed holder to differ.
  // Spare devices (serving no staged segment) are preferred over
  // already-answered participants: speculative compute on a participant is
  // not cancellable once delivered and would queue ahead of its next
  // sub-query, so hedging onto the serving fleet slows every later query.
  std::vector<bool> serving(fleet_.size(), false);
  for (const Segment& seg : segments_) {
    if (!seg.staged) continue;
    for (size_t phys : seg.layout.devices()) serving[phys] = true;
  }
  std::vector<size_t> idle;
  for (size_t d = 0; d < fleet_.size(); ++d) {
    if (!UsableDevice(d) || d == pending->phys || BusyInRound(d)) continue;
    idle.push_back(d);
  }
  if (idle.size() < 2) return;
  // Overload gates, checked only once a hedge is otherwise viable (an
  // earlier check would spend budget on hedges that could never launch):
  // the degradation ladder's kNoHedge rung vetoes via hedging_gate, and the
  // shared retry budget treats a hedge as one unit of recovery spend.
  if (ft_.hedging_gate && !ft_.hedging_gate()) {
    ++recovery_.hedges_suppressed;
    return;
  }
  if (ft_.retry_budget != nullptr && !ft_.retry_budget->TrySpend()) {
    ++recovery_.hedges_suppressed;
    return;
  }
  std::sort(idle.begin(), idle.end(), [&](size_t lhs, size_t rhs) {
    if (serving[lhs] != serving[rhs]) return !serving[lhs];  // spares first
    const double lhs_cost = UnitCost(fleet_[lhs].costs, deployment_->l);
    const double rhs_cost = UnitCost(fleet_[rhs].costs, deployment_->l);
    if (lhs_cost != rhs_cost) return lhs_cost < rhs_cost;
    return lhs < rhs;
  });

  // Mini-segment: the at-risk rows under fresh pads, pad block on one
  // device and mixed block on the other.
  const size_t s = rows.size();
  CodedSegment layout = PairSegment(rows, idle[0], idle[1]);
  EncodedDeployment<double> encoded = EncodeSegment(layout, *a_, hedge_rng_);

  const size_t seg_index = segments_.size();
  AddSegment(std::move(layout), std::move(encoded.shares));
  pending_index_.push_back(std::vector<Pending*>(
      segments_[seg_index].layout.num_slots(), nullptr));

  ++hedges_this_query_;
  ++recovery_.hedges_dispatched;
  recovery_.hedged_rows += s;
  ResilienceMetrics::Get().hedges_dispatched.Increment();
  if (obs::Tracer::Enabled()) {
    obs::Tracer::Global().RecordSimInstant(
        "hedge_dispatch", queue_.now(), /*tid=*/pending->phys, "fault");
  }

  hedge_groups_.emplace_back();
  const size_t group_index = hedge_groups_.size() - 1;
  HedgeGroup& group = hedge_groups_.back();
  group.original = pending;
  group.segment = seg_index;
  pending->hedge_group = group_index;

  recovery_.hedge_staging_bytes += StageSegmentAsync(
      seg_index, [this, group_index]() { DispatchHedge(group_index); },
      [this, group_index]() {
        HedgeGroup& aborted = hedge_groups_[group_index];
        if (aborted.abandoned) return;
        aborted.abandoned = true;
        ++recovery_.hedge_staging_aborts;
        ++recovery_.hedges_cancelled;
        ResilienceMetrics::Get().hedge_staging_aborts.Increment();
        ResilienceMetrics::Get().hedges_cancelled.Increment();
        if (obs::Tracer::Enabled()) {
          obs::Tracer::Global().RecordSimInstant(
              "hedge_stage_abort", queue_.now(),
              /*tid=*/hedge_groups_[group_index].original->phys, "fault");
        }
      });
}

void FaultTolerantScecProtocol::DispatchHedge(size_t group_index) {
  HedgeGroup& group = hedge_groups_[group_index];
  if (group.abandoned) return;
  Pending* original = group.original;
  if (original->accepted || original->cancelled) {
    // The original resolved while the hedge was staging: drop the hedge
    // before it costs any query work. (A FAILED original is different: the
    // staged hedge doubles as pre-emptive recovery and still dispatches.)
    CancelHedges(&group);
    return;
  }
  group.dispatched = true;
  Segment& seg = segments_[group.segment];
  seg.staged = true;
  for (size_t j = 0; j < seg.layout.num_slots(); ++j) {
    Pending& pending = hedge_pendings_.emplace_back(
        Pending{.segment = group.segment,
                .local = j,
                .phys = seg.layout.devices()[j],
                .is_hedge = true,
                .hedge_group = group_index});
    group.hedges.push_back(&pending);
    pending_index_[group.segment][j] = &pending;
    ++round_unresolved_;
  }
  for (Pending* pending : group.hedges) Dispatch(pending);
}

void FaultTolerantScecProtocol::CollectRound(std::vector<Pending>* pendings) {
  pending_index_.assign(segments_.size(), {});
  for (size_t s = 0; s < segments_.size(); ++s) {
    pending_index_[s].assign(segments_[s].layout.num_slots(), nullptr);
  }
  for (Pending& pending : *pendings) {
    pending_index_[pending.segment][pending.local] = &pending;
  }
  round_pendings_ = pendings;
  hedge_pendings_.clear();
  hedge_groups_.clear();
  round_unresolved_ = pendings->size();
  round_settled_s_ = queue_.now();
  for (Pending& pending : *pendings) Dispatch(&pending);
  // Group commit: the whole round's dispatch batch becomes durable in one
  // write before the event loop runs, and any retries/hedges appended during
  // the loop are flushed after it.
  if (journal_ != nullptr) journal_->Commit();
  queue_.RunUntilEmpty();
  if (journal_ != nullptr) journal_->Commit();
  for (const Pending& pending : *pendings) {
    SCEC_CHECK(pending.accepted || pending.failed || pending.cancelled)
        << "collection round ended with an unresolved device";
  }
  for (const Pending& pending : hedge_pendings_) {
    SCEC_CHECK(pending.accepted || pending.failed || pending.cancelled)
        << "collection round ended with an unresolved hedge";
  }
  SCEC_CHECK_EQ(round_unresolved_, 0u);
  round_pendings_ = nullptr;
  pending_index_.clear();
  if (hedges_this_query_ > 0) {
    SCEC_CHECK(VerifyCumulativeSecurity().all_secure)
        << "hedge re-encode leaked data rows (cumulative ITS violated)";
  }
}

std::vector<size_t> FaultTolerantScecProtocol::Decode(
    std::vector<std::optional<double>>* decoded) {
  if (ft_.byzantine_tolerance > 0) return DecodeLocating(decoded);
  for (const Segment& seg : segments_) {
    metrics_.decode_subtractions +=
        DecodeSegment(seg.layout, seg.responses, decoded);
  }
  return MissingRows(*decoded);
}

void FaultTolerantScecProtocol::FlagByzantine(size_t fleet_index) {
  if (std::find(flagged_this_query_.begin(), flagged_this_query_.end(),
                fleet_index) == flagged_this_query_.end()) {
    flagged_this_query_.push_back(fleet_index);
    ResilienceMetrics::Get().byzantine_flagged.Increment();
  }
  if (reputation_.RecordCorrupt(fleet_index)) {
    ++recovery_.devices_quarantined;
    ResilienceMetrics::Get().reputation_quarantines.Increment();
    if (obs::Tracer::Enabled()) {
      obs::Tracer::Global().RecordSimInstant("quarantine", queue_.now(),
                                             /*tid=*/fleet_index, "fault");
    }
    recovery::JournalEvent event;
    event.kind = recovery::JournalEventKind::kEvict;
    event.query_id = current_query_id_;
    event.device = fleet_index;
    event.attempt = recovery::kEvictReasonQuarantine;
    JournalAppend(std::move(event), /*committed=*/true);
  }
}

std::vector<size_t> FaultTolerantScecProtocol::DecodeLocating(
    std::vector<std::optional<double>>* decoded) {
  // Honest candidates of one row agree to rounding; a lying contributor is
  // off by its injected magnitude. Relative tolerance, since A·x scales.
  const auto eq = [](double lhs, double rhs) {
    return std::fabs(lhs - rhs) <=
           1e-9 * std::max({1.0, std::fabs(lhs), std::fabs(rhs)});
  };

  // One DecodeUnit per still-missing global row; one candidate per staged
  // segment whose pad AND mixed responses for the row are both on hand (a
  // digest-flagged response was never stored, so flagged devices simply
  // contribute no path).
  std::vector<size_t> unit_rows;
  std::vector<DecodeUnit<double>> units;
  std::vector<size_t> unit_of(a_->rows(), SIZE_MAX);  // global row -> unit
  for (const Segment& seg : segments_) {
    if (!seg.staged) continue;
    const CodedSegment& layout = seg.layout;
    for (size_t p = 0; p < layout.data_rows().size(); ++p) {
      const size_t global = layout.data_rows()[p];
      if ((*decoded)[global].has_value()) continue;
      const std::optional<double> value = DecodeRow(layout, p, seg.responses);
      if (!value.has_value()) continue;
      size_t& u = unit_of[global];
      if (u == SIZE_MAX) {
        u = unit_rows.size();
        unit_rows.push_back(global);
        units.emplace_back();
      }
      const RowPath& path = layout.paths()[p];
      units[u].candidates.push_back(DecodeCandidate<double>{
          *value, {layout.devices()[path.pad_slot],
                   layout.devices()[path.mixed_slot]}});
    }
  }

  bool located = false;
  if (!units.empty()) {
    LocatorLimits limits;
    limits.max_guilty =
        flagged_this_query_.size() + byzantine_tolerance_effective_;
    const LocateResult<double> result =
        LocateAndDecode(units, flagged_this_query_, limits, eq);
    if (result.used_fallback) ++recovery_.byzantine_fallback_locates;
    if (result.ambiguous) ++recovery_.byzantine_ambiguous_locates;
    if (result.located) {
      located = true;
      for (size_t u = 0; u < unit_rows.size(); ++u) {
        (*decoded)[unit_rows[u]] = result.values[u];
        ++metrics_.decode_subtractions;
      }
      for (size_t device : result.guilty) {
        if (std::find(located_this_query_.begin(), located_this_query_.end(),
                      device) != located_this_query_.end()) {
          continue;
        }
        located_this_query_.push_back(device);
        ++recovery_.byzantine_located_liars;
        ResilienceMetrics::Get().byzantine_located.Increment();
        if (obs::Tracer::Enabled()) {
          obs::Tracer::Global().RecordSimInstant(
              "located_liar", queue_.now(), /*tid=*/device, "fault");
        }
        FlagByzantine(device);
      }
    }
  }
  if (!located) {
    // No consistent locate (> t liars, or broken guard paths): salvage the
    // rows whose candidates are unanimous, leave the rest to recovery.
    for (size_t u = 0; u < units.size(); ++u) {
      const auto& candidates = units[u].candidates;
      bool unanimous = true;
      for (size_t c = 1; c < candidates.size(); ++c) {
        unanimous = unanimous && eq(candidates[c].value, candidates[0].value);
      }
      if (unanimous) {
        (*decoded)[unit_rows[u]] = candidates[0].value;
        ++metrics_.decode_subtractions;
      }
    }
  }

  return MissingRows(*decoded);
}

void FaultTolerantScecProtocol::RunCanaries() {
  if (!ft_.reputation.enabled) return;
  SCEC_CHECK(canary_probes_.empty());
  for (size_t d = 0; d < fleet_.size(); ++d) {
    if (evicted_[d] || !reputation_.CanaryDue(d)) continue;
    // Re-use the device's existing staged share: the probe costs one query
    // round trip and zero staging, and its response never enters a decode.
    for (size_t s = 0; s < segments_.size(); ++s) {
      const Segment& seg = segments_[s];
      bool sent = false;
      for (size_t j = 0; j < seg.layout.num_slots(); ++j) {
        if (seg.layout.devices()[j] != d || !seg.actors[j]->HasShare()) {
          continue;
        }
        canary_probes_[{s, j}] = d;
        reputation_.NoteCanarySent(d);
        ++recovery_.canaries_sent;
        ResilienceMetrics::Get().reputation_canaries.Increment();
        if (obs::Tracer::Enabled()) {
          obs::Tracer::Global().RecordSimInstant("canary", queue_.now(),
                                                 /*tid=*/d, "fault");
        }
        EdgeDeviceActor* actor = seg.actors[j].get();
        const std::vector<double> x = *current_x_;
        const uint64_t x_bytes = static_cast<uint64_t>(
            static_cast<double>(x.size()) * options_.value_bytes);
        metrics_.query_uplink_bytes += x_bytes;
        ++recovery_.queries_dispatched;
        // attempt = 0 marks a canary in the journal: the double-spend audit
        // must not mistake a probe of an already-answered share for a
        // re-billed dispatch.
        if (journal_ != nullptr) {
          recovery::JournalEvent event;
          event.kind = recovery::JournalEventKind::kDispatch;
          event.query_id = current_query_id_;
          event.segment = s;
          event.local = j;
          event.device = d;
          event.attempt = 0;
          event.bytes = x_bytes;
          JournalAppend(std::move(event), /*committed=*/true);
        }
        SendMsg(kUserNode, DeviceNode(d), x_bytes,
                [actor, x]() { actor->OnQueryDelivered(x); },
                /*on_failure=*/nullptr);
        sent = true;
        break;
      }
      if (sent) break;
    }
  }
  if (canary_probes_.empty()) return;
  queue_.RunUntilEmpty();
  // A canary that never came back (crash, omission, loss) fails the streak.
  for (const auto& [key, phys] : canary_probes_) {
    ++recovery_.canaries_failed;
    reputation_.RecordCanaryResult(phys, false);
  }
  canary_probes_.clear();
}

Result<std::vector<double>> FaultTolerantScecProtocol::RunQuery(
    const std::vector<double>& x) {
  SCEC_CHECK(staged_) << "RunQuery() requires Stage() first";
  SCEC_CHECK_EQ(x.size(), deployment_->l);
  const SimTime query_start = queue_.now();
  current_x_ = &x;
  hedges_this_query_ = 0;
  flagged_this_query_.clear();
  located_this_query_.clear();
  reputation_.AdvanceQuery();

  // Admit the query durably before any work: a resumed query keeps its
  // original id (the duplicate kQueryBegin is the resumption marker).
  const bool resuming = resume_query_id_.has_value();
  current_query_id_ = resuming ? *resume_query_id_ : query_seq_++;
  {
    recovery::JournalEvent event;
    event.kind = recovery::JournalEventKind::kQueryBegin;
    event.query_id = current_query_id_;
    event.values = x;
    JournalAppend(std::move(event), /*committed=*/true);
  }

  for (Segment& seg : segments_) {
    seg.responses.assign(seg.layout.num_slots(), std::nullopt);
  }

  // Round 0: query every non-evicted holder across all staged segments
  // (a hedge segment whose staging was abandoned never gets queried).
  // When resuming a crashed query, a base-segment response the previous
  // incarnation journaled is re-verified against x and injected instead of
  // re-dispatched: the device already did the work and was already billed —
  // exactly-once Eq. (1) accounting. Aux segments are never injected: their
  // pads were re-drawn this generation, so old responses cannot verify.
  std::vector<Pending> round;
  for (size_t s = 0; s < segments_.size(); ++s) {
    if (!segments_[s].staged) continue;
    for (size_t j = 0; j < segments_[s].layout.num_slots(); ++j) {
      const size_t phys = segments_[s].layout.devices()[j];
      if (resuming && s == 0) {
        const auto it = resume_responses_.find(j);
        if (it != resume_responses_.end() &&
            segments_[0].verifier.Check(
                j, std::span<const double>(x),
                std::span<const double>(it->second))) {
          segments_[0].responses[j] = it->second;
          ++recovery_.resumed_responses;
          RecoveryInstruments::Get().resumed_responses.Increment();
          if (obs::Tracer::Enabled()) {
            obs::Tracer::Global().RecordSimInstant(
                "resume_inject", queue_.now(), /*tid=*/phys, "fault");
          }
          continue;
        }
      }
      if (UsableDevice(phys)) round.push_back(Pending{s, j, phys});
    }
  }
  if (resuming) {
    resume_responses_.clear();
    resume_query_id_.reset();
  }
  CollectRound(&round);
  // With hedging on, completion is when the round SETTLED (last pending
  // resolved): the event queue also drains a cancelled straggler's late
  // no-op response, which must not count against the hedged latency. With
  // hedging off the two times coincide except for such trailing no-ops, and
  // the drain time is kept for bit-compatibility with prior behaviour.
  double last_round_end = ft_.hedging ? round_settled_s_ : queue_.now();
  double last_round_settle = round_settled_s_;
  recovery_.first_attempt_completion_s = last_round_end - query_start;

  std::vector<std::optional<double>> decoded(a_->rows());
  std::vector<size_t> lost = Decode(&decoded);

  size_t rounds_this_query = 0;
  while (!lost.empty()) {
    if (rounds_this_query >= ft_.max_recovery_rounds) {
      current_x_ = nullptr;
      return Internal("rows still undecodable after " +
                      std::to_string(ft_.max_recovery_rounds) +
                      " recovery rounds");
    }
    ++rounds_this_query;
    SCEC_TRACE_SPAN(
        [&] { return "recovery_round " + std::to_string(rounds_this_query); },
        "fault");
    const SimTime round_start = queue_.now();

    // Re-plan the lost rows with TA2 over the surviving fleet, re-encode
    // with FRESH pads (repair_rng_ never rewinds).
    double plan_cost = 0.0;
    Result<CodedSegment> planned = [&] {
      SCEC_TRACE_SPAN("recovery/replan", "fault");
      return PlanSegment(lost, deployment_->l, fleet_,
                         [this](size_t d) { return UsableDevice(d); },
                         TaAlgorithm::kTA2, &plan_cost);
    }();
    if (!planned.ok()) {
      current_x_ = nullptr;
      return planned.status();
    }
    EncodedDeployment<double> encoded = [&] {
      SCEC_TRACE_SPAN("recovery/re_encode", "fault");
      return EncodeSegment(*planned, *a_, repair_rng_);
    }();

    const SimTime stage_start = queue_.now();
    AddSegment(std::move(planned).value(), std::move(encoded.shares));
    StageSegment(segments_.size() - 1);
    recovery_.recovery_staging_seconds += queue_.now() - stage_start;
    if (obs::Tracer::Enabled()) {
      obs::Tracer::Global().RecordSimSpan("recovery_stage", stage_start,
                                          queue_.now() - stage_start,
                                          /*tid=*/fleet_.size(), "fault");
    }
    ++recovery_.recovery_rounds;
    recovery_.replanned_rows += lost.size();
    recovery_.recovery_plan_cost += plan_cost;

    // Def. 2 must hold for every device's view ACROSS rounds, not just
    // within the new encoding. Exact-rank check; abort on any leak.
    SCEC_CHECK(VerifyCumulativeSecurity().all_secure)
        << "recovery re-encode leaked data rows (cumulative ITS violated)";

    const CodedSegment& layout = segments_.back().layout;
    std::vector<Pending> recovery_round;
    for (size_t j = 0; j < layout.num_slots(); ++j) {
      recovery_round.push_back(
          Pending{segments_.size() - 1, j, layout.devices()[j]});
    }
    CollectRound(&recovery_round);
    last_round_end = ft_.hedging ? round_settled_s_ : queue_.now();
    last_round_settle = round_settled_s_;
    lost = Decode(&decoded);
    if (obs::Tracer::Enabled()) {
      obs::Tracer::Global().RecordSimSpan(
          "recovery_round " + std::to_string(rounds_this_query), round_start,
          queue_.now() - round_start, /*tid=*/fleet_.size(), "fault");
    }
  }

  // A masked query: at least one liar was flagged yet the result decoded in
  // the original round — zero recovery re-plans, the guards absorbed it.
  if (!flagged_this_query_.empty() && rounds_this_query == 0) {
    ++recovery_.byzantine_masked_queries;
    ResilienceMetrics::Get().byzantine_masked.Increment();
    if (obs::Tracer::Enabled()) {
      obs::Tracer::Global().RecordSimInstant("masked_query", queue_.now(),
                                             /*tid=*/fleet_.size(), "fault");
    }
    recovery::JournalEvent event;
    event.kind = recovery::JournalEventKind::kMaskedQuery;
    event.query_id = current_query_id_;
    event.device = flagged_this_query_.size();
    JournalAppend(std::move(event), /*committed=*/false);
  }
  // Probe quarantined devices that are due a canary. Runs after the decode
  // settles, so probe latency never pollutes the completion metrics.
  RunCanaries();

  current_x_ = nullptr;
  recovery_.total_completion_s = last_round_end - query_start;
  recovery_.settled_completion_s = last_round_settle - query_start;
  if (obs::Tracer::Enabled()) {
    obs::Tracer::Global().RecordSimSpan("query", query_start,
                                        queue_.now() - query_start,
                                        /*tid=*/fleet_.size());
  }
  metrics_.query_completion_time = recovery_.total_completion_s;
  metrics_.devices.clear();
  for (const Segment& seg : segments_) {
    for (const auto& actor : seg.actors) {
      metrics_.devices.push_back(actor->metrics());
    }
  }

  std::vector<double> result(decoded.size());
  for (size_t g = 0; g < decoded.size(); ++g) result[g] = *decoded[g];

  // Commit the result record LAST: a crash before this line leaves the
  // query in-flight (the restarted coordinator finishes it); a crash after
  // it must NOT re-run the query — the journal already owns the answer.
  {
    recovery::JournalEvent event;
    event.kind = recovery::JournalEventKind::kQueryResult;
    event.query_id = current_query_id_;
    event.values = result;
    JournalAppend(std::move(event), /*committed=*/true);
  }
  if (journal_ != nullptr) {
    recovery_.journal_events = journal_->events_appended();
    recovery_.journal_commits = journal_->commits();
  }
  return result;
}

void FaultTolerantScecProtocol::RestoreFromReplay(
    const recovery::ReplayState& state) {
  SCEC_CHECK(staged_) << "RestoreFromReplay() requires Stage() first";
  SCEC_CHECK_GT(ft_.generation, 0u)
      << "generation 0 is the original coordinator; nothing to restore";

  // A PREVIOUS incarnation staged these segments. No actors, no shares, no
  // staging: the devices still physically hold those coefficient rows, so
  // the cumulative Def. 2 check must keep seeing them — forgetting a dead
  // generation's pads is exactly how pad reuse would slip past the verifier.
  for (const recovery::JournalSegmentRecord& record : state.prior_segments) {
    views_.Add(SegmentFromRecord(record));
    ++recovery_.restored_segments;
    RecoveryInstruments::Get().restored_segments.Increment();
  }
  for (const size_t device : state.evicted_devices) {
    SCEC_CHECK_LT(device, fleet_.size());
    if (evicted_[device]) continue;
    evicted_[device] = true;
    ++recovery_.restored_evictions;
    RecoveryInstruments::Get().restored_evictions.Increment();
  }
  if (ft_.reputation.enabled) {
    for (const size_t device : state.quarantined_devices) {
      SCEC_CHECK_LT(device, fleet_.size());
      // Re-poison the tracker until the device is quarantined again (its
      // canary path back stays open, same as before the crash).
      for (int i = 0; i < 64 && reputation_.Usable(device); ++i) {
        reputation_.RecordCorrupt(device);
      }
      ++recovery_.restored_evictions;
      RecoveryInstruments::Get().restored_evictions.Increment();
    }
  }
  query_seq_ = state.next_query_id;
  if (state.has_in_flight) {
    resume_query_id_ = state.in_flight_id;
    resume_responses_.clear();
    for (const auto& [local, values] : state.in_flight_responses) {
      resume_responses_[local] = values;
    }
  }

  // The restored cumulative view — this generation's base + guards PLUS all
  // prior generations' segments — must still be ITS-secure. A leak here
  // means a pad stream was replayed across the crash.
  SCEC_CHECK(VerifyCumulativeSecurity().all_secure)
      << "restored cumulative view leaks data rows (pad reuse across restart)";

  RecoveryInstruments::Get().restarts.Increment();
  if (obs::Tracer::Enabled()) {
    obs::Tracer::Global().RecordSimInstant(
        "restart(gen " + std::to_string(ft_.generation) + ")", queue_.now(),
        /*tid=*/fleet_.size(), "fault");
  }
}

}  // namespace scec::sim
