// SPDX-License-Identifier: MIT

#include "net/driver.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"

namespace scec::net {
namespace {

bool Retryable(NetError error) {
  switch (error) {
    case NetError::kTimeout:
    case NetError::kConnReset:
    case NetError::kPartitioned:
    case NetError::kRefused:
      return true;
    default:
      return false;
  }
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

NetCoordinator::NetCoordinator(Matrix<double> a, DeviceFleet fleet,
                               NetCoordinatorOptions options)
    : a_(std::move(a)),
      fleet_(std::move(fleet)),
      options_(options),
      pad_rng_(options.pad_seed),
      digest_rng_(options.digest_seed),
      jitter_(options.backoff_jitter, options.jitter_seed),
      reputation_(fleet_.size(), options.reputation),
      evicted_(fleet_.size(), false),
      views_(fleet_.size(), a_.rows()) {
  SCEC_CHECK_GE(a_.rows(), 1u);
  SCEC_CHECK_GE(a_.cols(), 1u);
  SCEC_CHECK_GE(fleet_.size(), 2u);
  SCEC_CHECK_GT(options_.rpc_deadline_s, 0.0);
  options_.retry.Validate();
}

bool NetCoordinator::UsableDevice(size_t device) const {
  return !evicted_[device] && reputation_.Usable(device);
}

void NetCoordinator::Trace(std::string line) {
  if (options_.record_trace) trace_.push_back(std::move(line));
}

void NetCoordinator::TraceVerified(std::string line) {
  if (options_.record_trace) verified_buffer_.push_back(std::move(line));
}

void NetCoordinator::FlushVerified() {
  if (!options_.record_trace) return;
  // Response arrival order is transport-dependent; sorted flush keeps
  // fault-free traces identical across SimTransport and SocketTransport.
  std::sort(verified_buffer_.begin(), verified_buffer_.end());
  for (std::string& line : verified_buffer_) trace_.push_back(std::move(line));
  verified_buffer_.clear();
}

Status NetCoordinator::VerifyCumulativeOrAbort(const char* stage) {
  const SchemeSecurityReport report = VerifyCumulativeSecurity();
  if (!report.all_secure) {
    return SecurityViolation(std::string(stage) +
                             " leaked data rows (cumulative ITS violated):" +
                             report.LeakSummary());
  }
  Trace(std::string("its_check stage=") + stage + " result=secure");
  return Status::Ok();
}

Status NetCoordinator::Setup(Transport* transport) {
  SCEC_CHECK(transport != nullptr);
  SCEC_CHECK(segments_.empty()) << "Setup() must be called once";
  SCEC_CHECK_EQ(transport->num_devices(), fleet_.size())
      << "transport device ids must equal fleet indices";
  transport_ = transport;

  Result<CodedSegment> planned =
      PlanSegment(AllRows(a_.rows()), a_.cols(), fleet_,
                  [this](size_t d) { return UsableDevice(d); },
                  options_.algorithm);
  SCEC_RETURN_IF_ERROR(planned.status());
  Trace("plan algo=" + std::string(TaAlgorithmName(options_.algorithm)) +
        " m=" + std::to_string(a_.rows()) +
        " r=" + std::to_string(planned->code().r()) +
        " devices=" + std::to_string(planned->num_slots()));

  SCEC_RETURN_IF_ERROR(EncodeAndStage(std::move(planned).value()));
  return VerifyCumulativeOrAbort("setup");
}

Status NetCoordinator::EncodeAndStage(CodedSegment layout) {
  // FRESH pads (pad_rng_ never rewinds).
  EncodedDeployment<double> encoded = EncodeSegment(layout, a_, pad_rng_);
  Segment seg{std::move(layout),
              ResultVerifier<double>::Create(encoded.shares, digest_rng_,
                                             options_.num_digests),
              {}};
  for (size_t slot = 0; slot < seg.layout.num_slots(); ++slot) {
    const uint64_t share_id = next_share_id_++;
    seg.share_ids.push_back(share_id);
    const Matrix<double>& rows = encoded.shares[slot].coded_rows;
    const size_t device = seg.layout.devices()[slot];
    Status staged = transport_->StageShare(device, share_id, rows);
    if (!staged.ok()) {
      // The earlier slots' daemons hold their rows now, so those rows stay
      // in the views and this segment's pad columns are spent. The device
      // died during staging: evict it so a replan routes around it.
      views_.AddStaged(seg.layout, slot);
      evicted_[device] = true;
      ++stats_.evictions;
      Trace("evict d=" + std::to_string(device) + " error=stage_failed");
      return Unavailable("staging to device " + std::to_string(device) +
                         " failed: " + staged.message());
    }
    stats_.staged_value_bytes += 8.0 * rows.rows() * rows.cols();
    Trace("stage seg=" + std::to_string(segments_.size()) +
          " slot=" + std::to_string(slot) + " d=" + std::to_string(device) +
          " rows=" + std::to_string(rows.rows()));
  }
  views_.Add(seg.layout);
  segments_.push_back(std::move(seg));
  return Status::Ok();
}

void NetCoordinator::DispatchSlot(size_t segment_index, size_t slot,
                                  const std::vector<double>& x,
                                  double start_delay_s) {
  const Segment& seg = segments_[segment_index];
  SlotState& state = query_slots_[segment_index][slot];
  const size_t device = seg.layout.devices()[slot];
  const uint64_t rpc =
      transport_->SubmitQuery(device, seg.share_ids[slot], x,
                              options_.rpc_deadline_s, start_delay_s);
  inflight_[rpc] = Inflight{segment_index, slot, /*hedge=*/false};
  state.primary_rpc = rpc;
  ++state.attempts;
  ++stats_.dispatches;
  stats_.query_value_bytes += 8.0 * x.size();
  if (options_.hedge_after_s > 0.0 && state.hedge_alarm == 0) {
    state.hedge_alarm = transport_->AddAlarm(options_.hedge_after_s);
    alarms_[state.hedge_alarm] = Inflight{segment_index, slot, /*hedge=*/true};
  }
  Trace("dispatch seg=" + std::to_string(segment_index) +
        " slot=" + std::to_string(slot) + " d=" + std::to_string(device) +
        " attempt=" + std::to_string(state.attempts));
}

void NetCoordinator::DispatchSegment(size_t segment_index,
                                     const std::vector<double>& x) {
  const std::vector<size_t>& devices =
      segments_[segment_index].layout.devices();
  for (size_t slot = 0; slot < devices.size(); ++slot) {
    SlotState& state = query_slots_[segment_index][slot];
    if (state.phase != SlotPhase::kIdle) continue;
    if (!UsableDevice(devices[slot])) {
      // Evicted or quarantined holder: its rows go straight to recovery.
      state.phase = SlotPhase::kFailed;
      Trace("skip seg=" + std::to_string(segment_index) +
            " slot=" + std::to_string(slot) +
            " d=" + std::to_string(devices[slot]) + " reason=unusable");
      continue;
    }
    state.phase = SlotPhase::kOutstanding;
    ++outstanding_;
    DispatchSlot(segment_index, slot, x, /*start_delay_s=*/0.0);
  }
}

void NetCoordinator::SettleSlot(size_t segment_index, size_t slot,
                                SlotPhase phase) {
  SlotState& state = query_slots_[segment_index][slot];
  SCEC_CHECK(state.phase == SlotPhase::kOutstanding);
  if (state.primary_rpc != 0) {
    inflight_.erase(state.primary_rpc);
    transport_->Cancel(state.primary_rpc);
    state.primary_rpc = 0;
  }
  if (state.hedge_rpc != 0) {
    inflight_.erase(state.hedge_rpc);
    transport_->Cancel(state.hedge_rpc);
    state.hedge_rpc = 0;
  }
  if (state.hedge_alarm != 0) {
    alarms_.erase(state.hedge_alarm);
    transport_->Cancel(state.hedge_alarm);
    state.hedge_alarm = 0;
  }
  state.phase = phase;
  SCEC_CHECK_GT(outstanding_, 0u);
  --outstanding_;
}

void NetCoordinator::HandleResponse(const Completion& completion,
                                    const std::vector<double>& x) {
  ++stats_.responses_seen;
  auto it = inflight_.find(completion.id);
  if (it == inflight_.end()) {
    ++stats_.stale_ignored;  // cancelled hedge loser, late retry, ...
    return;
  }
  const Inflight entry = it->second;
  const Segment& seg = segments_[entry.segment];
  const size_t device = seg.layout.devices()[entry.slot];
  const size_t expected = seg.layout.scheme().row_counts[entry.slot];

  const bool size_ok = completion.values.size() == expected;
  const bool verified =
      size_ok && (!options_.verify_responses ||
                  seg.verifier.Check(entry.slot, std::span<const double>(x),
                                     std::span<const double>(
                                         completion.values)));
  if (!verified) {
    // Byzantine masking: the answer is discarded, never decoded. A digest
    // flag is proof of corruption (no false rejects), so quarantine on the
    // spot and hand the rows to recovery.
    ++stats_.byzantine_flagged;
    const bool newly_quarantined = reputation_.RecordCorrupt(device);
    Trace("byzantine seg=" + std::to_string(entry.segment) +
          " slot=" + std::to_string(entry.slot) +
          " d=" + std::to_string(device) +
          (newly_quarantined ? " quarantined=1" : " quarantined=0"));
    SettleSlot(entry.segment, entry.slot, SlotPhase::kFailed);
    return;
  }

  if (entry.hedge) ++stats_.hedge_wins;
  ++stats_.responses_used;
  stats_.response_value_bytes += 8.0 * completion.values.size();
  reputation_.RecordVerified(device);
  responses_[entry.segment][entry.slot] = completion.values;
  TraceVerified("verified seg=" + std::to_string(entry.segment) +
                " slot=" + std::to_string(entry.slot) +
                " d=" + std::to_string(device));
  SettleSlot(entry.segment, entry.slot, SlotPhase::kDone);
}

void NetCoordinator::HandleError(const Completion& completion,
                                 const std::vector<double>& x) {
  auto it = inflight_.find(completion.id);
  if (it == inflight_.end()) {
    ++stats_.stale_ignored;
    return;
  }
  const Inflight entry = it->second;
  inflight_.erase(it);
  SlotState& state = query_slots_[entry.segment][entry.slot];
  const size_t device = segments_[entry.segment].layout.devices()[entry.slot];
  if (entry.hedge) {
    state.hedge_rpc = 0;
  } else {
    state.primary_rpc = 0;
  }
  if (completion.error == NetError::kTimeout) {
    ++stats_.timeouts;
  } else {
    ++stats_.transport_errors;
  }
  Trace("rpc_error seg=" + std::to_string(entry.segment) +
        " slot=" + std::to_string(entry.slot) + " d=" + std::to_string(device) +
        " error=" + NetErrorName(completion.error));

  // The sibling (primary or hedge) is still racing: let it finish.
  if (state.primary_rpc != 0 || state.hedge_rpc != 0) return;

  if (Retryable(completion.error) &&
      state.attempts < options_.retry.max_attempts) {
    const double backoff =
        jitter_.Apply(options_.retry.BackoffFor(state.attempts - 1));
    ++stats_.retries;
    Trace("retry seg=" + std::to_string(entry.segment) +
          " slot=" + std::to_string(entry.slot) +
          " d=" + std::to_string(device) +
          " attempt=" + std::to_string(state.attempts + 1));
    DispatchSlot(entry.segment, entry.slot, x, backoff);
    return;
  }

  // Retry budget spent (or a non-retryable error): evict the device and
  // recover its rows elsewhere.
  reputation_.RecordTimeout(device);
  if (!evicted_[device]) {
    evicted_[device] = true;
    ++stats_.evictions;
    Trace("evict d=" + std::to_string(device) +
          " error=" + NetErrorName(completion.error));
  }
  SettleSlot(entry.segment, entry.slot, SlotPhase::kFailed);
}

void NetCoordinator::HandleAlarm(const Completion& completion,
                                 const std::vector<double>& x) {
  auto it = alarms_.find(completion.id);
  if (it == alarms_.end()) return;  // slot settled before the alarm fired
  const Inflight entry = it->second;
  alarms_.erase(it);
  const Segment& seg = segments_[entry.segment];
  const size_t device = seg.layout.devices()[entry.slot];
  SlotState& state = query_slots_[entry.segment][entry.slot];
  state.hedge_alarm = 0;
  if (state.phase != SlotPhase::kOutstanding || state.primary_rpc == 0 ||
      state.hedge_rpc != 0) {
    return;
  }
  // The primary is straggling: duplicate it to the same holder (the share
  // is device-bound, so no new view is created — ITS unaffected).
  const uint64_t rpc = transport_->SubmitQuery(
      device, seg.share_ids[entry.slot], x,
      options_.rpc_deadline_s, /*start_delay_s=*/0.0);
  inflight_[rpc] = Inflight{entry.segment, entry.slot, /*hedge=*/true};
  state.hedge_rpc = rpc;
  ++state.attempts;
  ++stats_.dispatches;
  ++stats_.hedges_launched;
  stats_.query_value_bytes += 8.0 * x.size();
  Trace("hedge seg=" + std::to_string(entry.segment) +
        " slot=" + std::to_string(entry.slot) +
        " d=" + std::to_string(device));
}

Status NetCoordinator::WaitOutstanding(const std::vector<double>& x) {
  const double wall_start = WallSeconds();
  std::vector<Completion> completions;
  while (outstanding_ > 0) {
    if (WallSeconds() - wall_start > options_.max_query_wall_s) {
      return Unavailable("query exceeded wall cap of " +
                         std::to_string(options_.max_query_wall_s) + "s");
    }
    completions.clear();
    transport_->PollInto(&completions, /*max_wait_s=*/0.05);
    for (const Completion& completion : completions) {
      switch (completion.kind) {
        case Completion::Kind::kResponse:
          HandleResponse(completion, x);
          break;
        case Completion::Kind::kError:
          HandleError(completion, x);
          break;
        case Completion::Kind::kAlarm:
          HandleAlarm(completion, x);
          break;
      }
    }
  }
  return Status::Ok();
}

Result<size_t> NetCoordinator::PlanRecoverySegment(
    const std::vector<size_t>& lost) {
  // TA2 over the surviving fleet, exactly as the in-sim protocol replans.
  Result<CodedSegment> planned =
      PlanSegment(lost, a_.cols(), fleet_,
                  [this](size_t d) { return UsableDevice(d); },
                  TaAlgorithm::kTA2);
  SCEC_RETURN_IF_ERROR(planned.status());
  Trace("recover rows=" + std::to_string(lost.size()) +
        " devices=" + std::to_string(planned->num_slots()));

  // kUnavailable when a survivor dies during staging: the caller replans
  // the round over whoever remains.
  SCEC_RETURN_IF_ERROR(EncodeAndStage(std::move(planned).value()));
  ++stats_.recovery_rounds;
  stats_.replanned_rows += lost.size();
  SCEC_RETURN_IF_ERROR(VerifyCumulativeOrAbort("recovery"));
  return segments_.size() - 1;
}

Result<std::vector<double>> NetCoordinator::Query(
    const std::vector<double>& x) {
  SCEC_CHECK(transport_ != nullptr) << "call Setup() first";
  if (x.size() != a_.cols()) {
    return InvalidArgument("query length " + std::to_string(x.size()) +
                           " != row width " + std::to_string(a_.cols()));
  }
  reputation_.AdvanceQuery();
  ++stats_.queries;
  Trace("query q=" + std::to_string(stats_.queries));

  query_slots_.assign(segments_.size(), {});
  responses_.assign(segments_.size(), {});
  for (size_t s = 0; s < segments_.size(); ++s) {
    query_slots_[s].assign(segments_[s].layout.num_slots(), SlotState{});
    responses_[s].assign(segments_[s].layout.num_slots(), std::nullopt);
  }
  inflight_.clear();
  alarms_.clear();
  verified_buffer_.clear();
  outstanding_ = 0;

  // Round 0 (+ any recovery segments staged by earlier queries, whose rows
  // may cover holes left by since-evicted devices).
  for (size_t s = 0; s < segments_.size(); ++s) DispatchSegment(s, x);
  SCEC_RETURN_IF_ERROR(WaitOutstanding(x));

  std::vector<std::optional<double>> decoded(a_.rows());
  size_t rounds_this_query = 0;
  for (;;) {
    for (size_t s = 0; s < segments_.size(); ++s) {
      DecodeSegment(segments_[s].layout, responses_[s], &decoded);
    }
    const std::vector<size_t> lost = MissingRows(decoded);
    if (lost.empty()) break;
    if (rounds_this_query >= options_.max_recovery_rounds) {
      return Internal("rows still undecodable after " +
                      std::to_string(options_.max_recovery_rounds) +
                      " recovery rounds");
    }
    ++rounds_this_query;
    Result<size_t> seg = PlanRecoverySegment(lost);
    if (!seg.ok()) {
      if (seg.status().code() == ErrorCode::kUnavailable) continue;
      return seg.status();
    }
    const size_t slots = segments_[*seg].layout.num_slots();
    query_slots_.emplace_back(slots, SlotState{});
    responses_.emplace_back(slots, std::nullopt);
    DispatchSegment(*seg, x);
    SCEC_RETURN_IF_ERROR(WaitOutstanding(x));
  }

  FlushVerified();
  Trace("decode q=" + std::to_string(stats_.queries) +
        " rows=" + std::to_string(a_.rows()) +
        " recovery_rounds=" + std::to_string(rounds_this_query));

  std::vector<double> result(a_.rows());
  for (size_t p = 0; p < result.size(); ++p) result[p] = *decoded[p];
  return result;
}

}  // namespace scec::net
