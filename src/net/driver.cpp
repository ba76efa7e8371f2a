// SPDX-License-Identifier: MIT

#include "net/driver.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "coding/decoder.h"
#include "coding/security_check.h"
#include "common/check.h"
#include "core/problem.h"

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
      views_(fleet_.size()) {
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

void NetCoordinator::AddCumulativeRows(size_t segment_index) {
  const Segment& seg = segments_[segment_index];
  for (size_t slot = 0; slot < seg.devices.size(); ++slot) {
    const size_t device = seg.devices[slot];
    const size_t start = seg.scheme.BlockStart(slot);
    for (size_t row = 0; row < seg.scheme.row_counts[slot]; ++row) {
      const CodedRowSpec spec = seg.code.RowSpec(start + row);
      ViewRow view;
      if (spec.data_row.has_value()) {
        view.data_col = seg.data_rows[*spec.data_row];
      }
      view.pad_col = a_.rows() + pad_cols_ + spec.random_row;
      views_[device].push_back(view);
    }
  }
  pad_cols_ += seg.code.r();
}

SchemeSecurityReport NetCoordinator::VerifyCumulativeSecurity() const {
  return VerifyCumulativeViews(views_, a_.rows());
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

  McscecProblem problem;
  problem.m = a_.rows();
  problem.l = a_.cols();
  problem.fleet = fleet_;
  problem.Validate();

  Result<Plan> planned = PlanMcscec(problem, options_.algorithm);
  SCEC_RETURN_IF_ERROR(planned.status());
  const Plan& plan = planned.value();

  Segment seg{StructuredCode(a_.rows(), plan.allocation.r), plan.scheme,
              plan.participating, {}, {}, {}};
  SCEC_RETURN_IF_ERROR(CheckSchemeSecure(seg.code, seg.scheme));
  seg.data_rows.resize(a_.rows());
  std::iota(seg.data_rows.begin(), seg.data_rows.end(), size_t{0});

  Trace("plan algo=" + std::string(TaAlgorithmName(options_.algorithm)) +
        " m=" + std::to_string(a_.rows()) +
        " r=" + std::to_string(plan.allocation.r) +
        " devices=" + std::to_string(plan.participating.size()));

  EncodedDeployment<double> encoded =
      EncodeDeployment(seg.code, seg.scheme, a_, pad_rng_);
  seg.verifier = ResultVerifier<double>::Create(encoded.shares, digest_rng_,
                                                options_.num_digests);
  for (size_t slot = 0; slot < seg.devices.size(); ++slot) {
    const uint64_t share_id = next_share_id_++;
    seg.share_ids.push_back(share_id);
    const Matrix<double>& rows = encoded.shares[slot].coded_rows;
    SCEC_RETURN_IF_ERROR(
        transport_->StageShare(seg.devices[slot], share_id, rows));
    stats_.staged_value_bytes += 8.0 * rows.rows() * rows.cols();
    Trace("stage seg=0 slot=" + std::to_string(slot) +
          " d=" + std::to_string(seg.devices[slot]) +
          " rows=" + std::to_string(rows.rows()));
  }
  segments_.push_back(std::move(seg));
  AddCumulativeRows(0);
  return VerifyCumulativeOrAbort("setup");
}

void NetCoordinator::DispatchSlot(size_t segment_index, size_t slot,
                                  const std::vector<double>& x,
                                  double start_delay_s) {
  const Segment& seg = segments_[segment_index];
  SlotState& state = query_slots_[segment_index][slot];
  const size_t device = seg.devices[slot];
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
  const Segment& seg = segments_[segment_index];
  for (size_t slot = 0; slot < seg.devices.size(); ++slot) {
    SlotState& state = query_slots_[segment_index][slot];
    if (state.phase != SlotPhase::kIdle) continue;
    if (!UsableDevice(seg.devices[slot])) {
      // Evicted or quarantined holder: its rows go straight to recovery.
      state.phase = SlotPhase::kFailed;
      Trace("skip seg=" + std::to_string(segment_index) +
            " slot=" + std::to_string(slot) +
            " d=" + std::to_string(seg.devices[slot]) + " reason=unusable");
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
  SlotState& state = query_slots_[entry.segment][entry.slot];
  const size_t device = seg.devices[entry.slot];
  const size_t expected = seg.scheme.row_counts[entry.slot];

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
  state.values = completion.values;
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
  const Segment& seg = segments_[entry.segment];
  SlotState& state = query_slots_[entry.segment][entry.slot];
  const size_t device = seg.devices[entry.slot];
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
  SlotState& state = query_slots_[entry.segment][entry.slot];
  state.hedge_alarm = 0;
  if (state.phase != SlotPhase::kOutstanding || state.primary_rpc == 0 ||
      state.hedge_rpc != 0) {
    return;
  }
  // The primary is straggling: duplicate it to the same holder (the share
  // is device-bound, so no new view is created — ITS unaffected).
  const uint64_t rpc = transport_->SubmitQuery(
      seg.devices[entry.slot], seg.share_ids[entry.slot], x,
      options_.rpc_deadline_s, /*start_delay_s=*/0.0);
  inflight_[rpc] = Inflight{entry.segment, entry.slot, /*hedge=*/true};
  state.hedge_rpc = rpc;
  ++state.attempts;
  ++stats_.dispatches;
  ++stats_.hedges_launched;
  stats_.query_value_bytes += 8.0 * x.size();
  Trace("hedge seg=" + std::to_string(entry.segment) +
        " slot=" + std::to_string(entry.slot) +
        " d=" + std::to_string(seg.devices[entry.slot]));
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

void NetCoordinator::CollectDecoded(
    std::vector<std::optional<double>>* decoded) const {
  for (size_t s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    const size_t r = seg.code.r();
    // Availability per coded row of this segment's B.
    std::vector<const double*> row_value(seg.scheme.total_rows(), nullptr);
    for (size_t slot = 0; slot < seg.devices.size(); ++slot) {
      const SlotState& state = query_slots_[s][slot];
      if (state.phase != SlotPhase::kDone) continue;
      const size_t start = seg.scheme.BlockStart(slot);
      for (size_t row = 0; row < seg.scheme.row_counts[slot]; ++row) {
        row_value[start + row] = &state.values[row];
      }
    }
    // A_p·x = y[r+p] − y[p mod r] whenever both coded rows answered.
    for (size_t p = 0; p < seg.code.m(); ++p) {
      const size_t global = seg.data_rows[p];
      if ((*decoded)[global].has_value()) continue;
      const double* mixed = row_value[r + p];
      const double* pad = row_value[p % r];
      if (mixed != nullptr && pad != nullptr) {
        (*decoded)[global] = *mixed - *pad;
      }
    }
  }
}

Result<size_t> NetCoordinator::PlanRecoverySegment(
    const std::vector<size_t>& lost) {
  // TA2 over the surviving fleet, exactly as the in-sim protocol replans.
  std::vector<size_t> survivor_phys;
  DeviceFleet survivors;
  for (size_t d = 0; d < fleet_.size(); ++d) {
    if (!UsableDevice(d)) continue;
    survivor_phys.push_back(d);
    survivors.Add(fleet_[d]);
  }
  if (survivor_phys.size() < 2) {
    return Infeasible("fewer than 2 devices survive; MCSCEC requires k >= 2");
  }
  McscecProblem problem;
  problem.m = lost.size();
  problem.l = a_.cols();
  problem.fleet = std::move(survivors);
  Result<Plan> planned = PlanMcscec(problem, TaAlgorithm::kTA2);
  SCEC_RETURN_IF_ERROR(planned.status());
  const Plan& plan = planned.value();

  Segment seg{StructuredCode(lost.size(), plan.allocation.r), plan.scheme,
              {}, {}, lost, {}};
  SCEC_RETURN_IF_ERROR(CheckSchemeSecure(seg.code, seg.scheme));
  for (size_t survivor_index : plan.participating) {
    seg.devices.push_back(survivor_phys[survivor_index]);
  }

  // FRESH pads (pad_rng_ never rewinds): reusing a pad column would let
  // (old row − new row) cancel it and expose a difference of data rows.
  Matrix<double> a_lost(lost.size(), a_.cols());
  for (size_t p = 0; p < lost.size(); ++p) {
    a_lost.SetRow(p, a_.Row(lost[p]));
  }
  EncodedDeployment<double> encoded =
      EncodeDeployment(seg.code, seg.scheme, a_lost, pad_rng_);
  seg.verifier = ResultVerifier<double>::Create(encoded.shares, digest_rng_,
                                                options_.num_digests);

  Trace("recover rows=" + std::to_string(lost.size()) +
        " devices=" + std::to_string(seg.devices.size()));
  for (size_t slot = 0; slot < seg.devices.size(); ++slot) {
    const uint64_t share_id = next_share_id_++;
    seg.share_ids.push_back(share_id);
    const Matrix<double>& rows = encoded.shares[slot].coded_rows;
    const size_t device = seg.devices[slot];
    Status staged = transport_->StageShare(device, share_id, rows);
    if (!staged.ok()) {
      // The chosen survivor died during staging: evict it and let the
      // caller replan the round over whoever remains.
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

  segments_.push_back(std::move(seg));
  AddCumulativeRows(segments_.size() - 1);
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
  for (size_t s = 0; s < segments_.size(); ++s) {
    query_slots_[s].assign(segments_[s].devices.size(), SlotState{});
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
  CollectDecoded(&decoded);
  std::vector<size_t> lost;
  for (size_t p = 0; p < decoded.size(); ++p) {
    if (!decoded[p].has_value()) lost.push_back(p);
  }

  size_t rounds_this_query = 0;
  while (!lost.empty()) {
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
    query_slots_.resize(segments_.size());
    query_slots_[*seg].assign(segments_[*seg].devices.size(), SlotState{});
    DispatchSegment(*seg, x);
    SCEC_RETURN_IF_ERROR(WaitOutstanding(x));
    CollectDecoded(&decoded);
    lost.clear();
    for (size_t p = 0; p < decoded.size(); ++p) {
      if (!decoded[p].has_value()) lost.push_back(p);
    }
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
