// SPDX-License-Identifier: MIT

#include "net/driver.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>
#include <utility>

#include "allocation/cost_model.h"
#include "coding/byzantine_decoder.h"
#include "common/check.h"
#include "common/timer.h"
#include "core/byzantine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scec::net {
namespace {

using recovery::JournalEvent;
using recovery::JournalEventKind;

// Model deadline = kDeadlineFactor × the modeled round trip; adaptive
// deadline = kTimeoutMargin × the observed kTimeoutQuantile.
constexpr double kDeadlineFactor = 4.0;
constexpr double kTimeoutQuantile = 0.99;
constexpr double kTimeoutMargin = 3.0;
constexpr size_t kMaxHedgesPerQuery = 4;

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

// Pad seed of coordinator incarnation `generation`: generation 0 keeps the
// seed verbatim, restarts mix the generation in so no incarnation ever
// replays another's pad stream.
uint64_t GenerationSeed(uint64_t seed, uint32_t generation) {
  if (generation == 0) return seed;
  SplitMix64 mix(seed ^ (0x9E3779B97F4A7C15ull * generation));
  return mix.Next();
}

obs::Counter& Count(const char* name, const char* key, const char* value) {
  return obs::MetricsRegistry::Global().GetCounter(name, {{key, value}});
}

// Lazily-fetched global instruments: one lookup, then atomic-only updates.
struct Instruments {
  static Instruments& Get() {
    static Instruments instruments;
    return instruments;
  }

  obs::Counter& hedges_dispatched =
      Count("scec_hedges_total", "outcome", "dispatched");
  obs::Counter& hedges_won = Count("scec_hedges_total", "outcome", "won");
  obs::Counter& hedges_cancelled =
      Count("scec_hedges_total", "outcome", "cancelled");
  obs::Counter& adaptive_deadlines =
      obs::MetricsRegistry::Global().GetCounter("scec_adaptive_deadlines_total");
  obs::Counter& byzantine_flagged =
      Count("scec_byzantine_total", "event", "flagged");
  obs::Counter& byzantine_masked =
      Count("scec_byzantine_total", "event", "masked_query");
  obs::Counter& byzantine_located =
      Count("scec_byzantine_total", "event", "located_liar");
  obs::Counter& quarantines =
      Count("scec_reputation_total", "event", "quarantine");
  obs::Counter& readmissions =
      Count("scec_reputation_total", "event", "readmit");
  obs::Counter& canaries = Count("scec_reputation_total", "event", "canary");
  obs::Counter& restarts = Count("scec_recovery_total", "event", "restart");
  obs::Counter& resumed_responses =
      Count("scec_recovery_total", "event", "resumed_response");
  obs::Counter& restored_segments =
      Count("scec_recovery_total", "event", "restored_segment");
  obs::Counter& restored_evictions =
      Count("scec_recovery_total", "event", "restored_eviction");
  obs::Histogram& adaptive_deadline_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "scec_adaptive_deadline_seconds");
  obs::Histogram& device_response_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "scec_device_response_seconds");
};

// Instants and spans on the transport clock (the simulator's under
// SimTransport). A name may be a callable, built only while tracing.
template <typename Name>
std::string Label(Name&& name) {
  if constexpr (std::is_invocable_v<Name>) {
    return name();
  } else {
    return std::string(name);
  }
}

template <typename Name>
void Instant(Name&& name, double at_s, size_t tid) {
  if (obs::Tracer::Enabled()) {
    obs::Tracer::Global().RecordSimInstant(Label(name), at_s, tid, "fault");
  }
}

template <typename Name>
void SimSpan(Name&& name, double start_s, double end_s, size_t tid,
             const char* category = "sim") {
  if (obs::Tracer::Enabled()) {
    obs::Tracer::Global().RecordSimSpan(Label(name), start_s,
                                        end_s - start_s, tid, category);
  }
}

NetCoordinatorOptions Normalized(NetCoordinatorOptions options) {
  // Masking is meaningless without quarantine.
  if (options.byzantine_tolerance > 0) options.reputation.enabled = true;
  return options;
}

std::string S(size_t value) { return std::to_string(value); }

// Every ledger field in export order, plus two derived ones.
std::vector<std::pair<const char*, double>> StatsFields(
    const NetCoordinatorStats& s) {
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"queries", d(s.queries)},
      {"dispatches", d(s.dispatches)},
      {"responses_seen", d(s.responses_seen)},
      {"responses_used", d(s.responses_used)},
      {"retries", d(s.retries)},
      {"retries_suppressed", d(s.retries_suppressed)},
      {"timeouts", d(s.timeouts)},
      {"transport_errors", d(s.transport_errors)},
      {"stale_ignored", d(s.stale_ignored)},
      {"evictions", d(s.evictions)},
      {"evictions_corrupt", d(s.evictions_corrupt)},
      {"hedges_launched", d(s.hedges_launched)},
      {"hedge_wins", d(s.hedge_wins)},
      {"hedges_cancelled", d(s.hedges_cancelled)},
      {"hedges_suppressed", d(s.hedges_suppressed)},
      {"hedged_rows", d(s.hedged_rows)},
      {"adaptive_deadlines", d(s.adaptive_deadlines)},
      {"recovery_rounds", d(s.recovery_rounds)},
      {"replanned_rows", d(s.replanned_rows)},
      {"base_plan_cost", s.base_plan_cost},
      {"recovery_plan_cost", s.recovery_plan_cost},
      {"staged_value_bytes", s.staged_value_bytes},
      {"query_value_bytes", s.query_value_bytes},
      {"response_value_bytes_seen", s.response_value_bytes_seen},
      {"response_value_bytes", s.response_value_bytes},
      {"first_round_s", s.first_round_s},
      {"last_query_s", s.last_query_s},
      {"recovery_latency_s", s.last_query_s - s.first_round_s},
      {"hedge_rate", s.dispatches == 0 ? 0.0
                                       : d(s.hedges_launched) /
                                             d(s.dispatches)},
      {"byzantine_flagged", d(s.byzantine_flagged)},
      {"byzantine_guard_segments", d(s.byzantine_guard_segments)},
      {"byzantine_guard_rows", d(s.byzantine_guard_rows)},
      {"byzantine_guard_cost", s.byzantine_guard_cost},
      {"byzantine_masked_queries", d(s.byzantine_masked_queries)},
      {"byzantine_located_liars", d(s.byzantine_located_liars)},
      {"byzantine_fallback_locates", d(s.byzantine_fallback_locates)},
      {"byzantine_ambiguous_locates", d(s.byzantine_ambiguous_locates)},
      {"devices_quarantined", d(s.devices_quarantined)},
      {"devices_readmitted", d(s.devices_readmitted)},
      {"canaries_sent", d(s.canaries_sent)},
      {"canaries_passed", d(s.canaries_passed)},
      {"canaries_failed", d(s.canaries_failed)},
      {"generation", d(s.generation)},
      {"restored_segments", d(s.restored_segments)},
      {"restored_evictions", d(s.restored_evictions)},
      {"resumed_responses", d(s.resumed_responses)},
  };
}

}  // namespace

std::string ToJson(const NetCoordinatorStats& stats) {
  std::ostringstream os;
  os.precision(17);
  os << '{';
  const char* sep = "";
  for (const auto& [name, value] : StatsFields(stats)) {
    os << sep << '"' << name << "\":" << value;
    sep = ",";
  }
  os << '}';
  return os.str();
}

std::string NetCoordinatorStatsCsvHeader() {
  std::string header;
  for (const auto& [name, value] : StatsFields(NetCoordinatorStats{})) {
    header += (header.empty() ? "" : ",") + std::string(name);
  }
  return header;
}

std::string ToCsvRow(const NetCoordinatorStats& stats) {
  std::ostringstream os;
  os.precision(17);
  const char* sep = "";
  for (const auto& [name, value] : StatsFields(stats)) {
    os << sep << value;
    sep = ",";
  }
  return os.str();
}

std::string ReconcileLedgers(const NetCoordinatorStats& driver,
                             const NetTransportStats& transport, size_t l,
                             uint64_t swept, uint64_t swept_value_bytes) {
  const auto n = [](double bytes) { return static_cast<uint64_t>(bytes); };
  const uint64_t x_bytes = 8 * l;
  uint64_t staged_values = 0;
  uint64_t values_returned = 0;
  for (const DeviceOps& ops : transport.device_ops) {
    staged_values += ops.staged_values;
    values_returned += ops.values_returned;
  }
  // Each row must balance: what, left side, right side.
  const std::tuple<const char*, uint64_t, uint64_t> balances[] = {
      {"staged bytes: driver counted vs devices acknowledged",
       n(driver.staged_value_bytes), transport.staged_value_bytes},
      {"driver query bytes vs dispatches x l x 8",
       n(driver.query_value_bytes), x_bytes * driver.dispatches},
      {"transport query bytes vs sends x l x 8",
       transport.query_value_bytes_sent, x_bytes * transport.queries_sent},
      {"responses: transport delivered vs driver saw + swept",
       transport.responses_delivered, driver.responses_seen + swept},
      {"response bytes: transport delivered vs driver saw + swept",
       transport.response_value_bytes_delivered,
       n(driver.response_value_bytes_seen) + swept_value_bytes},
      {"staged values x 8, summed over devices, vs staged bytes",
       8 * staged_values, transport.staged_value_bytes},
      {"returned values x 8, summed over devices, vs response bytes",
       8 * values_returned, transport.response_value_bytes_delivered},
  };
  for (const auto& [what, left, right] : balances) {
    if (left != right) {
      return std::string(what) + ": " + S(left) + " != " + S(right);
    }
  }
  // Eq. (1) per device: an answer of width l costs l mults per l−1 adds.
  for (size_t d = 0; d < transport.device_ops.size(); ++d) {
    const DeviceOps& ops = transport.device_ops[d];
    if (ops.mults * (l - 1) != ops.adds * l) {
      return "device " + S(d) + " ops: mults " + S(ops.mults) +
             " x (l-1) != adds " + S(ops.adds) + " x l, l = " + S(l);
    }
  }
  if (transport.queries_sent > driver.dispatches) {
    return "transport sent " + S(transport.queries_sent) +
           " queries but the driver dispatched " + S(driver.dispatches);
  }
  if (driver.response_value_bytes > driver.response_value_bytes_seen) {
    return "driver used more response bytes than it saw";
  }
  return "";
}

NetCoordinator::NetCoordinator(Matrix<double> a, DeviceFleet fleet,
                               NetCoordinatorOptions options,
                               uint32_t generation)
    : a_(std::move(a)),
      fleet_(std::move(fleet)),
      options_(Normalized(std::move(options))),
      generation_(generation),
      pad_rng_(GenerationSeed(options_.pad_seed, generation_)),
      digest_rng_(options_.digest_seed),
      jitter_(options_.backoff_jitter, options_.jitter_seed),
      reputation_(fleet_.size(), options_.reputation),
      latency_(fleet_.size(), sim::LatencyEstimator(options_.estimator)),
      evicted_(fleet_.size(), false),
      views_(fleet_.size(), a_.rows()) {
  SCEC_CHECK_GE(a_.rows(), 1u);
  SCEC_CHECK_GE(a_.cols(), 1u);
  SCEC_CHECK_GE(fleet_.size(), 2u);
  SCEC_CHECK_GT(options_.rpc_deadline_s, 0.0);
  SCEC_CHECK(options_.hedge_quantile >= 0.0 && options_.hedge_quantile <= 1.0);
  SCEC_CHECK_GT(options_.hedge_margin, 0.0);
  SCEC_CHECK_GE(options_.num_digests, 1u);
  options_.estimator.Validate();
  options_.retry.Validate();
  stats_.generation = generation_;
}

NetCoordinator::NetCoordinator(const DeploymentSession<double>& session,
                               Matrix<double> a, DeviceFleet fleet,
                               NetCoordinatorOptions options)
    : NetCoordinator(std::move(a), std::move(fleet), std::move(options),
                     session.pad_generation()) {
  SCEC_CHECK_EQ(a_.rows(), session.m());
  SCEC_CHECK_EQ(a_.cols(), session.l());
  for (size_t device : session.plan().participating) {
    SCEC_CHECK_LT(device, fleet_.size())
        << "the fleet must cover every participating device";
  }
  base_ = &session.deployment();
  journal_ = session.journal();
}

size_t NetCoordinator::num_evicted() const {
  return static_cast<size_t>(
      std::count(evicted_.begin(), evicted_.end(), true));
}

bool NetCoordinator::UsableDevice(size_t device) const {
  return !evicted_[device] && reputation_.Usable(device);
}

size_t NetCoordinator::IndexOf(const QueryFlight& f) const {
  return static_cast<size_t>(&f - flights_.data());
}

void NetCoordinator::FlushVerified(QueryFlight& f) {
  if (!options_.record_trace) return;
  // Response arrival order is transport-dependent; sorted flush keeps
  // fault-free traces identical across SimTransport and SocketTransport.
  std::sort(f.verified_trace.begin(), f.verified_trace.end());
  for (std::string& line : f.verified_trace) trace_.push_back(std::move(line));
  f.verified_trace.clear();
}

void NetCoordinator::Journal(JournalEvent event, bool committed) {
  if (journal_ == nullptr) return;
  event.generation = generation_;
  if (committed) {
    journal_->AppendCommitted(event);
  } else {
    journal_->Append(event);
  }
}

void NetCoordinator::JournalPayload(JournalEvent event,
                                    std::vector<double>& payload) {
  if (journal_ == nullptr) return;
  event.generation = generation_;
  // Swapped in and back: the record is built without copying the payload.
  // A crash probe that fires drops it, with the dead coordinator.
  event.values.swap(payload);
  journal_->AppendCommitted(event);
  event.values.swap(payload);
}

void NetCoordinator::Commit() {
  if (journal_ != nullptr) journal_->Commit();
}

Status NetCoordinator::VerifyCumulativeOrAbort(const char* stage) {
  const SchemeSecurityReport report = VerifyCumulativeSecurity();
  if (!report.all_secure) {
    return SecurityViolation(std::string(stage) +
                             " leaked data rows (cumulative ITS violated):" +
                             report.LeakSummary());
  }
  Trace([&] { return std::string("its_check stage=") + stage +
                     " result=secure"; });
  return Status::Ok();
}

Status NetCoordinator::Setup(Transport* transport) {
  SCEC_CHECK(transport != nullptr);
  SCEC_CHECK(segments_.empty()) << "Setup() must be called once";
  SCEC_CHECK_EQ(transport->num_devices(), fleet_.size())
      << "transport device ids must equal fleet indices";
  transport_ = transport;
  const double stage_start = transport_->Now();

  if (base_ != nullptr) {
    CodedSegment layout(AllRows(a_.rows()), base_->code, base_->plan.scheme,
                        base_->plan.participating);
    stats_.base_plan_cost = base_->plan.allocation.total_cost;
    Trace([&] { return "plan adopted m=" + S(a_.rows()) +
                       " r=" + S(layout.code().r()) +
                       " devices=" + S(layout.num_slots()); });
    SCEC_RETURN_IF_ERROR(AddSegment(
        std::move(layout), [this](const CodedSegment&, size_t slot)
                               -> const Matrix<double>& {
          return base_->shares[slot].coded_rows;
        }));
  } else {
    Result<CodedSegment> planned =
        PlanSegment(AllRows(a_.rows()), a_.cols(), fleet_,
                    [this](size_t d) { return UsableDevice(d); },
                    TaAlgorithm::kAuto, &stats_.base_plan_cost);
    SCEC_RETURN_IF_ERROR(planned.status());
    Trace([&] { return "plan algo=auto m=" + S(a_.rows()) +
                       " r=" + S(planned->code().r()) +
                       " devices=" + S(planned->num_slots()); });
    SCEC_RETURN_IF_ERROR(EncodeAndStage(std::move(planned).value()));
  }
  ProvisionGuards();
  SCEC_RETURN_IF_ERROR(VerifyCumulativeOrAbort("setup"));
  SimSpan("stage", stage_start, transport_->Now(), /*tid=*/fleet_.size());
  Journal({.kind = JournalEventKind::kStageDone, .device = guards_},
          /*committed=*/true);
  return Status::Ok();
}

void NetCoordinator::ProvisionGuards() {
  if (options_.byzantine_tolerance == 0) return;
  const std::vector<std::array<size_t, 2>> pairs =
      SelectGuardPairs(fleet_, a_.cols(), segments_[0].layout.devices(),
                       options_.byzantine_tolerance);
  for (const std::array<size_t, 2>& pair : pairs) {
    // Each guard re-encodes ALL m rows with fresh pads: pad block on
    // pair[0], mixed block on pair[1]. A pair that fails to stage is
    // evicted and simply not counted.
    if (!EncodeAndStage(PairSegment(AllRows(a_.rows()), pair[0], pair[1]))
             .ok()) {
      continue;
    }
    ++guards_;
    ++stats_.byzantine_guard_segments;
    stats_.byzantine_guard_rows += 2 * a_.rows();
    // Eq. (1) spend on the surplus, same formula as PlanByzantineMcscec.
    stats_.byzantine_guard_cost +=
        static_cast<double>(a_.rows()) *
        (UnitCost(fleet_[pair[0]].costs, a_.cols()) +
         UnitCost(fleet_[pair[1]].costs, a_.cols()));
  }
  if (guards_ > 0) {
    Instant([&] { return "guards(" + S(guards_) + ")"; }, transport_->Now(),
            /*tid=*/fleet_.size());
  }
}

Status NetCoordinator::EncodeAndStage(CodedSegment layout) {
  // FRESH pads (pad_rng_ never rewinds).
  const Matrix<double> pads =
      GeneratePadRows<double>(layout.code().r(), a_.cols(), pad_rng_);
  // Each slot is encoded into this one buffer just before it is staged
  // (the transport copies what it ships). Sized for the largest slot first,
  // so the smaller ones reuse its pages.
  const std::vector<size_t>& counts = layout.scheme().row_counts;
  Matrix<double> rows(*std::max_element(counts.begin(), counts.end()),
                      a_.cols());
  return AddSegment(std::move(layout),
                    [&](const CodedSegment& seg,
                        size_t slot) -> const Matrix<double>& {
                      EncodeSlotInto(seg, a_, pads, slot, &rows);
                      return rows;
                    });
}

Status NetCoordinator::AddSegment(CodedSegment layout,
                                  const ShareSource& share_of) {
  const size_t index = segments_.size();
  // Write-ahead the segment's SHAPE (never its pads) so a restarted
  // coordinator re-accounts its pad columns. Segment 0 is rebuilt from the
  // sealed snapshot instead.
  if (index > 0 && journal_ != nullptr) {
    Journal({.kind = JournalEventKind::kSegmentAdded, .segment = index,
             .segment_record = SegmentRecord(layout, index)},
            /*committed=*/true);
  }
  // Every slot's weights are drawn before the first share is staged, so
  // digest_rng_ moves the same whichever slot fails to stage.
  ResultVerifier<double> verifier = ResultVerifier<double>::DrawWeights(
      layout.scheme().row_counts, digest_rng_, options_.num_digests);
  Segment seg{std::move(layout), std::move(verifier), {}, true};
  for (size_t slot = 0; slot < seg.layout.num_slots(); ++slot) {
    const uint64_t share_id = next_share_id_++;
    seg.share_ids.push_back(share_id);
    const Matrix<double>& rows = share_of(seg.layout, slot);
    seg.verifier.SetDigests(slot, rows);
    const size_t device = seg.layout.devices()[slot];
    Status staged = transport_->StageShare(device, share_id, rows);
    if (!staged.ok()) {
      // The earlier slots' devices hold their rows now, so those rows stay
      // in the views and this segment's pad columns are spent. The device
      // died during staging: evict it so a replan routes around it.
      views_.AddStaged(seg.layout, slot);
      Evict(device, recovery::kEvictReasonTimeout, "stage_failed");
      return Unavailable("staging to device " + S(device) +
                         " failed: " + staged.message());
    }
    stats_.staged_value_bytes += 8.0 * rows.rows() * rows.cols();
    Trace([&] { return "stage seg=" + S(index) + " slot=" + S(slot) +
                       " d=" + S(device) + " rows=" + S(rows.rows()); });
  }
  views_.Add(seg.layout);
  const size_t slots = seg.layout.num_slots();
  segments_.push_back(std::move(seg));
  for (QueryFlight& f : flights_) {  // Begin resizes the others anyway
    f.slots.emplace_back(slots);
    f.responses.emplace_back(slots);
  }
  return Status::Ok();
}

double NetCoordinator::ModelDeadline(size_t segment, size_t slot) const {
  const CodedSegment& layout = segments_[segment].layout;
  const EdgeDevice& spec = fleet_[layout.devices()[slot]];
  const double l = static_cast<double>(a_.cols());
  const double v = static_cast<double>(layout.scheme().row_counts[slot]);
  const double estimate = 2.0 * spec.link_latency_s +
                          l * 64.0 / spec.downlink_bps +
                          v * (2.0 * l - 1.0) / spec.compute_rate_flops +
                          v * 64.0 / spec.uplink_bps;
  return std::max(options_.rpc_deadline_s, kDeadlineFactor * estimate);
}

double NetCoordinator::DeadlineFor(size_t segment, size_t slot) {
  if (options_.adaptive_timeouts) {
    const sim::LatencyEstimator& est =
        latency_[segments_[segment].layout.devices()[slot]];
    if (est.HasEstimate()) {
      const double deadline =
          std::max(options_.rpc_deadline_s,
                   kTimeoutMargin * est.Quantile(kTimeoutQuantile));
      ++stats_.adaptive_deadlines;
      Instruments::Get().adaptive_deadlines.Increment();
      Instruments::Get().adaptive_deadline_seconds.Observe(deadline);
      return deadline;
    }
  }
  return ModelDeadline(segment, slot);
}

double NetCoordinator::HedgeDelay(size_t segment, size_t slot) const {
  const sim::LatencyEstimator& est =
      latency_[segments_[segment].layout.devices()[slot]];
  if (est.HasEstimate()) {
    return std::max(options_.rpc_deadline_s,
                    options_.hedge_margin *
                        est.Quantile(options_.hedge_quantile));
  }
  // Cold start: hedge at half the eviction deadline, so speculation still
  // beats the timeout+retry path before a latency profile exists.
  return 0.5 * ModelDeadline(segment, slot);
}

void NetCoordinator::DispatchSlot(QueryFlight& f, size_t segment, size_t slot,
                                  double start_delay_s) {
  const Segment& seg = segments_[segment];
  SlotState& state = f.slots[segment][slot];
  const size_t device = seg.layout.devices()[slot];
  const bool hedge = std::any_of(
      f.hedges.begin(), f.hedges.end(),
      [segment](const HedgeGroup& g) { return g.hedge_segment == segment; });
  ++state.attempts;
  if (state.attempts == 1) {
    state.dispatch_s = transport_->Now();
    // Fresh work earns the retry budget its future recovery spend; retries
    // and hedges only ever withdraw.
    if (options_.retry_budget != nullptr && !hedge) {
      options_.retry_budget->OnFreshDispatch();
    }
  } else {
    Instant([&] { return "retry attempt " + S(state.attempts); },
            transport_->Now(), device);
  }
  const uint64_t bytes = 8 * f.x.size();
  // Write-ahead the billing entry (group-committed by the caller): a crash
  // can lose the dispatch but never bill one that was not journaled first.
  if (journal_ != nullptr) {
    Journal({.kind = JournalEventKind::kDispatch, .query_id = f.query_id,
             .segment = segment, .local = slot, .device = device,
             .attempt = state.attempts, .bytes = bytes},
            /*committed=*/false);
  }
  const uint64_t rpc =
      transport_->SubmitQuery(device, seg.share_ids[slot], f.x,
                              DeadlineFor(segment, slot), start_delay_s);
  inflight_[rpc] = Inflight{IndexOf(f), segment, slot, false};
  state.rpc = rpc;
  ++stats_.dispatches;
  stats_.query_value_bytes += static_cast<double>(bytes);
  if (options_.hedging && state.attempts == 1 && !hedge) {
    state.hedge_alarm = transport_->AddAlarm(HedgeDelay(segment, slot));
    alarms_[state.hedge_alarm] = Inflight{IndexOf(f), segment, slot, false};
  }
  Trace([&] { return "dispatch seg=" + S(segment) + " slot=" + S(slot) +
                     " d=" + S(device) + " attempt=" + S(state.attempts); });
}

void NetCoordinator::DispatchSegment(QueryFlight& f, size_t segment) {
  const std::vector<size_t>& devices = segments_[segment].layout.devices();
  for (size_t slot = 0; slot < devices.size(); ++slot) {
    SlotState& state = f.slots[segment][slot];
    if (state.phase != SlotPhase::kIdle) continue;
    if (!UsableDevice(devices[slot])) {
      // Evicted or quarantined holder: its rows go straight to recovery.
      state.phase = SlotPhase::kFailed;
      Trace([&] { return "skip seg=" + S(segment) + " slot=" + S(slot) +
                         " d=" + S(devices[slot]) + " reason=unusable"; });
      continue;
    }
    state.phase = SlotPhase::kOutstanding;
    ++f.outstanding;
    DispatchSlot(f, segment, slot, /*start_delay_s=*/0.0);
  }
}

void NetCoordinator::SettleSlot(QueryFlight& f, size_t segment, size_t slot,
                                SlotPhase phase) {
  SlotState& state = f.slots[segment][slot];
  SCEC_CHECK(state.phase == SlotPhase::kOutstanding);
  if (state.rpc != 0) {
    inflight_.erase(state.rpc);
    transport_->Cancel(state.rpc);
    state.rpc = 0;
  }
  if (state.attempts > 1) {
    // Earlier attempts that timed out are still open: close them too.
    const size_t flight = IndexOf(f);
    std::erase_if(inflight_, [&](const auto& item) {
      const Inflight& e = item.second;
      const bool mine = !e.canary && e.flight == flight &&
                        e.segment == segment && e.slot == slot;
      if (mine) transport_->Cancel(item.first);
      return mine;
    });
  }
  if (state.hedge_alarm != 0) {
    alarms_.erase(state.hedge_alarm);
    transport_->Cancel(state.hedge_alarm);
    state.hedge_alarm = 0;
  }
  state.phase = phase;
  SCEC_CHECK_GT(f.outstanding, 0u);
  --f.outstanding;
}

void NetCoordinator::Evict(size_t device, uint64_t reason, const char* why) {
  if (evicted_[device]) return;
  evicted_[device] = true;
  ++stats_.evictions;
  Trace([&] { return "evict d=" + S(device) + " error=" + why; });
  Instant([&] { return std::string("evict(") + why + ")"; },
          transport_->Now(), device);
  JournalStanding(device, reason);
}

void NetCoordinator::JournalStanding(size_t device, uint64_t reason) {
  if (journal_ == nullptr) return;
  // A journaled coordinator has at most one flight open; a standing change
  // outside any query (set-up) carries query id 0.
  uint64_t query_id = 0;
  for (const QueryFlight& f : flights_) {
    if (f.open()) query_id = f.query_id;
  }
  Journal({.kind = JournalEventKind::kEvict, .query_id = query_id,
           .device = device, .attempt = reason},
          /*committed=*/true);
}

void NetCoordinator::Quarantined(size_t device, const char* why) {
  ++stats_.devices_quarantined;
  Instruments::Get().quarantines.Increment();
  Instant(why, transport_->Now(), device);
  JournalStanding(device, recovery::kEvictReasonQuarantine);
}

void NetCoordinator::FlagByzantine(QueryFlight& f, size_t device) {
  if (std::find(f.flagged.begin(), f.flagged.end(), device) ==
      f.flagged.end()) {
    f.flagged.push_back(device);
    Instruments::Get().byzantine_flagged.Increment();
  }
  if (reputation_.RecordCorrupt(device)) Quarantined(device, "quarantine");
}

void NetCoordinator::NoteTimeout(size_t device) {
  if (!reputation_.enabled()) return;
  const bool was_usable = reputation_.Usable(device);
  reputation_.RecordTimeout(device);
  if (was_usable && !reputation_.Usable(device)) {
    Quarantined(device, "quarantine(timeout)");
  }
}

bool NetCoordinator::Verified(size_t segment, size_t slot,
                              const std::vector<double>& x,
                              const std::vector<double>& values) const {
  const Segment& seg = segments_[segment];
  return values.size() == seg.layout.scheme().row_counts[slot] &&
         seg.verifier.Check(slot, std::span<const double>(x),
                            std::span<const double>(values));
}

void NetCoordinator::HandleResponse(Completion& completion) {
  ++stats_.responses_seen;
  stats_.response_value_bytes_seen += 8.0 * completion.values.size();
  auto it = inflight_.find(completion.id);
  if (it == inflight_.end()) {
    ++stats_.stale_ignored;  // cancelled hedge loser, late retry, ...
    return;
  }
  const Inflight entry = it->second;
  inflight_.erase(it);
  if (entry.canary) {
    HandleCanary(entry, completion);
    return;
  }
  // Any open attempt may answer, the latest or one that timed out
  // earlier; the slot settles on the first and cancels the rest.
  QueryFlight& f = flights_[entry.flight];
  SlotState& state = f.slots[entry.segment][entry.slot];
  if (state.rpc == completion.id) state.rpc = 0;  // closed by this answer
  const Segment& seg = segments_[entry.segment];
  const size_t device = seg.layout.devices()[entry.slot];
  if (!Verified(entry.segment, entry.slot, f.x, completion.values)) {
    // The answer is discarded, never decoded. A digest flag is proof of
    // corruption (no false rejects): with reputation on the liar is
    // quarantined (and, with guards, decoded around in this round);
    // without, it is evicted. Either way its rows are recovered.
    ++stats_.byzantine_flagged;
    Trace([&] { return "byzantine seg=" + S(entry.segment) +
                       " slot=" + S(entry.slot) + " d=" + S(device); });
    SettleSlot(f, entry.segment, entry.slot, SlotPhase::kFailed);
    if (reputation_.enabled()) {
      FlagByzantine(f, device);
    } else {
      ++stats_.evictions_corrupt;
      Evict(device, recovery::kEvictReasonCorrupt, "corrupt");
    }
    return;
  }

  ++stats_.responses_used;
  stats_.response_value_bytes += 8.0 * completion.values.size();
  reputation_.RecordVerified(device);
  const double duration = transport_->Now() - state.dispatch_s;
  if (options_.adaptive_timeouts || options_.hedging) {
    latency_[device].Observe(duration);
  }
  Instruments::Get().device_response_seconds.Observe(duration);
  SimSpan([&] { return "device_response seg" + S(entry.segment); },
          state.dispatch_s, state.dispatch_s + duration, device);
  // Durable before usable: the verified payload is committed before it
  // enters the decode, so a restarted coordinator re-verifies and injects
  // it instead of re-dispatching (and re-billing) the device.
  JournalPayload({.kind = JournalEventKind::kResponse, .query_id = f.query_id,
                  .segment = entry.segment, .local = entry.slot,
                  .device = device},
                 completion.values);
  f.responses[entry.segment][entry.slot] = std::move(completion.values);
  if (options_.record_trace) {
    f.verified_trace.push_back("verified seg=" + S(entry.segment) + " slot=" +
                               S(entry.slot) + " d=" + S(device));
  }
  SettleSlot(f, entry.segment, entry.slot, SlotPhase::kDone);

  if (state.hedge_group != kNone) {
    // The original answered first: drop its speculative duplicate.
    CloseHedge(f, state.hedge_group, /*hedge_won=*/false);
    return;
  }
  for (size_t g = 0; g < f.hedges.size(); ++g) {
    const HedgeGroup& group = f.hedges[g];
    if (group.hedge_segment != entry.segment || !group.open) continue;
    // First answer wins: once both hedge devices answered, the at-risk
    // rows decode without the original.
    for (const SlotState& hedge : f.slots[group.hedge_segment]) {
      if (hedge.phase != SlotPhase::kDone) return;
    }
    CloseHedge(f, g, /*hedge_won=*/true);
    return;
  }
}

void NetCoordinator::CloseHedge(QueryFlight& f, size_t g, bool hedge_won) {
  HedgeGroup& group = f.hedges[g];
  if (!group.open) return;
  group.open = false;
  SlotState& original = f.slots[group.segment][group.slot];
  const size_t original_device =
      segments_[group.segment].layout.devices()[group.slot];
  bool retire = true;
  if (hedge_won) {
    if (original.phase == SlotPhase::kOutstanding) {
      SettleSlot(f, group.segment, group.slot, SlotPhase::kCancelled);
    }
    // An evicted original leaves the hedge in service as pre-emptive
    // recovery; otherwise the hedge was one query's speculation.
    retire = original.phase != SlotPhase::kFailed;
    ++stats_.hedge_wins;
    Instruments::Get().hedges_won.Increment();
    Instant("hedge_win", transport_->Now(), original_device);
  } else {
    std::vector<SlotState>& slots = f.slots[group.hedge_segment];
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      if (slots[slot].phase == SlotPhase::kOutstanding) {
        SettleSlot(f, group.hedge_segment, slot, SlotPhase::kCancelled);
      }
    }
    ++stats_.hedges_cancelled;
    Instruments::Get().hedges_cancelled.Increment();
    Instant("hedge_cancel", transport_->Now(), original_device);
  }
  if (retire) segments_[group.hedge_segment].live = false;
  Trace([&] { return std::string(hedge_won ? "hedge_win" : "hedge_cancel") +
                     " seg=" + S(group.segment) + " slot=" + S(group.slot); });
}

void NetCoordinator::HandleCanary(const Inflight& entry,
                                  const Completion& completion) {
  // A quarantined device's canary answer is digest-checked and DISCARDED:
  // it never enters the decode.
  QueryFlight& f = flights_[entry.flight];
  const size_t device = segments_[entry.segment].layout.devices()[entry.slot];
  const bool passed =
      completion.kind == Completion::Kind::kResponse &&
      Verified(entry.segment, entry.slot, f.x, completion.values);
  ++(passed ? stats_.canaries_passed : stats_.canaries_failed);
  --f.outstanding;
  if (!reputation_.RecordCanaryResult(device, passed)) return;
  ++stats_.devices_readmitted;
  Instruments::Get().readmissions.Increment();
  Instant("readmit", transport_->Now(), device);
  Trace([&] { return "readmit d=" + S(device); });
  JournalStanding(device, recovery::kEvictReasonReadmit);
}

void NetCoordinator::HandleError(const Completion& completion) {
  auto it = inflight_.find(completion.id);
  if (it == inflight_.end()) {
    ++stats_.stale_ignored;
    return;
  }
  const Inflight entry = it->second;
  const bool timeout = completion.error == NetError::kTimeout;
  ++(timeout ? stats_.timeouts : stats_.transport_errors);
  if (entry.canary) {
    // Stop waiting: a timed-out probe is still open in the transport.
    inflight_.erase(it);
    if (timeout) transport_->Cancel(completion.id);
    HandleCanary(entry, completion);
    return;
  }
  // A timed-out latest attempt stays open (and mapped) until the slot
  // settles: its late answer still counts. Any other error closed the
  // RPC; on an earlier, already-retried attempt it changes nothing.
  QueryFlight& f = flights_[entry.flight];
  SlotState& state = f.slots[entry.segment][entry.slot];
  const bool latest = state.rpc == completion.id;
  if (!latest || !timeout) inflight_.erase(it);
  if (!latest) return;
  if (!timeout) state.rpc = 0;
  const size_t device = segments_[entry.segment].layout.devices()[entry.slot];
  Trace([&] { return "rpc_error seg=" + S(entry.segment) +
                     " slot=" + S(entry.slot) + " d=" + S(device) +
                     " error=" + NetErrorName(completion.error); });
  if (timeout) Instant("deadline_timeout", transport_->Now(), device);
  NoteTimeout(device);

  bool retry = Retryable(completion.error) &&
               state.attempts < options_.retry.max_attempts;
  if (retry && options_.retry_budget != nullptr &&
      !options_.retry_budget->TrySpend()) {
    // The shared budget is dry: another retry would only amplify the
    // storm. Fail fast and let recovery pick the rows up elsewhere.
    ++stats_.retries_suppressed;
    retry = false;
  }
  if (retry) {
    const double backoff =
        jitter_.Apply(options_.retry.BackoffFor(state.attempts - 1));
    ++stats_.retries;
    Trace([&] { return "retry seg=" + S(entry.segment) +
                       " slot=" + S(entry.slot) + " d=" + S(device) +
                       " attempt=" + S(state.attempts + 1); });
    DispatchSlot(f, entry.segment, entry.slot, backoff);
    return;
  }
  // Retries spent (or a non-retryable error): evict the device and recover
  // its rows elsewhere.
  Evict(device, recovery::kEvictReasonTimeout,
        timeout ? "timeout" : NetErrorName(completion.error));
  SettleSlot(f, entry.segment, entry.slot, SlotPhase::kFailed);
}

void NetCoordinator::HandleAlarm(const Completion& completion) {
  auto it = alarms_.find(completion.id);
  if (it == alarms_.end()) return;  // slot settled before the alarm fired
  const Inflight entry = it->second;
  alarms_.erase(it);
  QueryFlight& f = flights_[entry.flight];
  f.slots[entry.segment][entry.slot].hedge_alarm = 0;
  MaybeHedge(f, entry.segment, entry.slot);
}

std::vector<size_t> NetCoordinator::RowsAtRisk(const QueryFlight& f,
                                               size_t segment,
                                               size_t slot) const {
  // Rows already decodable from verified responses on hand are safe
  // whatever the straggler does.
  std::vector<bool> decodable(a_.rows(), false);
  for (size_t s = 0; s < segments_.size(); ++s) {
    const CodedSegment& layout = segments_[s].layout;
    for (size_t p = 0; p < layout.data_rows().size(); ++p) {
      if (DecodeRow(layout, p, f.responses[s]).has_value()) {
        decodable[layout.data_rows()[p]] = true;
      }
    }
  }
  // Rows whose decode in this segment needs the straggler's block (as pad
  // or mixed holder) and that have no verified path yet.
  const CodedSegment& layout = segments_[segment].layout;
  std::vector<size_t> at_risk;
  for (size_t p = 0; p < layout.data_rows().size(); ++p) {
    const size_t global = layout.data_rows()[p];
    if (!decodable[global] && layout.paths()[p].Uses(slot)) {
      at_risk.push_back(global);
    }
  }
  return at_risk;
}

void NetCoordinator::MaybeHedge(QueryFlight& f, size_t segment,
                                size_t slot) {
  const SlotState& state = f.slots[segment][slot];
  if (state.phase != SlotPhase::kOutstanding ||
      state.hedge_group != kNone ||
      f.hedges.size() >= kMaxHedgesPerQuery) {
    return;
  }
  const std::vector<size_t> rows = RowsAtRisk(f, segment, slot);
  if (rows.empty()) return;  // nothing only this device can still yield
  const size_t straggler = segments_[segment].layout.devices()[slot];

  // The two cheapest idle survivors by Eq. (1) unit cost. A PAIR: a single
  // device holding a fresh pad row and the mixed row it masks could
  // subtract and unmask the data. Spares (serving no live segment) come
  // first: speculative work on a participant queues ahead of its next
  // sub-query. A device is busy while any flight awaits an RPC from it.
  std::vector<bool> serving(fleet_.size(), false);
  std::vector<bool> busy(fleet_.size(), false);
  for (const Segment& seg : segments_) {
    if (!seg.live) continue;
    for (size_t device : seg.layout.devices()) serving[device] = true;
  }
  for (const auto& [rpc, e] : inflight_) {
    busy[segments_[e.segment].layout.devices()[e.slot]] = true;
  }
  std::vector<size_t> idle;
  for (size_t d = 0; d < fleet_.size(); ++d) {
    if (UsableDevice(d) && d != straggler && !busy[d]) idle.push_back(d);
  }
  if (idle.size() < 2) return;
  // Overload gates, checked only once a hedge is otherwise viable so a
  // hedge that could never launch spends nothing.
  if ((options_.hedging_gate && !options_.hedging_gate()) ||
      (options_.retry_budget != nullptr &&
       !options_.retry_budget->TrySpend())) {
    ++stats_.hedges_suppressed;
    return;
  }
  std::sort(idle.begin(), idle.end(), [&](size_t lhs, size_t rhs) {
    if (serving[lhs] != serving[rhs]) return !serving[lhs];
    const double lhs_cost = UnitCost(fleet_[lhs].costs, a_.cols());
    const double rhs_cost = UnitCost(fleet_[rhs].costs, a_.cols());
    if (lhs_cost != rhs_cost) return lhs_cost < rhs_cost;
    return lhs < rhs;
  });

  if (!EncodeAndStage(PairSegment(rows, idle[0], idle[1])).ok()) return;
  SCEC_CHECK(VerifyCumulativeSecurity().all_secure)
      << "hedge re-encode leaked data rows (cumulative ITS violated)";
  const size_t hedge_segment = segments_.size() - 1;
  f.slots[segment][slot].hedge_group = f.hedges.size();
  f.hedges.push_back(HedgeGroup{segment, slot, hedge_segment, true});
  ++stats_.hedges_launched;
  stats_.hedged_rows += rows.size();
  Instruments::Get().hedges_dispatched.Increment();
  Instant("hedge_dispatch", transport_->Now(), straggler);
  Trace([&] { return "hedge seg=" + S(segment) + " slot=" + S(slot) +
                     " d=" + S(straggler) + " rows=" + S(rows.size()) +
                     " onto=" + S(idle[0]) + "," + S(idle[1]); });
  DispatchSegment(f, hedge_segment);
}

void NetCoordinator::Poll() {
  completions_.clear();
  transport_->PollInto(&completions_, /*max_wait_s=*/0.05);
  for (Completion& completion : completions_) {
    switch (completion.kind) {
      case Completion::Kind::kResponse:
        HandleResponse(completion);
        break;
      case Completion::Kind::kError:
        HandleError(completion);
        break;
      case Completion::Kind::kAlarm:
        HandleAlarm(completion);
        break;
    }
  }
  // A flight moves on only once the whole batch is handled.
  for (QueryFlight& f : flights_) {
    if (f.open() && f.outstanding == 0) Advance(f);
  }
}

Result<size_t> NetCoordinator::PlanRecoverySegment(
    const std::vector<size_t>& lost) {
  // TA2 over the surviving fleet.
  double plan_cost = 0.0;
  Result<CodedSegment> planned = [&] {
    SCEC_TRACE_SPAN("recovery/replan", "fault");
    return PlanSegment(lost, a_.cols(), fleet_,
                       [this](size_t d) { return UsableDevice(d); },
                       TaAlgorithm::kTA2, &plan_cost);
  }();
  SCEC_RETURN_IF_ERROR(planned.status());
  Trace([&] { return "recover rows=" + S(lost.size()) +
                     " devices=" + S(planned->num_slots()); });

  // kUnavailable when a survivor dies during staging: the caller replans
  // the round over whoever remains.
  const double stage_start = transport_->Now();
  SCEC_RETURN_IF_ERROR(EncodeAndStage(std::move(planned).value()));
  SimSpan("recovery_stage", stage_start, transport_->Now(),
          /*tid=*/fleet_.size(), "fault");
  ++stats_.recovery_rounds;
  stats_.replanned_rows += lost.size();
  stats_.recovery_plan_cost += plan_cost;
  SCEC_RETURN_IF_ERROR(VerifyCumulativeOrAbort("recovery"));
  return segments_.size() - 1;
}

std::vector<size_t> NetCoordinator::Decode(QueryFlight& f) {
  if (options_.byzantine_tolerance > 0) {
    DecodeLocating(f);
  } else {
    for (size_t s = 0; s < segments_.size(); ++s) {
      DecodeSegment(segments_[s].layout, f.responses[s], &f.decoded);
    }
  }
  return MissingRows(f.decoded);
}

void NetCoordinator::DecodeLocating(QueryFlight& f) {
  // Honest candidates of one row agree to rounding; a lying contributor is
  // off by its injected magnitude. Relative tolerance, since A·x scales.
  const auto eq = [](double lhs, double rhs) {
    return std::fabs(lhs - rhs) <=
           1e-9 * std::max({1.0, std::fabs(lhs), std::fabs(rhs)});
  };
  // One DecodeUnit per still-missing row; one candidate per segment whose
  // pad AND mixed responses for the row are both on hand (a flagged
  // response was never stored, so flagged devices contribute no path).
  std::vector<size_t> unit_rows;
  std::vector<DecodeUnit<double>> units;
  std::vector<size_t> unit_of(a_.rows(), kNone);
  for (size_t s = 0; s < segments_.size(); ++s) {
    const CodedSegment& layout = segments_[s].layout;
    for (size_t p = 0; p < layout.data_rows().size(); ++p) {
      const size_t global = layout.data_rows()[p];
      if (f.decoded[global].has_value()) continue;
      const std::optional<double> value =
          DecodeRow(layout, p, f.responses[s]);
      if (!value.has_value()) continue;
      size_t& u = unit_of[global];
      if (u == kNone) {
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
  if (units.empty()) return;

  LocatorLimits limits;
  limits.max_guilty = f.flagged.size() + guards_;
  const LocateResult<double> result =
      LocateAndDecode(units, f.flagged, limits, eq);
  if (result.used_fallback) ++stats_.byzantine_fallback_locates;
  if (result.ambiguous) ++stats_.byzantine_ambiguous_locates;
  if (result.located) {
    for (size_t u = 0; u < unit_rows.size(); ++u) {
      f.decoded[unit_rows[u]] = result.values[u];
    }
    for (size_t device : result.guilty) {
      if (std::find(f.located.begin(), f.located.end(), device) !=
          f.located.end()) {
        continue;
      }
      f.located.push_back(device);
      ++stats_.byzantine_located_liars;
      Instruments::Get().byzantine_located.Increment();
      Instant("located_liar", transport_->Now(), device);
      FlagByzantine(f, device);
    }
    return;
  }
  // No consistent locate (> t liars, or broken guard paths): salvage the
  // rows whose candidates are unanimous, leave the rest to recovery.
  for (size_t u = 0; u < units.size(); ++u) {
    const auto& candidates = units[u].candidates;
    bool unanimous = true;
    for (size_t c = 1; c < candidates.size(); ++c) {
      unanimous = unanimous && eq(candidates[c].value, candidates[0].value);
    }
    if (unanimous) f.decoded[unit_rows[u]] = candidates[0].value;
  }
}

void NetCoordinator::RunCanaries(QueryFlight& f) {
  if (!reputation_.enabled()) return;
  for (size_t d = 0; d < fleet_.size(); ++d) {
    if (evicted_[d] || !reputation_.CanaryDue(d)) continue;
    // Probe through a share the device already holds: one round trip, no
    // staging, and the answer never enters a decode.
    for (size_t s = 0; s < segments_.size(); ++s) {
      const std::vector<size_t>& devices = segments_[s].layout.devices();
      const auto pos = std::find(devices.begin(), devices.end(), d);
      if (pos == devices.end()) continue;
      const size_t slot = static_cast<size_t>(pos - devices.begin());
      reputation_.NoteCanarySent(d);
      ++stats_.canaries_sent;
      Instruments::Get().canaries.Increment();
      Instant("canary", transport_->Now(), d);
      const uint64_t bytes = 8 * f.x.size();
      // attempt = 0 marks a canary: the double-spend audit must not take a
      // probe of an answered share for a re-billed dispatch.
      Journal({.kind = JournalEventKind::kDispatch, .query_id = f.query_id,
               .segment = s, .local = slot, .device = d, .attempt = 0,
               .bytes = bytes},
              /*committed=*/true);
      const uint64_t rpc =
          transport_->SubmitQuery(d, segments_[s].share_ids[slot], f.x,
                                  ModelDeadline(s, slot), 0.0);
      inflight_[rpc] = Inflight{IndexOf(f), s, slot, /*canary=*/true};
      ++f.outstanding;
      ++stats_.dispatches;
      stats_.query_value_bytes += static_cast<double>(bytes);
      break;
    }
  }
}

Result<NetCoordinator::FlightId> NetCoordinator::Begin(
    const std::vector<double>& x) {
  SCEC_CHECK(transport_ != nullptr) << "call Setup() first";
  if (x.size() != a_.cols()) {
    return InvalidArgument("query length " + S(x.size()) +
                           " != row width " + S(a_.cols()));
  }
  using Phase = QueryFlight::Phase;
  if (journal_ != nullptr &&
      std::any_of(flights_.begin(), flights_.end(),
                  [](const QueryFlight& f) { return f.open(); })) {
    return FailedPrecondition(
        "a journaled coordinator keeps one query in flight");
  }
  // A released flight's tables, or the parked resumption (a lone flight).
  auto it = std::find_if(
      flights_.begin(), flights_.end(), [](const QueryFlight& f) {
        return f.phase == Phase::kFree || f.phase == Phase::kParked;
      });
  if (it == flights_.end()) it = flights_.emplace(flights_.end());
  QueryFlight& f = *it;
  const bool resuming = f.phase == Phase::kParked;
  f.phase = Phase::kRound;
  f.start_s = transport_->Now();
  reputation_.AdvanceQuery();
  f.id = ++stats_.queries;
  // Admit the query durably before any work. A resumed query keeps its
  // original id (the duplicate kQueryBegin is the resumption marker).
  if (!resuming) f.query_id = query_seq_++;
  f.x.assign(x.begin(), x.end());
  JournalPayload(
      {.kind = JournalEventKind::kQueryBegin, .query_id = f.query_id}, f.x);
  Trace([&] { return "query q=" + S(f.id); });

  f.rounds = 0;
  f.outstanding = 0;
  f.hedges.clear();
  f.flagged.clear();
  f.located.clear();
  f.verified_trace.clear();
  f.decoded.assign(a_.rows(), std::nullopt);
  f.slots.resize(segments_.size());
  f.responses.resize(segments_.size());
  for (size_t s = 0; s < segments_.size(); ++s) {
    const size_t slots = segments_[s].layout.num_slots();
    f.slots[s].assign(slots, SlotState{});
    if (!resuming || s > 0) f.responses[s].assign(slots, std::nullopt);
  }
  if (resuming) {
    // A base-segment response the dead incarnation journaled is re-verified
    // and injected instead of re-dispatched: the device already did the
    // work and was billed for it (exactly-once Eq. (1) accounting). Other
    // segments' pads were re-drawn, so their old responses cannot verify.
    for (size_t slot = 0; slot < f.responses[0].size(); ++slot) {
      std::optional<std::vector<double>>& values = f.responses[0][slot];
      if (!values.has_value()) continue;
      if (!Verified(0, slot, x, *values)) {
        values.reset();
        continue;
      }
      f.slots[0][slot].phase = SlotPhase::kDone;
      ++stats_.resumed_responses;
      Instruments::Get().resumed_responses.Increment();
      Instant("resume_inject", transport_->Now(),
              segments_[0].layout.devices()[slot]);
    }
  }

  // Every live segment: round 0 plus recovery segments staged by earlier
  // queries, whose rows may cover holes left by since-evicted devices.
  for (size_t s = 0; s < segments_.size(); ++s) {
    if (segments_[s].live) DispatchSegment(f, s);
  }
  // Group commit: the round's dispatch batch is durable before the wait,
  // and any retries or hedges appended during it after.
  Commit();
  if (f.outstanding == 0) Advance(f);
  return f.id;
}

void NetCoordinator::Advance(QueryFlight& f) {
  if (f.phase == QueryFlight::Phase::kCanaries) return Finish(f);
  for (;;) {
    Commit();  // the retries or hedges appended during the round
    if (f.rounds == 0) stats_.first_round_s = transport_->Now() - f.start_s;
    const std::vector<size_t> lost = Decode(f);
    if (f.rounds > 0) {
      SimSpan([&] { return "recovery_round " + S(f.rounds); },
              f.round_start_s, transport_->Now(), /*tid=*/fleet_.size(),
              "fault");
    }
    if (lost.empty()) break;
    // kUnavailable: a survivor died while staging; replan over the rest.
    Result<size_t> seg = Unavailable("");
    while (!seg.ok()) {
      if (f.rounds >= options_.max_recovery_rounds) {
        return Fail(f, Internal("rows still undecodable after " +
                                S(options_.max_recovery_rounds) +
                                " recovery rounds"));
      }
      ++f.rounds;
      f.round_start_s = transport_->Now();
      seg = PlanRecoverySegment(lost);
      if (!seg.ok() && seg.status().code() != ErrorCode::kUnavailable) {
        return Fail(f, seg.status());
      }
    }
    DispatchSegment(f, *seg);
    Commit();
    if (f.outstanding > 0) return;  // Poll moves the round on
  }

  // A masked query: a liar was flagged, yet the result decoded in the
  // original round — the guards absorbed it.
  if (!f.flagged.empty() && f.rounds == 0) {
    ++stats_.byzantine_masked_queries;
    Instruments::Get().byzantine_masked.Increment();
    Instant("masked_query", transport_->Now(), fleet_.size());
    Journal({.kind = JournalEventKind::kMaskedQuery, .query_id = f.query_id,
             .device = f.flagged.size()},
            /*committed=*/false);
  }
  f.decoded_s = transport_->Now();
  // Probe quarantined devices due a canary, after the decode settled so
  // probe latency never counts against the query.
  f.phase = QueryFlight::Phase::kCanaries;
  RunCanaries(f);
  if (f.outstanding == 0) Finish(f);
}

void NetCoordinator::Finish(QueryFlight& f) {
  FlushVerified(f);
  Trace([&] { return "decode q=" + S(f.id) + " rows=" + S(a_.rows()) +
                     " recovery_rounds=" + S(f.rounds); });
  stats_.last_query_s = f.decoded_s - f.start_s;
  SimSpan("query", f.start_s, f.decoded_s, /*tid=*/fleet_.size());

  f.result.resize(a_.rows());
  for (size_t p = 0; p < f.result.size(); ++p) f.result[p] = *f.decoded[p];
  // The result record goes LAST: a crash before it leaves the query
  // in flight (the next incarnation finishes it); after it, the journal
  // owns the answer and the query must never run again.
  JournalPayload(
      {.kind = JournalEventKind::kQueryResult, .query_id = f.query_id},
      f.result);
  f.phase = QueryFlight::Phase::kSettled;
}

void NetCoordinator::Fail(QueryFlight& f, Status status) {
  f.status = std::move(status);
  f.phase = QueryFlight::Phase::kSettled;
  // Its RPCs and alarms are forgotten: late completions count as stale.
  const auto mine = [i = IndexOf(f)](const auto& e) {
    return e.second.flight == i;
  };
  std::erase_if(inflight_, mine);
  std::erase_if(alarms_, mine);
}

const NetCoordinator::QueryFlight& NetCoordinator::flight(FlightId id) const {
  const auto it = std::find_if(
      flights_.begin(), flights_.end(), [id](const QueryFlight& f) {
        return f.id == id && (f.open() || f.settled());
      });
  SCEC_CHECK(it != flights_.end()) << "no flight " << id;
  return *it;
}

Result<std::vector<double>> NetCoordinator::Take(FlightId id) {
  QueryFlight& f = flights_[IndexOf(flight(id))];
  const Stopwatch wall;
  while (!f.settled()) {
    if (wall.ElapsedSeconds() > options_.max_query_wall_s) {
      Fail(f, Unavailable("query exceeded wall cap of " +
                          std::to_string(options_.max_query_wall_s) + "s"));
      break;
    }
    Poll();
  }
  f.phase = QueryFlight::Phase::kFree;
  if (!f.status.ok()) return std::exchange(f.status, Status::Ok());
  return std::move(f.result);
}

Result<std::vector<double>> NetCoordinator::Query(
    const std::vector<double>& x) {
  Result<FlightId> id = Begin(x);
  SCEC_RETURN_IF_ERROR(id.status());
  return Take(*id);
}

void NetCoordinator::RestoreFromReplay(const recovery::ReplayState& state) {
  SCEC_CHECK(transport_ != nullptr) << "RestoreFromReplay() follows Setup()";
  SCEC_CHECK_GT(generation_, 0u)
      << "generation 0 is the original coordinator; nothing to restore";
  // Devices still hold the rows earlier incarnations staged, so their pad
  // columns stay in the cumulative views: forgetting a dead generation's
  // pads is exactly how pad reuse would slip past the check.
  for (const recovery::JournalSegmentRecord& record : state.prior_segments) {
    views_.Add(SegmentFromRecord(record));
    ++stats_.restored_segments;
    Instruments::Get().restored_segments.Increment();
  }
  for (const size_t device : state.evicted_devices) {
    SCEC_CHECK_LT(device, fleet_.size());
    if (evicted_[device]) continue;
    evicted_[device] = true;
    ++stats_.restored_evictions;
    Instruments::Get().restored_evictions.Increment();
  }
  if (reputation_.enabled()) {
    for (const size_t device : state.quarantined_devices) {
      SCEC_CHECK_LT(device, fleet_.size());
      // Its canary path back stays open, as before the crash.
      reputation_.Quarantine(device);
      ++stats_.restored_evictions;
      Instruments::Get().restored_evictions.Increment();
    }
  }
  query_seq_ = state.next_query_id;
  if (state.has_in_flight) {
    // Parked for the next Begin: the query's id and journaled responses.
    QueryFlight& f = flights_.emplace_back();
    f.phase = QueryFlight::Phase::kParked;
    f.query_id = state.in_flight_id;
    f.responses.assign(
        1, SlotResponses<double>(segments_[0].layout.num_slots()));
    for (const auto& [slot, values] : state.in_flight_responses) {
      if (slot < f.responses[0].size()) f.responses[0][slot] = values;
    }
  }
  // This generation's segments PLUS all prior generations' must still be
  // ITS-secure; a leak means a pad stream was replayed across the crash.
  SCEC_CHECK(VerifyCumulativeSecurity().all_secure)
      << "restored cumulative view leaks data rows (pad reuse across restart)";
  Instruments::Get().restarts.Increment();
  Instant([&] { return "restart(gen " + S(generation_) + ")"; },
          transport_->Now(), /*tid=*/fleet_.size());
  Trace([&] { return "restore gen=" + S(generation_) +
                     " segments=" + S(state.prior_segments.size()); });
}

}  // namespace scec::net
