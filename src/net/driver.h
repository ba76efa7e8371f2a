// SPDX-License-Identifier: MIT
//
// NetCoordinator: the fault-tolerant MCSCEC protocol driver (§II-D).
//
// The coordinator plans (TA2/TA1) or adopts a deployment, encodes
// (structured Eq. (8) code with ChaCha20 pads), stages shares, and answers
// queries by fanning B_j·T·x RPCs over a `Transport` (net/transport.h). The
// discrete-event simulator (net/sim_transport.h) and real sockets
// (net/socket_transport.h) are interchangeable here, and every robustness
// mechanism lives in THIS layer, so each runs unchanged on either:
//
//   deadlines    — each RPC's deadline is budgeted from the device's link
//                  and compute specs (4× the modeled round trip, floored
//                  at `rpc_deadline_s`), or, with
//                  `adaptive_timeouts`, learned from the device's observed
//                  response times (sim/latency_estimator.h). The transport
//                  owns the timer and surfaces expiry as kTimeout, so the
//                  driver never reads a clock to decide anything.
//   retry        — failed RPCs rerun on the shared RetryPolicy schedule with
//                  seeded BackoffJitter, expressed as the transport's
//                  start_delay; an optional shared RetryBudget
//                  (common/retry_budget.h) fails fast when it runs dry.
//   hedging      — a straggling RPC (past its device's observed pXX) has
//                  the rows only it can still yield re-encoded with FRESH
//                  pads onto the two cheapest idle survivors, pad block on
//                  one and mixed block on the other (one device holding
//                  both could unmask the data). First to decode wins; the
//                  loser is cancelled. `hedging_gate` can veto a hedge.
//   masking      — every response is Freivalds-digest checked. A flagged
//                  device is evicted, or quarantined (sim/reputation.h)
//                  when reputation is on; quarantined devices win their
//                  way back through canary probes. With
//                  `byzantine_tolerance` t > 0, t guard segments re-encode
//                  all rows onto spare pairs and the error-locating
//                  decoder (coding/byzantine_decoder.h) decodes around up
//                  to t liars in the same round.
//   eviction     — a device that exhausts its retries is evicted.
//   recovery     — lost rows are re-planned with TA2 over the survivors and
//                  re-encoded with FRESH pads; cumulative per-device views
//                  are checked exactly after every new segment (Def. 2 ITS
//                  across rounds, hedges, guards and incarnations).
//   durability   — with a journal attached (through the session), every
//                  lifecycle event is written ahead to a recovery journal;
//                  RestoreFromReplay re-adopts a dead incarnation's state
//                  and resumes its in-flight query exactly once.
//
// Decision trace: with `record_trace` the driver appends one line per
// protocol decision (plan, stage, dispatch, retry, hedge, evict, recover,
// decode). Response-arrival order is transport-dependent, so per-response
// entries are buffered and flushed in sorted order at decode time — on a
// fault-free run the trace is therefore byte-identical across SimTransport
// and SocketTransport (tests/test_net_transport.cpp holds this invariant).
// Lines are only built when recording.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "allocation/device.h"
#include "coding/result_verify.h"
#include "coding/security_check.h"
#include "common/error.h"
#include "common/retry.h"
#include "common/retry_budget.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/segment.h"
#include "linalg/matrix.h"
#include "net/transport.h"
#include "recovery/journal.h"
#include "sim/latency_estimator.h"
#include "sim/reputation.h"

namespace scec::net {

struct NetCoordinatorOptions {
  // Deadline of an RPC = max(rpc_deadline_s, 4 × the device's modeled
  // round trip: x down, V_j·(2l−1) flops, V_j values up). The floor must
  // sit comfortably above the transport's real round trip.
  double rpc_deadline_s = 0.25;

  // Adaptive deadlines: once a device has `estimator.min_samples` observed
  // responses, its deadline becomes max(rpc_deadline_s, 3 × its observed
  // p99). Cold start keeps the model deadline.
  bool adaptive_timeouts = false;
  sim::LatencyEstimatorOptions estimator;

  // Pair hedging (off by default): an RPC still outstanding after
  // max(rpc_deadline_s, hedge_margin × its device's hedge_quantile) — half
  // its model deadline during cold start — is hedged onto two idle
  // survivors with fresh pads, at most four hedges per query.
  bool hedging = false;
  double hedge_quantile = 0.95;
  double hedge_margin = 1.5;

  // Retry schedule for failed RPCs; `retry.max_attempts` counts dispatches.
  RetryPolicy retry;
  double backoff_jitter = 0.0;  // 0 = deterministic schedule
  uint64_t jitter_seed = 0x5CEC0DE1ULL;
  // Overload protection, both optional. `retry_budget` (not owned; may be
  // shared by several coordinators) is filled by fresh dispatches and
  // spent by every retry and hedge; a dry budget fails a timed-out RPC
  // fast. `hedging_gate` returning false vetoes a hedge (the degradation
  // ladder's kNoHedge rung, serve/overload.h).
  RetryBudget* retry_budget = nullptr;
  std::function<bool()> hedging_gate;

  // Freivalds digest repetitions per response (false accept q^-d).
  size_t num_digests = 1;

  // ChaCha20 seeds: one pad stream (round 0, guards, hedges and recovery,
  // never rewound) and the digest weights. A session's pad generation > 0
  // salts `pad_seed` so a restarted coordinator never replays an earlier
  // pad stream; the digest seed is not salted, so base-segment responses
  // journaled by an earlier incarnation still verify.
  uint64_t pad_seed = 42;
  uint64_t digest_seed = 43;

  size_t max_recovery_rounds = 4;

  // Byzantine masking: t guard segments on spare pairs (capped by the
  // spares available) and the locating decode. t > 0 forces
  // `reputation.enabled`: liars are quarantined, not evicted.
  size_t byzantine_tolerance = 0;
  sim::ReputationOptions reputation;  // quarantine knobs (disabled = all pass)

  bool record_trace = false;

  // Liveness backstop for a wedged transport; never trips on a healthy run
  // and is not a protocol decision (fault-free traces stay identical).
  double max_query_wall_s = 60.0;
};

// The driver's one ledger. Value bytes count 8 bytes per double and
// reconcile against NetTransportStats (the chaos harnesses check both).
struct NetCoordinatorStats {
  uint64_t queries = 0;
  uint64_t dispatches = 0;        // every SubmitQuery (retries, hedges and
                                  // canaries included)
  uint64_t responses_seen = 0;    // every kResponse completion polled
  uint64_t responses_used = 0;    // digest-verified and entered the decode
  uint64_t retries = 0;
  uint64_t retries_suppressed = 0;  // vetoed by a dry retry budget
  uint64_t timeouts = 0;            // kTimeout completions
  uint64_t transport_errors = 0;    // kConnReset / kPartitioned / kProtocol...
  uint64_t stale_ignored = 0;       // completions for already-settled RPCs
  uint64_t evictions = 0;
  uint64_t evictions_corrupt = 0;   // of which: bad digest, reputation off

  uint64_t hedges_launched = 0;   // hedge pairs staged and dispatched
  uint64_t hedge_wins = 0;        // hedge decoded before the original
  uint64_t hedges_cancelled = 0;  // original answered first
  uint64_t hedges_suppressed = 0; // vetoed by the gate or the retry budget
  uint64_t hedged_rows = 0;
  uint64_t adaptive_deadlines = 0;  // deadlines taken from the estimator

  uint64_t recovery_rounds = 0;
  uint64_t replanned_rows = 0;
  double base_plan_cost = 0.0;      // Eq. (1) cost of segment 0
  double recovery_plan_cost = 0.0;  // summed cost of every recovery plan

  uint64_t byzantine_flagged = 0;     // digest-flagged responses
  uint64_t byzantine_guard_segments = 0;
  uint64_t byzantine_guard_rows = 0;
  double byzantine_guard_cost = 0.0;  // Eq. (1) spend on the guard rows
  uint64_t byzantine_masked_queries = 0;  // decoded in one round despite
                                          // >= 1 flagged liar
  uint64_t byzantine_located_liars = 0;
  uint64_t byzantine_fallback_locates = 0;
  uint64_t byzantine_ambiguous_locates = 0;
  uint64_t devices_quarantined = 0;
  uint64_t devices_readmitted = 0;
  uint64_t canaries_sent = 0;
  uint64_t canaries_passed = 0;
  uint64_t canaries_failed = 0;

  // Durability: incarnation, state re-adopted from a journal replay.
  uint64_t generation = 0;
  uint64_t restored_segments = 0;
  uint64_t restored_evictions = 0;
  uint64_t resumed_responses = 0;  // journaled, injected, not re-dispatched

  // Transport-clock latency of the last query: until its first collection
  // round settled, and until its final decode.
  double first_round_s = 0.0;
  double last_query_s = 0.0;

  double staged_value_bytes = 0.0;
  double query_value_bytes = 0.0;
  double response_value_bytes_seen = 0.0;  // bytes of every polled response
  double response_value_bytes = 0.0;       // bytes of USED responses
};

// Flat JSON object / CSV row of every ledger field, plus the derived
// recovery_latency_s (last_query_s − first_round_s) and hedge_rate (hedges
// per dispatch). Benches and the chaos soak export through these.
std::string ToJson(const NetCoordinatorStats& stats);
std::string NetCoordinatorStatsCsvHeader();
std::string ToCsvRow(const NetCoordinatorStats& stats);

// Double-entry check of the driver's ledger against its transport's, for
// queries of width l: staged bytes the driver counted == bytes its devices
// acknowledged; query bytes == sends × l × 8 on both sides, with no send
// the driver did not dispatch; every delivered response, and every one of
// its value bytes, seen by the driver (plus `swept` responses carrying
// `swept_value_bytes`, drained after it stopped polling); and no more
// response bytes used than seen. The transport's Eq. (1) op ledger must
// agree too: per-device staged and returned values sum to the staged and
// response byte totals, and every device's ops satisfy
// mults·(l−1) == adds·l. Returns the first mismatch, or "".
std::string ReconcileLedgers(const NetCoordinatorStats& driver,
                             const NetTransportStats& transport, size_t l,
                             uint64_t swept = 0,
                             uint64_t swept_value_bytes = 0);

class NetCoordinator {
 public:
  // `a` is the m×l data matrix; transport device ids equal fleet indices.
  // Setup() plans and encodes segment 0 itself.
  NetCoordinator(Matrix<double> a, DeviceFleet fleet,
                 NetCoordinatorOptions options)
      : NetCoordinator(std::move(a), std::move(fleet), std::move(options),
                       /*generation=*/0) {}

  // Serves `session`'s deployment as segment 0 (its pads, shares and plan),
  // adopting the session's pad generation and attached journal. The
  // session must outlive the coordinator.
  NetCoordinator(const DeploymentSession<double>& session, Matrix<double> a,
                 DeviceFleet fleet, NetCoordinatorOptions options);

  // Stages segment 0 and the guard segments. Call once. May throw
  // recovery::CoordinatorCrash when a journal crash probe fires.
  Status Setup(Transport* transport);

  // On a restarted incarnation, after Setup(): re-marks evictions and
  // quarantines, re-accounts every prior segment's pad columns in the
  // cumulative views, adopts the query-id sequence, and parks the
  // in-flight query for the next Begin() to re-verify and inject its
  // journaled base-segment responses instead of re-dispatching them.
  void RestoreFromReplay(const recovery::ReplayState& state);

  // Answers A·x, driving retries / hedges / masking / recovery until every
  // row decodes. kInfeasible: fewer than two survivors to re-plan over;
  // kInternal: rows still missing after max_recovery_rounds. Begin + Take.
  Result<std::vector<double>> Query(const std::vector<double>& x);

  // Several queries in flight, each one's state a QueryFlight. Begin admits
  // x and dispatches its first round; Poll handles one completion batch and
  // moves every open flight on (a settled round decodes, re-plans lost rows
  // or probes due canaries); Take polls until flight `id` settles, returns
  // its A·x or error and releases it. Replay tracks one in-flight query:
  // with a journal and a flight open, Begin fails kFailedPrecondition.
  using FlightId = uint64_t;  // 1-based count of queries begun
  struct QueryFlight;
  Result<FlightId> Begin(const std::vector<double>& x);
  void Poll();
  Result<std::vector<double>> Take(FlightId id);
  // A begun flight not yet taken (its times are on the transport clock).
  const QueryFlight& flight(FlightId id) const;

  const NetCoordinatorStats& stats() const { return stats_; }
  const std::vector<std::string>& trace() const { return trace_; }
  const sim::ReputationTracker& reputation() const { return reputation_; }
  // Observed response latencies; fed only while adaptive deadlines or
  // hedging use them.
  const sim::LatencyEstimator& latency_estimator(size_t device) const {
    return latency_[device];
  }
  size_t num_segments() const { return segments_.size(); }
  bool evicted(size_t device) const { return evicted_[device]; }
  size_t num_evicted() const;
  // Guard segments provisioned by Setup(): min(t, spare pairs).
  size_t byzantine_tolerance_effective() const { return guards_; }

  // Exact Def. 2 over every device's cumulative view (all rounds and
  // incarnations); report index = fleet device.
  SchemeSecurityReport VerifyCumulativeSecurity() const {
    return views_.Verify();
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  NetCoordinator(Matrix<double> a, DeviceFleet fleet,
                 NetCoordinatorOptions options, uint32_t generation);

  // One encoding round (core/segment.h). Shares stay staged on their
  // devices across queries; a retired hedge is never dispatched again.
  struct Segment {
    CodedSegment layout;
    ResultVerifier<double> verifier;
    std::vector<uint64_t> share_ids;
    bool live = true;
  };

  enum class SlotPhase { kIdle, kOutstanding, kDone, kFailed, kCancelled };
  // A slot's attempts: `rpc` is the latest. An earlier attempt that timed
  // out stays open (mapped in inflight_) until the slot settles, so its
  // late answer can still settle the slot.
  struct SlotState {
    SlotPhase phase = SlotPhase::kIdle;
    size_t attempts = 0;
    uint64_t rpc = 0;
    uint64_t hedge_alarm = 0;
    double dispatch_s = 0.0;     // transport clock at the first dispatch
    size_t hedge_group = kNone;  // the hedge racing this slot, if any
  };
  // An open RPC or hedge alarm: flight (index into flights_), segment, slot.
  struct Inflight {
    size_t flight = 0;
    size_t segment = 0;
    size_t slot = 0;
    bool canary = false;
  };
  // A straggling slot and the hedge segment racing it.
  struct HedgeGroup {
    size_t segment = 0;
    size_t slot = 0;
    size_t hedge_segment = 0;
    bool open = true;
  };

  bool UsableDevice(size_t device) const;
  // Encodes `layout` with fresh pads and stages one share per slot,
  // journaling the segment first. Every staged slot's rows enter the
  // cumulative views, even when a later slot fails; the failing device is
  // evicted and the result is kUnavailable.
  Status EncodeAndStage(CodedSegment layout);
  // A slot's share, valid until the next call: adopted (the base
  // deployment's) or freshly encoded into a reused buffer.
  using ShareSource = std::function<const Matrix<double>&(
      const CodedSegment& layout, size_t slot)>;
  // Stages `layout` slot by slot from `share_of` (the staging loop of
  // EncodeAndStage, also used for an adopted segment 0). Flights gain
  // idle slots for it.
  Status AddSegment(CodedSegment layout, const ShareSource& share_of);
  Status VerifyCumulativeOrAbort(const char* stage);
  void ProvisionGuards();

  double ModelDeadline(size_t segment, size_t slot) const;
  double DeadlineFor(size_t segment, size_t slot);
  double HedgeDelay(size_t segment, size_t slot) const;

  // Query machinery: each call acts on one flight's tables.
  size_t IndexOf(const QueryFlight& f) const;  // into flights_
  void DispatchSegment(QueryFlight& f, size_t segment);
  void DispatchSlot(QueryFlight& f, size_t segment, size_t slot,
                    double start_delay_s);
  void SettleSlot(QueryFlight& f, size_t segment, size_t slot,
                  SlotPhase phase);
  // Right length and passes the slot's Freivalds digests for `x`.
  bool Verified(size_t segment, size_t slot, const std::vector<double>& x,
                const std::vector<double>& values) const;
  void HandleResponse(Completion& completion);
  void HandleCanary(const Inflight& entry, const Completion& completion);
  void HandleError(const Completion& completion);
  void HandleAlarm(const Completion& completion);
  // Moves `f` on once its outstanding count reached zero: decode, then a
  // recovery round for the lost rows or the canaries, then the result.
  void Advance(QueryFlight& f);
  void Finish(QueryFlight& f);
  void Fail(QueryFlight& f, Status status);
  Result<size_t> PlanRecoverySegment(const std::vector<size_t>& lost);

  // Standing changes: eviction, quarantine (digest flag or timeouts), and
  // the journal record every change writes ahead.
  void Evict(size_t device, uint64_t reason, const char* why);
  void FlagByzantine(QueryFlight& f, size_t device);
  void NoteTimeout(size_t device);
  void Quarantined(size_t device, const char* why);
  void JournalStanding(size_t device, uint64_t reason);

  void MaybeHedge(QueryFlight& f, size_t segment, size_t slot);
  void CloseHedge(QueryFlight& f, size_t group, bool hedge_won);
  std::vector<size_t> RowsAtRisk(const QueryFlight& f, size_t segment,
                                 size_t slot) const;

  std::vector<size_t> Decode(QueryFlight& f);
  void DecodeLocating(QueryFlight& f);
  void RunCanaries(QueryFlight& f);

  void Journal(recovery::JournalEvent event, bool committed);
  void Commit();

  // Trace lines are built only when recording: callers pass a callable.
  template <typename F>
  void Trace(F&& line) {
    if (options_.record_trace) trace_.push_back(line());
  }
  void FlushVerified(QueryFlight& f);  // its buffered lines, sorted

  Matrix<double> a_;
  DeviceFleet fleet_;
  NetCoordinatorOptions options_;
  // Coordinator incarnation (the session's pad generation); > 0 salts the
  // pad stream and marks a restart.
  uint32_t generation_ = 0;
  const Deployment<double>* base_ = nullptr;  // adopted segment 0, if any
  recovery::QueryJournal* journal_ = nullptr;
  Transport* transport_ = nullptr;

  ChaCha20Rng pad_rng_;  // never rewound: fresh pads every segment
  ChaCha20Rng digest_rng_;
  BackoffJitter jitter_;
  sim::ReputationTracker reputation_;
  std::vector<sim::LatencyEstimator> latency_;

  std::vector<Segment> segments_;
  std::vector<bool> evicted_;
  uint64_t next_share_id_ = 1;
  size_t guards_ = 0;

  CumulativeViews views_;  // per fleet device, across all rounds

  uint64_t query_seq_ = 0;  // journal query ids
  // Released flights are reused with their tables' capacity. After
  // RestoreFromReplay one flight waits, parked, to resume the in-flight
  // query with its journaled base-segment responses.
  std::vector<QueryFlight> flights_;
  std::unordered_map<uint64_t, Inflight> inflight_;
  std::unordered_map<uint64_t, Inflight> alarms_;
  std::vector<Completion> completions_;  // Poll's batch buffer

  NetCoordinatorStats stats_;
  std::vector<std::string> trace_;
};

// One query's state; tables are [segment][slot] (segments stay fleet-wide).
struct NetCoordinator::QueryFlight {
  enum class Phase { kFree, kParked, kRound, kCanaries, kSettled };
  bool open() const {
    return phase == Phase::kRound || phase == Phase::kCanaries;
  }
  bool settled() const { return phase == Phase::kSettled; }

  FlightId id = 0;
  Phase phase = Phase::kFree;
  uint64_t query_id = 0;  // journal id (a resumed query keeps its own)
  std::vector<double> x;
  double start_s = 0.0;
  double round_start_s = 0.0;
  double decoded_s = 0.0;  // every row decoded (before the canaries)
  size_t rounds = 0;       // recovery rounds so far
  size_t outstanding = 0;  // slots and canaries still awaited
  std::vector<std::vector<SlotState>> slots;
  std::vector<SlotResponses<double>> responses;
  std::vector<HedgeGroup> hedges;
  std::vector<size_t> flagged;  // devices flagged by this query
  std::vector<size_t> located;  // liars located by this query
  std::vector<std::optional<double>> decoded;
  std::vector<std::string> verified_trace;  // flushed sorted at decode
  Status status;  // the error a failed flight settled with
  std::vector<double> result;
};

}  // namespace scec::net
