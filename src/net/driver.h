// SPDX-License-Identifier: MIT
//
// NetCoordinator: the transport-generic MCSCEC protocol driver.
//
// The coordinator plans (TA2/TA1), encodes (structured Eq. (8) code with
// ChaCha20 pads), stages shares, and answers queries by fanning B_j·T·x
// RPCs over a `Transport` (net/transport.h) — the in-process simulator
// (net/sim_transport.h) and the real-socket loopback cluster
// (net/socket_transport.h) are interchangeable here. Every robustness
// mechanism lives in THIS layer and therefore runs unchanged on either:
//
//   deadlines    — every RPC carries a fixed configured deadline; the
//                  transport owns the timer and surfaces expiry as a typed
//                  kTimeout completion,
//   retry        — failed RPCs (timeout / conn reset / partition) rerun with
//                  the shared RetryPolicy schedule + seeded BackoffJitter,
//                  expressed as the transport's start_delay so the driver
//                  itself never reads a clock,
//   hedging      — an optional per-dispatch alarm duplicates a straggling
//                  RPC to the share's holder; first verified answer wins,
//                  the loser is cancelled (same device, same view: no ITS
//                  impact),
//   masking      — every response is Freivalds-digest checked; a flagged
//                  (Byzantine) answer is discarded, the device quarantined
//                  via the ReputationTracker, and its rows recovered,
//   eviction     — a device that exhausts its retry budget is evicted,
//   recovery     — lost rows are re-planned with TA2 over the survivors and
//                  re-encoded with FRESH pads; cumulative per-device views
//                  are checked exactly (Def. 2 ITS across rounds).
//
// Decision trace: with `record_trace` the driver appends one line per
// protocol decision (plan, stage, dispatch, retry, hedge, evict, recover,
// decode). Response-arrival order is transport-dependent, so per-response
// entries are buffered and flushed in sorted order at decode time — on a
// fault-free run the trace is therefore byte-identical across SimTransport
// and SocketTransport (tests/test_net_transport.cpp holds this invariant).

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "allocation/device.h"
#include "coding/result_verify.h"
#include "coding/security_check.h"
#include "common/error.h"
#include "common/retry.h"
#include "common/rng.h"
#include "core/planner.h"
#include "core/segment.h"
#include "linalg/matrix.h"
#include "net/transport.h"
#include "sim/reputation.h"

namespace scec::net {

struct NetCoordinatorOptions {
  TaAlgorithm algorithm = TaAlgorithm::kAuto;

  // Per-RPC deadline, identical on every transport (the transport owns the
  // timer). Keep comfortably above the loopback round trip but small enough
  // that a silent device is detected quickly.
  double rpc_deadline_s = 0.25;

  // Retry schedule for failed RPCs; `retry.max_attempts` counts dispatches.
  RetryPolicy retry;
  double backoff_jitter = 0.0;        // 0 = deterministic schedule
  uint64_t jitter_seed = 0x5CEC0DE1ULL;

  // Hedging: if > 0, arm an alarm this long after each first dispatch and
  // duplicate the RPC if still unanswered. Off by default (alarm-vs-response
  // races make traces timing-dependent; enable per bench/test).
  double hedge_after_s = 0.0;

  // Freivalds verification (coding/result_verify.h).
  bool verify_responses = true;
  size_t num_digests = 1;

  // ChaCha20 seeds: pads (round 0 + every recovery round; never rewound)
  // and digest weights.
  uint64_t pad_seed = 42;
  uint64_t digest_seed = 43;

  size_t max_recovery_rounds = 4;

  sim::ReputationOptions reputation;  // quarantine knobs (disabled = all pass)

  bool record_trace = true;

  // Liveness backstop for a wedged transport; never trips on a healthy run
  // and is not a protocol decision (fault-free traces stay identical).
  double max_query_wall_s = 60.0;
};

struct NetCoordinatorStats {
  uint64_t queries = 0;
  uint64_t dispatches = 0;        // every SubmitQuery (first tries + retries)
  uint64_t responses_seen = 0;    // every kResponse completion polled
  uint64_t responses_used = 0;    // digest-verified and entered the decode
  uint64_t retries = 0;
  uint64_t timeouts = 0;          // kTimeout completions
  uint64_t transport_errors = 0;  // kConnReset / kPartitioned / kRefused
  uint64_t hedges_launched = 0;
  uint64_t hedge_wins = 0;        // hedge settled before the primary
  uint64_t byzantine_flagged = 0;
  uint64_t evictions = 0;
  uint64_t recovery_rounds = 0;
  uint64_t replanned_rows = 0;
  uint64_t stale_ignored = 0;     // completions for already-settled RPCs

  // Driver-side cost ledger (8 bytes per double), reconciled against
  // NetTransportStats by the net chaos harness.
  double staged_value_bytes = 0.0;
  double query_value_bytes = 0.0;
  double response_value_bytes = 0.0;  // bytes of USED responses
};

class NetCoordinator {
 public:
  // `a` is the m×l data matrix; transport device ids equal fleet indices
  // (daemon d serves fleet device d).
  NetCoordinator(Matrix<double> a, DeviceFleet fleet,
                 NetCoordinatorOptions options);

  // Plans, encodes, and stages round-0 shares. Call once.
  Status Setup(Transport* transport);

  // Answers A·x, driving retries / hedges / recovery until every row
  // decodes (or the recovery budget is spent).
  Result<std::vector<double>> Query(const std::vector<double>& x);

  const NetCoordinatorStats& stats() const { return stats_; }
  const std::vector<std::string>& trace() const { return trace_; }
  const sim::ReputationTracker& reputation() const { return reputation_; }
  size_t num_segments() const { return segments_.size(); }
  bool evicted(size_t device) const { return evicted_[device]; }

  // Exact Def. 2 over every device's cumulative view (all rounds); report
  // index = fleet device. Checked after setup and every recovery re-encode.
  SchemeSecurityReport VerifyCumulativeSecurity() const {
    return views_.Verify();
  }

 private:
  // One encoding round (core/segment.h): round 0 covers all m rows,
  // recovery rounds cover the lost subset. Shares stay staged on their
  // daemons across queries.
  struct Segment {
    CodedSegment layout;
    ResultVerifier<double> verifier;
    std::vector<uint64_t> share_ids;
  };

  enum class SlotPhase { kIdle, kOutstanding, kDone, kFailed };
  struct SlotState {
    SlotPhase phase = SlotPhase::kIdle;
    size_t attempts = 0;           // dispatches consumed (primary + hedge)
    uint64_t primary_rpc = 0;
    uint64_t hedge_rpc = 0;
    uint64_t hedge_alarm = 0;
  };
  struct Inflight {
    size_t segment = 0;
    size_t slot = 0;
    bool hedge = false;
  };

  bool UsableDevice(size_t device) const;
  // Encodes `layout` with fresh pads and stages one share per slot. Every
  // staged slot's rows enter the cumulative views, even when a later slot
  // fails; the failing device is evicted and the result is kUnavailable.
  Status EncodeAndStage(CodedSegment layout);
  Status VerifyCumulativeOrAbort(const char* stage);

  // Query machinery (all operate on query_slots_ / inflight_).
  void DispatchSegment(size_t segment_index, const std::vector<double>& x);
  void DispatchSlot(size_t segment_index, size_t slot,
                    const std::vector<double>& x, double start_delay_s);
  void SettleSlot(size_t segment_index, size_t slot, SlotPhase phase);
  void HandleResponse(const Completion& completion,
                      const std::vector<double>& x);
  void HandleError(const Completion& completion, const std::vector<double>& x);
  void HandleAlarm(const Completion& completion, const std::vector<double>& x);
  Status WaitOutstanding(const std::vector<double>& x);
  Result<size_t> PlanRecoverySegment(const std::vector<size_t>& lost);

  void Trace(std::string line);
  void TraceVerified(std::string line);  // buffered, flushed sorted
  void FlushVerified();

  Matrix<double> a_;
  DeviceFleet fleet_;
  NetCoordinatorOptions options_;
  Transport* transport_ = nullptr;

  ChaCha20Rng pad_rng_;      // never rewound: fresh pads every round
  ChaCha20Rng digest_rng_;
  BackoffJitter jitter_;
  sim::ReputationTracker reputation_;

  std::vector<Segment> segments_;
  std::vector<bool> evicted_;
  uint64_t next_share_id_ = 1;

  CumulativeViews views_;  // per fleet device, across all rounds

  // Per-query state.
  std::vector<std::vector<SlotState>> query_slots_;  // [segment][slot]
  std::vector<SlotResponses<double>> responses_;     // [segment][slot]
  std::unordered_map<uint64_t, Inflight> inflight_;
  std::unordered_map<uint64_t, Inflight> alarms_;
  size_t outstanding_ = 0;

  NetCoordinatorStats stats_;
  std::vector<std::string> trace_;
  std::vector<std::string> verified_buffer_;
};

}  // namespace scec::net
