// SPDX-License-Identifier: MIT
//
// The graceful-degradation ladder: one overload-state machine that trades
// optional work for goodput, rung by rung, instead of letting queue-wait
// tails grow without bound (docs/SERVING.md, "Overload protection").
//
//   rung 0  kNormal         everything on.
//   rung 1  kShedBulk       bulk-class queries are rejected at admission and
//                           already-queued bulk is shed explicitly (bulk has
//                           a 100x budget precisely so it is the first
//                           ballast overboard).
//   rung 2  kNoHedge        speculative hedges are disabled — hedge traffic
//                           is pure duplicate work (+30% dispatches in the
//                           PR-4 A/B), exactly what an overloaded fleet
//                           cannot afford. Consumed by the protocol driver
//                           via NetCoordinatorOptions::hedging_gate.
//   rung 3  kSampleVerify   result verification drops from every batch to 1
//                           in `verify_sample_every` (spot checks keep
//                           corruption detection alive at reduced cost).
//   rung 4  kRejectStandard standard-class queries are rejected too; only
//                           interactive traffic — the class users are
//                           staring at — is served.
//
// WHAT IS NEVER ON THE LADDER: the one-time-pad layer. Def. 2 ITS is the
// paper's contract and it costs nothing at query time (pads are applied at
// encode time); no overload level weakens padding, pad freshness, or the
// cumulative-view security check. tests/test_overload.cpp pins this by
// running the protocol at every rung and asserting VerifyCumulativeSecurity.
//
// Escalation is immediate (pressure crossing a rung's enter threshold jumps
// straight to it); de-escalation is one rung at a time and only after
// pressure has stayed below the rung's exit threshold for `dwell_s` of
// decision time (enter > exit + dwell = the hysteresis that prevents
// flapping). Pressure is supplied by the coordinator: queue backlog relative
// to its global limit, forced to 1.0 while the brownout breaker is open.
// Deterministic: decisions depend only on (pressure, decision clock).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "serve/deadline.h"

namespace scec::serve {

enum class OverloadLevel : size_t {
  kNormal = 0,
  kShedBulk = 1,
  kNoHedge = 2,
  kSampleVerify = 3,
  kRejectStandard = 4,
};

inline constexpr size_t kNumOverloadLevels = 5;

const char* OverloadLevelName(OverloadLevel level);

struct OverloadOptions {
  bool enabled = false;
  // enter[i] / exit[i] are the pressure thresholds of rung i+1. Escalate to
  // the highest rung whose enter threshold is reached; de-escalate one rung
  // once pressure < exit[rung-1] for dwell_s. Each exit must sit below its
  // enter (hysteresis band).
  std::array<double, kNumOverloadLevels - 1> enter = {0.50, 0.70, 0.85, 0.95};
  std::array<double, kNumOverloadLevels - 1> exit = {0.35, 0.50, 0.65, 0.80};
  double dwell_s = 0.05;
  // At kSampleVerify and above, verify 1 in this many batches.
  size_t verify_sample_every = 8;

  void Validate() const;
};

class OverloadGovernor {
 public:
  explicit OverloadGovernor(OverloadOptions options = {});

  // Feeds one pressure sample at `now_s`; returns the (possibly changed)
  // level. Disabled governors stay at kNormal.
  OverloadLevel Update(double now_s, double pressure);

  OverloadLevel level() const { return level_; }

  // Admission verdict for a deadline class at the current rung.
  bool AdmitClass(DeadlineClass cls) const;

  // False at kNoHedge and above. Exposed as a std::function-compatible
  // gate for the driver's NetCoordinatorOptions::hedging_gate.
  bool HedgingAllowed() const {
    return static_cast<size_t>(level_) <
           static_cast<size_t>(OverloadLevel::kNoHedge);
  }

  // Verification sampling decision for the next batch: always true below
  // kSampleVerify, 1 in verify_sample_every at or above it (counter-based,
  // deterministic). Call once per batch that WOULD be verified.
  bool ShouldVerifyBatch();

  uint64_t transitions() const { return transitions_; }

  const OverloadOptions& options() const { return options_; }

 private:
  OverloadOptions options_;
  OverloadLevel level_ = OverloadLevel::kNormal;
  // Decision instant pressure first dropped below the current rung's exit
  // threshold; NaN-free sentinel: below_since_ < 0 means "not below".
  double below_since_s_ = -1.0;
  uint64_t transitions_ = 0;
  uint64_t verify_counter_ = 0;
};

}  // namespace scec::serve
