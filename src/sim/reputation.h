// SPDX-License-Identifier: MIT
//
// Per-device reputation for the fault-tolerant runtime.
//
// Every settled response moves a device's score: a digest-verified answer
// earns a small reward, a timed-out dispatch costs a moderate penalty, and a
// digest-flagged (Byzantine) answer is disqualifying on the spot — the
// Freivalds digest has no false rejects, so a single flag is proof of
// corruption, not noise. A device whose score falls below the quarantine
// threshold (or that is flagged) stops receiving query, hedge, and recovery
// dispatches.
//
// Quarantine is probationary, not permanent: transient corruption (a flaky
// radio, a since-patched bug) should not strand capacity forever. Every
// `canary_interval` queries the runtime sends the quarantined device a
// LOW-STAKES canary — a real query over the share it already holds, whose
// response is digest-checked and then DISCARDED, never entering the decode.
// `canary_passes_to_readmit` consecutive clean canaries readmit the device
// at a probationary score; one failed canary resets the streak.
//
// The tracker is a pure counter machine — no RNG, no clock — so identical
// event sequences produce identical standings on every platform, which the
// chaos harness (sim/chaos.h) relies on for (seed, index) reproducibility.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace scec::sim {

struct ReputationOptions {
  bool enabled = false;
  double initial_score = 0.5;
  double verified_reward = 0.05;      // per digest-verified response, cap 1.0
  double timeout_penalty = 0.15;      // per deadline timeout, floor 0.0
  double quarantine_threshold = 0.2;  // score < threshold ⇒ quarantined
  size_t canary_interval = 1;         // queries between canary probes
  size_t canary_passes_to_readmit = 2;
  double readmit_score = 0.35;        // probationary score on readmission

  void Validate() const;
};

enum class DeviceStanding { kActive, kQuarantined };

class ReputationTracker {
 public:
  ReputationTracker() = default;
  ReputationTracker(size_t num_devices, ReputationOptions options);

  bool enabled() const { return options_.enabled; }
  size_t size() const { return states_.size(); }

  // Response outcomes. RecordCorrupt / RecordCanaryResult return true when
  // the device's standing changed (quarantined / readmitted) by this call.
  void RecordVerified(size_t device);
  bool RecordCorrupt(size_t device);
  void RecordTimeout(size_t device);

  // Query lifecycle: advances the canary pacing clock.
  void AdvanceQuery();
  bool CanaryDue(size_t device) const;
  void NoteCanarySent(size_t device);
  bool RecordCanaryResult(size_t device, bool passed);

  double score(size_t device) const;
  DeviceStanding standing(size_t device) const;
  // Dispatchable for queries/hedges/recovery. Always true when disabled.
  bool Usable(size_t device) const;

  // Quarantines outright (a restarted coordinator re-adopting a journaled
  // standing); true if newly quarantined. Canaries can readmit it.
  bool Quarantine(size_t device);

  size_t num_quarantined() const;
  uint64_t quarantined_total() const { return quarantined_total_; }
  uint64_t readmitted_total() const { return readmitted_total_; }

 private:
  struct State {
    double score = 0.5;
    DeviceStanding standing = DeviceStanding::kActive;
    size_t canary_passes = 0;
    // Query counter value when the last canary went out (pacing).
    size_t last_canary_query = 0;
  };

  ReputationOptions options_;
  std::vector<State> states_;
  size_t query_counter_ = 0;
  uint64_t quarantined_total_ = 0;
  uint64_t readmitted_total_ = 0;
};

}  // namespace scec::sim
