// SPDX-License-Identifier: MIT
//
// Deterministic overload-chaos harness for the serving tier: the sim/chaos.h
// pattern (seeded episodes, invariants, sabotage negatives, one-command
// repro) pointed at ServeCoordinator's overload-protection layer instead of
// the fault-tolerant protocol.
//
// Each episode derives a multi-tenant serving scenario from one
// SplitMix64-derived seed — tenant worlds, arrival traces, protection knobs
// — and replays a three-phase open-loop trace against a coordinator with
// the full protection stack on (quotas, deadline shedding, brownout
// breaker, degradation ladder) over a single virtual server:
//
//   baseline   offered load at `utilization` x capacity — the healthy
//              goodput yardstick;
//   surge      the mix's overload: one tenant flooding, a flash crowd
//              across every tenant, a fleet brownout (virtual service times
//              multiplied), or a retry storm (clients blindly resubmitting
//              every rejection);
//   recovery   offered load back at baseline — where metastable failure
//              modes (queues full of dead work, retry amplification) show
//              up as goodput that never comes back.
//
// Time is entirely virtual: arrivals, pump instants, and service times all
// come from the episode's derived trace and the coordinator's
// `service_model`, so an episode is a pure function of (seed, index) —
// bit-identical across SCEC_THREADS and pool sizes (the determinism test
// fingerprints completions across thread counts).
//
// Invariants, all checked per episode:
//
//   1. decode           — every SERVED completion equals the tenant
//                         session's scalar Serve(x) exactly (the coalesced
//                         panel path may never trade correctness for
//                         goodput, at any ladder rung);
//   2. shed_accounting  — every submission is accounted for exactly once:
//                         attempts == admitted + rejected, and admitted ==
//                         served + explicitly shed, cross-checked against
//                         the coordinator's own counters. Nothing is ever
//                         silently dropped;
//   3. no_metastability — recovery-phase goodput (measured after a bounded
//                         settle window) returns to >= `goodput_floor` x
//                         baseline goodput: the overload must END when the
//                         load does;
//   4. liveness         — the queue is empty after the final flush and the
//                         ladder has returned to kNormal by episode end.
//
// Sabotage hooks corrupt the EPISODE'S ACCOUNTING after the run (the
// coordinator itself is untouched) so negative tests can prove the harness
// detects violations.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "serve/admission.h"
#include "serve/overload.h"
#include "sim/soak.h"

namespace scec::sim {

// One overload profile applied during the surge phase.
struct OverloadMix {
  std::string name = "baseline";
  // Multiplier on tenant 0's arrival rate (a single abusive tenant).
  double flood_factor = 1.0;
  // Multiplier on EVERY tenant's arrival rate (a flash crowd).
  double crowd_factor = 1.0;
  // Multiplier on virtual service times (a fleet brownout): panels slow
  // down until class budgets blow, tripping the breaker.
  double brownout_factor = 1.0;
  // Client-side retry storm: a rejected submission is blindly resubmitted
  // up to this many extra times, immediately (the anti-pattern retry
  // budgets exist to survive).
  size_t client_retries = 0;
};

// The standard rotation: tenant flood, flash crowd, correlated fleet
// brownout, and a retry-storm crowd.
std::vector<OverloadMix> DefaultOverloadMixes();

struct OverloadConfig {
  uint64_t seed = 1;  // master seed; episode i is determined by (seed, i)
  size_t episodes = 16;

  // Scenario ranges (inclusive), drawn per episode.
  size_t tenants_min = 2;
  size_t tenants_max = 4;
  size_t m_min = 6;
  size_t m_max = 12;
  size_t l_min = 4;
  size_t l_max = 8;
  size_t fleet_k = 4;  // devices per tenant deployment

  // Virtual service model: a panel of w columns takes
  // service_floor_s + w * service_per_column_s (x brownout during surge).
  double service_floor_s = 1e-3;
  double service_per_column_s = 5e-4;

  // Phase durations (virtual seconds) and baseline offered load as a
  // fraction of the single-server coalesced capacity.
  double baseline_s = 0.5;
  double surge_s = 0.5;
  double recovery_s = 1.5;
  double utilization = 0.5;
  // The recovery goodput window starts settle_fraction into the recovery
  // phase — the "bounded sim-time" the system gets to drain the surge.
  double settle_fraction = 0.5;

  // no_metastability floor: recovery goodput >= floor x baseline goodput.
  double goodput_floor = 0.6;

  std::vector<OverloadMix> mixes;  // empty -> DefaultOverloadMixes();
                                   // episode i uses mixes[i % size]
  ThreadPool* pool = nullptr;      // panel pool; null -> ThreadPool::Shared()
};

// Corrupt one invariant input AFTER the episode ran (accounting copies only)
// — negative tests prove the harness catches violations.
enum class OverloadSabotage {
  kNone,
  kTamperResult,     // flip one served value   -> decode must trip
  kDropCompletion,   // hide one completion     -> shed_accounting must trip
};

struct OverloadInvariants {
  bool decode = true;
  bool shed_accounting = true;
  bool no_metastability = true;
  bool liveness = true;
  bool AllHold() const {
    return decode && shed_accounting && no_metastability && liveness;
  }
};

struct OverloadEpisode {
  // Identity + derived scenario.
  size_t index = 0;
  uint64_t seed = 0;
  std::string mix;
  size_t tenants = 0;
  size_t m = 0;
  size_t l = 0;
  double capacity_qps = 0.0;  // coalesced single-server capacity

  // Accounting (driver-side tallies, cross-checked vs coordinator counters).
  uint64_t attempts = 0;  // Submit calls, client retries included
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t rejected_by_reason[serve::kNumRejectReasons] = {};
  uint64_t served = 0;
  uint64_t shed = 0;

  // Goodput (within-budget completions per virtual second) per phase.
  double baseline_goodput = 0.0;
  double surge_goodput = 0.0;
  double recovery_goodput = 0.0;

  // Protection activity.
  serve::OverloadLevel peak_level = serve::OverloadLevel::kNormal;
  uint64_t ladder_transitions = 0;
  uint64_t breaker_opens = 0;

  // Order-sensitive digest of every completion (ticket, shed flag, phase) —
  // the cross-thread determinism check compares these.
  uint64_t fingerprint = 0;

  OverloadInvariants invariants;
  std::string failure;  // first violated invariant + detail; empty if ok

  bool ok() const { return invariants.AllHold(); }
};

using OverloadSoakSummary = SoakSummary<OverloadEpisode>;

// Runs episode `index` of the soak described by `config`, deterministically.
OverloadEpisode RunOverloadEpisode(const OverloadConfig& config, size_t index,
                                   OverloadSabotage sabotage =
                                       OverloadSabotage::kNone);

// Runs the full soak; failing episodes are collected for repro, never skipped.
OverloadSoakSummary RunOverloadSoak(const OverloadConfig& config);

// Scenario header + phase goodputs of one episode, human-readable.
std::string DescribeOverloadEpisode(const OverloadEpisode& episode);

// One-command repro for a failing episode.
std::string OverloadReproCommand(const OverloadConfig& config,
                                 const OverloadEpisode& episode);

}  // namespace scec::sim
