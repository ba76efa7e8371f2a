// SPDX-License-Identifier: MIT
//
// Seeded chaos-soak harness for the fault-tolerant SCEC runtime, on either
// transport.
//
// A soak runs many independent EPISODES. Each episode derives every random
// choice — problem shape, fleet, fault schedule, straggler/loss knobs — from
// a single SplitMix64-derived seed (sim/soak.h), builds a fresh deployment,
// runs queries through the protocol driver (net/driver.h) and checks the
// invariants below. The transport is one setting (ChaosConfig::transport):
//
//   sim     the simulated fleet (net/sim_transport.h) in virtual time;
//           episodes replay bit for bit;
//   socket  a live loopback cluster — one scecd daemon behind one
//           ChaosProxy per device, reached over SocketTransport. Device
//           faults run in the daemon's net::DeviceCore, from the same
//           script the simulator's devices run; link faults run on the
//           proxy. All strike from the first query:
//             omission    -> the daemon's script: compute, never answer
//             corruption  -> the daemon's script: the simulator's lie,
//                            seeded coins included
//             crash       -> mid-message kill, then unreachable (Crash())
//             transient   -> partition, healed after the drawn window
//             stragglers  -> proxy delay
//             lossy links -> proxy drop, delay and reorder
//           Both transports run every mix of DefaultChaosMixes(). The
//           schedule replays from the seed; the interleaving does not, and
//           the invariants hold under every interleaving.
//
// Invariants, identical on both transports:
//
//   1. decode    — every successfully answered query equals A·x to within
//                  1e-9 (max abs difference to the ground-truth MatVec);
//   2. security  — every device's cumulative view stays Def. 2 ITS-secure
//                  after all recovery rounds and hedges (exact GF(2^61−1)
//                  ranks via VerifyCumulativeSecurity);
//   3. ledger    — after a drain and a sweep of late completions, the
//                  driver's and the transport's independent tallies agree
//                  double-entry style (net::ReconcileLedgers): staged bytes
//                  == bytes the devices received, query bytes == dispatches
//                  × l × 8 on both sides, the transport never sends more
//                  queries than the driver dispatched, every response and
//                  response byte the transport delivered was seen by the
//                  driver or the sweep, the driver never used more
//                  response bytes than it saw, and the transport's Eq. (1)
//                  op ledger holds mults·(l−1) == adds·l per device with
//                  its value counts summing to the byte totals. Over
//                  sockets, no device's op count exceeds what its
//                  in-process scecd says it computed;
//   4. liveness  — the protocol terminates with an explicit outcome:
//                  decoded, kInfeasible (fleet collapsed below k = 2) or
//                  kInternal (recovery budget exhausted), within a wall
//                  cap. Every RPC has a deadline, so this invariant catches
//                  status-code regressions and wedged transports.
//
// Byzantine mixes (byzantine_tolerance > 0) add two more:
//
//   5. masking    — with guards provisioned and ≤ t always-lying scripted
//                   liars, every query decodes exactly with ZERO recovery
//                   re-plans (single-round masking);
//   6. quarantine — every always-lying digest-visible scripted liar ends the
//                   episode quarantined by the reputation tracker.
//
// Episodes are REPLAYABLE: a failing episode's master seed + index (+ the
// transport) determine its schedule, and ReproCommand() prints the
// one-command repro (bench/chaos_soak --seed=… --replay=… [--transport=
// socket]). Sabotage hooks deliberately break an invariant on an
// otherwise-healthy episode so tests can prove the harness actually catches
// violations (a soak that can't fail is not a check).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/chaos_proxy.h"
#include "net/driver.h"
#include "net/transport.h"
#include "recovery/coordinator.h"
#include "recovery/crash.h"
#include "sim/faults.h"
#include "sim/soak.h"

namespace scec::sim {

// One fault-mix profile: per-device probabilities of each scripted fault
// plus episode-level toggles. Probabilities are per participating device;
// scripted faults are capped so most episodes stay decodable.
struct ChaosMix {
  std::string name = "baseline";
  double crash = 0.0;
  double omission = 0.0;
  double corruption = 0.0;
  double transient = 0.0;
  double straggler = 0.0;    // P(episode runs kShiftedExponential stragglers)
  // Simulated fleets only. Devices compute `compute_slowdown` times slower
  // than their profiles, and the drawn straggler tail rate is multiplied by
  // `straggler_rate_scale` (below 1: a heavier tail). At the episode shapes
  // a share computes in microseconds against millisecond links, so only a
  // slowed fleet with a heavy tail straggles past a hedge deadline.
  double compute_slowdown = 1.0;
  double straggler_rate_scale = 1.0;
  // Socket fleets only: a straggling link holds a frame this many wall
  // seconds divided by the drawn tail rate (0.5-4).
  double socket_straggler_delay_s = 0.05;
  double lossy_links = 0.0;  // P(episode loses query-path messages)
  bool hedging = false;
  bool adaptive_timeouts = false;
  // Byzantine masking: tolerance t provisions guard segments (scripted liars
  // are additionally capped at t so masked episodes stay locatable), and the
  // adversary-model knobs flow into every scripted kCorruption event.
  size_t byzantine_tolerance = 0;
  double corruption_probability = 1.0;  // < 1: intermittent liars
  bool corruption_relative = false;     // minimal-magnitude attacks
  bool corruption_equivocate = false;   // a different lie on every firing
  bool coordinated = false;  // all liars share one (element, delta)
};

// The standard soak rotation: every fault kind alone, the kitchen sink, and
// the resilience features on top of stragglers (hedging with adaptive
// timeouts, on a slowed fleet whose stragglers outlast a hedge deadline).
std::vector<ChaosMix> DefaultChaosMixes();

enum class ChaosTransport { kSim, kSocket };

struct ChaosConfig {
  uint64_t seed = 1;    // master seed; episode i is fully determined by (seed, i)
  size_t episodes = 200;
  size_t queries_per_episode = 2;
  ChaosTransport transport = ChaosTransport::kSim;

  std::vector<ChaosMix> mixes;  // empty -> DefaultChaosMixes(); episode i
                                // uses mixes[i % mixes.size()]

  // Crash-injected episodes (RunCrashEpisode/RunCrashSoak) write each
  // episode's sealed snapshot + combined journal here when set, so a
  // failing episode is reproducible from its durable artifacts alone.
  // Sealed bytes only — pads never reach the disk in plaintext.
  std::string crash_artifacts_dir;
};

// Deliberately corrupt one invariant input AFTER the episode ran, on copies
// — the protocol itself is untouched. Used by the negative tests that prove
// the harness detects violations.
enum class ChaosSabotage {
  kNone,
  kTamperResult,  // flip one decoded value  -> decode invariant must trip
  kForgeLedger,   // forge a downlink delivery -> ledger invariant must trip
};

// One scripted fault of an episode's schedule (printable for repro): the
// event the episode's FaultSchedule holds for `device`.
struct ChaosScheduledFault : FaultEvent {
  size_t device = 0;  // fleet index
};

// Per-invariant verdicts; all true on a healthy episode.
struct ChaosInvariants {
  bool decode = true;
  bool security = true;
  bool ledger = true;
  bool liveness = true;
  // Invariants 5 and 6 (header), trivially true off the byzantine mixes.
  bool masking = true;
  bool quarantine = true;
  // Crash-recovery invariants (trivially true off crash-injected episodes):
  //   restart_decode   — every query decodes exactly once to A·x across the
  //                      kill/restart, whether the answer came from the live
  //                      run, the journal (result committed pre-crash), or
  //                      the resumed in-flight query;
  //   restart_security — the restarted coordinator's cumulative Def. 2 view
  //                      (this generation's segments PLUS every restored
  //                      prior-generation pad column) stays ITS-secure: no
  //                      pad stream is ever replayed across a restart;
  //   restart_ledger   — the combined write-ahead journal balances against
  //                      the final generation's ledger double-entry style:
  //                      every billed dispatch was journaled first, no
  //                      (query, share) billed twice, one result per query.
  bool restart_decode = true;
  bool restart_security = true;
  bool restart_ledger = true;
  bool AllHold() const {
    return decode && security && ledger && liveness && masking &&
           quarantine && restart_decode && restart_security && restart_ledger;
  }
};

struct ChaosEpisode {
  // Identity + derived scenario.
  size_t index = 0;
  uint64_t seed = 0;  // derived episode seed
  std::string mix;
  size_t m = 0;
  size_t l = 0;
  size_t fleet = 0;
  bool stragglers = false;
  bool lossy = false;
  bool hedging = false;
  bool adaptive = false;
  size_t byzantine_tolerance = 0;  // requested t of the mix
  size_t byzantine_effective = 0;  // guard segments actually provisioned
  std::vector<ChaosScheduledFault> schedule;

  // Crash injection (RunCrashEpisode only; crash.point == kNone on plain
  // episodes). The spec is drawn from the episode seed AFTER the scenario,
  // so a crash episode's scenario is bit-identical to the plain episode of
  // the same (seed, index).
  recovery::CrashSpec crash;
  bool crash_fired = false;   // the injector actually killed a generation
  size_t generations = 1;     // coordinator incarnations that ran
  size_t journal_events = 0;  // parsed records of the combined journal
  size_t journal_bytes = 0;
  size_t snapshot_bytes = 0;  // sealed snapshot size
  std::string snapshot_path;  // set when ChaosConfig::crash_artifacts_dir is
  std::string journal_path;   // configured and the write succeeded

  // Outcome.
  std::string outcome;  // "decoded" | "infeasible" | "internal" | error text
  ChaosInvariants invariants;
  std::string failure;  // first violated invariant + detail; empty if ok
  net::NetCoordinatorStats stats;      // the final incarnation's driver
  net::NetTransportStats transport;    // and its transport
  net::ChaosProxyStats proxies;        // summed over the proxies (sockets)
  ChaosTransport transport_kind = ChaosTransport::kSim;
  double wall_s = 0.0;

  bool ok() const { return invariants.AllHold(); }
};

struct ChaosSoakSummary : SoakSummary<ChaosEpisode> {
  size_t decoded = 0;
  size_t infeasible = 0;
  size_t internal = 0;
};

// Runs episode `index` of the soak described by `config`, deterministically.
ChaosEpisode RunChaosEpisode(const ChaosConfig& config, size_t index,
                             ChaosSabotage sabotage = ChaosSabotage::kNone);

// Runs the full soak (sim/soak.h): failing episodes are collected (seed +
// schedule) for repro.
ChaosSoakSummary RunChaosSoak(const ChaosConfig& config);

// Crash-injected episode (simulator only): the SAME derived scenario as
// RunChaosEpisode(config, index), but run through a DurableCoordinator with a crash point
// drawn from the episode seed. When the injector fires, the coordinator is
// destroyed mid-flight and restarted from its sealed snapshot + surviving
// journal bytes; the episode then checks the three restart invariants on
// top of the usual six. A drawn point that is never reached (e.g. kOnEvict
// on a fault-free episode) leaves the episode uncrashed — still checked.
ChaosEpisode RunCrashEpisode(const ChaosConfig& config, size_t index,
                             ChaosSabotage sabotage = ChaosSabotage::kNone);

// Full kill/restart soak over crash-injected episodes.
ChaosSoakSummary RunCrashSoak(const ChaosConfig& config);

// The exactly-once cost audit behind ChaosInvariants::restart_ledger,
// exposed so negative tests can prove a doctored journal (duplicate result
// record, re-billed share, forged dispatch bytes) is caught. `events` is
// the parsed combined journal; episode supplies the final generation's
// ledger. Returns the first violation, or "" when the ledger balances.
std::string CheckCrashLedger(const ChaosEpisode& episode,
                             const std::vector<recovery::JournalEvent>& events);

// Human-readable schedule of one episode (one line per scripted fault plus
// the scenario header).
std::string DescribeSchedule(const ChaosEpisode& episode);

// One-command repro for a failing episode.
std::string ReproCommand(const ChaosConfig& config,
                         const ChaosEpisode& episode);

}  // namespace scec::sim
