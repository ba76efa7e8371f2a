// SPDX-License-Identifier: MIT
//
// Chaos-soak harness: runs hundreds of seeded episodes composing scripted
// faults (crash/omission/corruption/transient) with stragglers, lossy links,
// hedging/adaptive timeouts, and Byzantine adversary mixes, and checks six
// invariants after every episode (decode, cumulative ITS, ledger
// consistency, liveness, single-round masking, liar quarantine). Failing
// episodes are dumped with their seed + schedule for one-command repro via
// --replay. --transport=socket runs the same episodes on a live loopback
// cluster (scecd daemons behind chaos proxies, sim/chaos.h) and prints a
// per-episode table of the socket faults each one injected. A paired A/B
// mode (--ab-trials) measures what hedging buys under
// kExponentialSlowdown stragglers: p50/p99 completion with hedging on vs
// off on the SAME straggler draws, plus hedge rate and extra-cost overhead.
// A second A/B (--byz-trials) runs the same two always-lying devices against
// byzantine_tolerance t in {0, 1, 2} and records rounds-to-completion,
// masked fraction, and the Eq. (1) guard-cost overhead vs t (--byz-out).
// --overload-episodes drives the serving-tier overload soak
// (sim/overload_chaos.h): seeded tenant-flood / flash-crowd / fleet-brownout
// / retry-storm episodes against the coordinator's protection stack, with
// decode, shed-accounting, no-metastability, and liveness invariants and
// one-command repro via --overload-replay (sabotage: tamper-result |
// drop-completion).

#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/csv.h"
#include "common/report.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "linalg/matrix_ops.h"
#include "net/driver.h"
#include "net/sim_transport.h"
#include "recovery/coordinator.h"
#include "sim/chaos.h"
#include "sim/overload_chaos.h"
#include "telemetry.h"
#include "workload/device_profiles.h"

namespace {

using scec::sim::ChaosConfig;
using scec::sim::ChaosEpisode;
using scec::sim::ChaosSabotage;
using scec::sim::ChaosSoakSummary;
using scec::recovery::SimDriver;

bool WriteFile(const std::string& path, const std::string& body) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  out << body;
  return true;
}

std::string EpisodeJson(const ChaosEpisode& episode) {
  return "{\"episode\":" + std::to_string(episode.index) +
         ",\"seed\":" + std::to_string(episode.seed) + ",\"mix\":\"" +
         episode.mix + "\",\"outcome\":\"" + episode.outcome +
         "\",\"ok\":" + (episode.ok() ? "true" : "false") +
         ",\"crash_fired\":" + (episode.crash_fired ? "true" : "false") +
         ",\"generations\":" + std::to_string(episode.generations) +
         ",\"driver\":" + scec::net::ToJson(episode.stats) + "}\n";
}

// Replays one episode (optionally sabotaged) and prints its verdicts —
// through the durable kill/restart coordinator when `crash` is set. In
// sabotage mode success means the harness CAUGHT the deliberate violation.
int Replay(const ChaosConfig& config, size_t index, ChaosSabotage sabotage,
           bool crash) {
  const ChaosEpisode episode =
      crash ? scec::sim::RunCrashEpisode(config, index, sabotage)
            : scec::sim::RunChaosEpisode(config, index, sabotage);
  std::cout << scec::sim::DescribeSchedule(episode);
  std::cout << "  outcome=" << episode.outcome
            << " decode=" << (episode.invariants.decode ? "ok" : "FAIL")
            << " security=" << (episode.invariants.security ? "ok" : "FAIL")
            << " ledger=" << (episode.invariants.ledger ? "ok" : "FAIL")
            << " liveness=" << (episode.invariants.liveness ? "ok" : "FAIL")
            << " masking=" << (episode.invariants.masking ? "ok" : "FAIL")
            << " quarantine="
            << (episode.invariants.quarantine ? "ok" : "FAIL");
  if (crash) {
    std::cout << " restart_decode="
              << (episode.invariants.restart_decode ? "ok" : "FAIL")
              << " restart_security="
              << (episode.invariants.restart_security ? "ok" : "FAIL")
              << " restart_ledger="
              << (episode.invariants.restart_ledger ? "ok" : "FAIL");
  }
  std::cout << "\n";
  if (!episode.failure.empty()) {
    std::cout << "  failure: " << episode.failure << "\n";
  }
  std::cout << "  repro: " << scec::sim::ReproCommand(config, episode)
            << "\n";
  if (sabotage != ChaosSabotage::kNone) {
    const bool caught = !episode.ok();
    return scec::CheckLine(
        caught, std::string("deliberately broken invariant ") +
                    (caught ? "was caught" : "SLIPPED THROUGH"));
  }
  return episode.ok() ? 0 : 1;
}

// Replays one overload episode (optionally sabotaged) and prints its
// verdicts. In sabotage mode success means the harness CAUGHT the violation.
int ReplayOverload(const scec::sim::OverloadConfig& config, size_t index,
                   scec::sim::OverloadSabotage sabotage) {
  const scec::sim::OverloadEpisode episode =
      scec::sim::RunOverloadEpisode(config, index, sabotage);
  std::cout << scec::sim::DescribeOverloadEpisode(episode);
  std::cout << "  decode=" << (episode.invariants.decode ? "ok" : "FAIL")
            << " shed_accounting="
            << (episode.invariants.shed_accounting ? "ok" : "FAIL")
            << " no_metastability="
            << (episode.invariants.no_metastability ? "ok" : "FAIL")
            << " liveness=" << (episode.invariants.liveness ? "ok" : "FAIL")
            << "\n";
  if (!episode.failure.empty()) {
    std::cout << "  failure: " << episode.failure << "\n";
  }
  std::cout << "  repro: "
            << scec::sim::OverloadReproCommand(config, episode) << "\n";
  if (sabotage != scec::sim::OverloadSabotage::kNone) {
    const bool caught = !episode.ok();
    return scec::CheckLine(
        caught, std::string("deliberately broken overload invariant ") +
                    (caught ? "was caught" : "SLIPPED THROUGH"));
  }
  return episode.ok() ? 0 : 1;
}

struct AbResult {
  scec::SampleStat off;       // query completion, hedging disabled
  scec::SampleStat on;        // query completion, hedging + adaptive on
  uint64_t dispatches_off = 0;
  uint64_t dispatches_on = 0;
  uint64_t retries_off = 0;
  uint64_t retries_on = 0;
  uint64_t timeouts_off = 0;
  uint64_t timeouts_on = 0;
  uint64_t hedges = 0;
  uint64_t hedges_won = 0;
  uint64_t staging_extra_bytes = 0;
  bool ok = true;
};

// Paired trials: the same deployment and the SAME straggler seed per trial,
// run once with hedging off and once with hedging + adaptive timeouts on, so
// the two arms see identical slowdown draws. Both arms are measured from
// admission to the final decode on the simulator's clock.
//
// The fleet is compute-bound on purpose (slow cores, fast links): the
// exponential slowdown multiplies compute time, so a straggler's response
// lands straggler-multiplier x later while a hedge to an idle survivor
// costs only a small staging + dispatch detour.
AbResult RunHedgeAb(size_t trials, size_t queries, uint64_t seed) {
  AbResult result;
  scec::Xoshiro256StarStar rng(seed);
  scec::McscecProblem problem;
  problem.m = 48;
  problem.l = 256;
  for (size_t j = 0; j < 14; ++j) {
    scec::EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.costs.storage = 0.01;
    device.costs.mul = 0.002;
    device.costs.add = 0.001;
    device.compute_rate_flops = rng.NextDouble(1e6, 2e6);  // compute-bound
    device.uplink_bps = 2e8;
    device.downlink_bps = 2e8;
    device.link_latency_s = 2e-4;
    problem.fleet.Add(device);
  }
  const auto a = scec::RandomMatrix<double>(problem.m, problem.l, rng);
  const auto x = scec::RandomVector<double>(problem.l, rng);
  const auto expected = scec::MatVec(a, std::span<const double>(x));

  scec::ChaCha20Rng coding_rng(seed ^ 0xABu);
  const auto deployment = scec::Deploy(problem, a, coding_rng);
  SCEC_CHECK(deployment.ok());

  for (size_t trial = 0; trial < trials; ++trial) {
    scec::net::SimTransportOptions options;
    options.straggler.kind = scec::sim::StragglerKind::kExponentialSlowdown;
    options.straggler.rate = 0.8;  // mean slowdown 1 + 1/0.8 = 2.25x
    options.straggler_seed = seed + 1000 + trial;
    for (const bool hedging : {false, true}) {
      scec::net::NetCoordinatorOptions driver_options =
          scec::recovery::SimDriverOptions();
      driver_options.hedging = hedging;
      driver_options.adaptive_timeouts = hedging;
      driver_options.hedge_quantile = 0.5;  // hedge anything past its median
      driver_options.hedge_margin = 1.25;
      SimDriver run(*deployment, a, problem.fleet, options, driver_options);
      for (size_t q = 0; q < queries; ++q) {
        const auto decoded = run.driver.Query(x);
        if (!decoded.ok() ||
            scec::MaxAbsDiff(std::span<const double>(*decoded),
                             std::span<const double>(expected)) >= 1e-9) {
          result.ok = false;
          continue;
        }
        (hedging ? result.on : result.off)
            .Add(run.driver.stats().last_query_s);
      }
      result.ok =
          result.ok && run.driver.VerifyCumulativeSecurity().all_secure;
      const scec::net::NetCoordinatorStats& stats = run.driver.stats();
      if (hedging) {
        result.dispatches_on += stats.dispatches;
        result.retries_on += stats.retries;
        result.timeouts_on += stats.timeouts;
        result.hedges += stats.hedges_launched;
        result.hedges_won += stats.hedge_wins;
        // A hedge pair carries a pad block and a mixed block per row.
        result.staging_extra_bytes += stats.hedged_rows * 2 * problem.l * 8;
      } else {
        result.dispatches_off += stats.dispatches;
        result.retries_off += stats.retries;
        result.timeouts_off += stats.timeouts;
      }
    }
  }
  return result;
}

struct ByzArm {
  size_t tolerance = 0;
  size_t effective = 0;
  size_t queries = 0;
  uint64_t recovery_rounds = 0;
  uint64_t masked_queries = 0;
  uint64_t quarantined = 0;
  double base_cost = 0.0;
  double guard_cost = 0.0;
  bool ok = true;

  double RoundsPerQuery() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(recovery_rounds) /
                              static_cast<double>(queries);
  }
  double MaskedFraction() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(masked_queries) /
                              static_cast<double>(queries);
  }
  // Eq. (1) overhead of the surplus rows relative to the base plan.
  double CostOverhead() const {
    return base_cost <= 0.0 ? 0.0 : guard_cost / base_cost;
  }
};

// Byzantine A/B: the SAME two always-lying devices against tolerance
// t in {0, 1, 2}. t = 0 is the PR 1 evict-and-replan baseline (>= 1
// recovery round on the first query); t >= 1 must absorb the liars in a
// single round (zero recovery re-plans) at the Eq. (1) price of 2·t·m
// surplus guard rows.
std::vector<ByzArm> RunByzantineAb(size_t trials, size_t queries,
                                   uint64_t seed) {
  scec::Xoshiro256StarStar rng(seed);
  scec::McscecProblem problem;
  problem.m = 16;
  problem.l = 8;
  for (size_t j = 0; j < 12; ++j) {
    scec::EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.costs.storage = 0.01;
    device.costs.mul = 0.002;
    device.costs.add = 0.001;
    device.compute_rate_flops = 1e9;
    device.uplink_bps = 1e8;
    device.downlink_bps = 1e8;
    device.link_latency_s = 1e-3;
    problem.fleet.Add(device);
  }
  const auto a = scec::RandomMatrix<double>(problem.m, problem.l, rng);
  const auto x = scec::RandomVector<double>(problem.l, rng);
  const auto expected = scec::MatVec(a, std::span<const double>(x));

  std::vector<ByzArm> arms;
  for (const size_t tolerance : {size_t{0}, size_t{1}, size_t{2}}) {
    ByzArm arm;
    arm.tolerance = tolerance;
    for (size_t trial = 0; trial < trials; ++trial) {
      scec::ChaCha20Rng coding_rng(seed ^ (0xB1u + trial));
      const auto deployment = scec::Deploy(problem, a, coding_rng);
      SCEC_CHECK(deployment.ok());
      scec::sim::FaultSchedule faults;
      faults.AddCorruption(deployment->plan.participating[0], 0.0, 0, 1.5);
      faults.AddCorruption(deployment->plan.participating[2], 0.0, 0, -0.75);
      scec::net::SimTransportOptions options;
      options.faults = &faults;
      scec::net::NetCoordinatorOptions driver_options =
          scec::recovery::SimDriverOptions();
      driver_options.byzantine_tolerance = tolerance;
      driver_options.pad_seed = seed ^ (0x6A09E667u + trial);
      SimDriver run(*deployment, a, problem.fleet, options, driver_options);
      arm.effective = run.driver.byzantine_tolerance_effective();
      for (size_t q = 0; q < queries; ++q) {
        const auto decoded = run.driver.Query(x);
        ++arm.queries;
        if (!decoded.ok() ||
            scec::MaxAbsDiff(std::span<const double>(*decoded),
                             std::span<const double>(expected)) >= 1e-9) {
          arm.ok = false;
        }
      }
      arm.ok = arm.ok && run.driver.VerifyCumulativeSecurity().all_secure;
      const scec::net::NetCoordinatorStats& stats = run.driver.stats();
      arm.recovery_rounds += stats.recovery_rounds;
      arm.masked_queries += stats.byzantine_masked_queries;
      arm.quarantined += stats.devices_quarantined;
      arm.base_cost += stats.base_plan_cost;
      arm.guard_cost += stats.byzantine_guard_cost;
    }
    arms.push_back(arm);
  }
  return arms;
}

struct CrashTrials {
  double plain_qps = 0.0;    // bare driver, no journal
  double durable_qps = 0.0;  // DurableCoordinator, write-ahead journaled
  uint64_t journal_bytes = 0;
  uint64_t journal_events = 0;
  size_t queries_journaled = 0;
  // (queries journaled, wall-clock ms to restart from snapshot + journal)
  std::vector<std::pair<size_t, double>> replay_ms;
  bool ok = true;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// A/B on one fixed healthy scenario: the same deployment and queries with
// and without the write-ahead journal, measuring the journal's wall-clock
// overhead per query; then restart-from-journal wall clock as a function of
// journal length (queries journaled before the kill).
CrashTrials RunCrashTrials(size_t trials, size_t queries, uint64_t seed) {
  CrashTrials result;
  scec::Xoshiro256StarStar rng(seed);
  scec::McscecProblem problem;
  problem.m = 24;
  problem.l = 16;
  problem.fleet = scec::MakeCampusFleet(10, rng);
  const auto a = scec::RandomMatrix<double>(problem.m, problem.l, rng);
  const auto x = scec::RandomVector<double>(problem.l, rng);
  const auto expected = scec::MatVec(a, std::span<const double>(x));

  scec::ChaCha20Rng coding_rng(seed ^ 0xD0u);
  const auto deployment = scec::Deploy(problem, a, coding_rng);
  SCEC_CHECK(deployment.ok());

  const scec::net::SimTransportOptions sim_options;
  const scec::net::NetCoordinatorOptions driver_options =
      scec::recovery::SimDriverOptions();
  auto check = [&](const scec::Result<std::vector<double>>& decoded) {
    result.ok = result.ok && decoded.ok() &&
                scec::MaxAbsDiff(std::span<const double>(*decoded),
                                 std::span<const double>(expected)) < 1e-9;
  };

  // Arm A: the bare driver.
  const auto plain_t0 = std::chrono::steady_clock::now();
  for (size_t trial = 0; trial < trials; ++trial) {
    SimDriver run(*deployment, a, problem.fleet, sim_options, driver_options);
    for (size_t q = 0; q < queries; ++q) check(run.driver.Query(x));
  }
  const double plain_s = SecondsSince(plain_t0);

  // Arm B: the durable coordinator (sealed snapshot + journaled queries).
  scec::recovery::DurableCoordinatorOptions copts;
  copts.sealing_key = seed ^ 0x5EA1EDu;
  copts.seal_salt = seed;
  copts.sim = sim_options;
  copts.driver = driver_options;
  const auto durable_t0 = std::chrono::steady_clock::now();
  for (size_t trial = 0; trial < trials; ++trial) {
    std::string snapshot;
    std::ostringstream journal;
    auto coordinator = scec::recovery::DurableCoordinator::Start(
        *deployment, &a, problem.fleet.devices(), &snapshot, &journal, copts);
    SCEC_CHECK(coordinator.ok());
    for (size_t q = 0; q < queries; ++q) check((*coordinator)->Query(x));
    result.journal_bytes += journal.str().size();
    result.journal_events += (*coordinator)->journal().events_appended();
  }
  const double durable_s = SecondsSince(durable_t0);

  const double total = static_cast<double>(trials * queries);
  result.plain_qps = plain_s > 0.0 ? total / plain_s : 0.0;
  result.durable_qps = durable_s > 0.0 ? total / durable_s : 0.0;
  result.queries_journaled = trials * queries;

  // Restart wall clock vs journal length.
  for (const size_t journaled : {size_t{4}, size_t{16}, size_t{64}}) {
    std::string snapshot;
    std::ostringstream journal;
    auto coordinator = scec::recovery::DurableCoordinator::Start(
        *deployment, &a, problem.fleet.devices(), &snapshot, &journal, copts);
    SCEC_CHECK(coordinator.ok());
    for (size_t q = 0; q < journaled; ++q) check((*coordinator)->Query(x));
    coordinator->reset();  // the kill
    const auto restart_t0 = std::chrono::steady_clock::now();
    std::ostringstream tail;
    auto restarted = scec::recovery::DurableCoordinator::Restart(
        snapshot, journal.str(), &a, problem.fleet.devices(), &tail, copts);
    const double restart_ms = SecondsSince(restart_t0) * 1e3;
    result.ok = result.ok && restarted.ok() &&
                (*restarted)->replay().completed.size() == journaled;
    result.replay_ms.emplace_back(journaled, restart_ms);
  }
  return result;
}

std::string CrashTrialsJson(const CrashTrials& trials) {
  std::string replay = "[";
  for (size_t i = 0; i < trials.replay_ms.size(); ++i) {
    replay += (i == 0 ? "" : ",");
    replay += "{\"queries_journaled\":" +
              std::to_string(trials.replay_ms[i].first) +
              ",\"restart_ms\":" +
              scec::FormatDouble(trials.replay_ms[i].second, 4) + "}";
  }
  replay += "]";
  const double overhead = trials.plain_qps > 0.0 && trials.durable_qps > 0.0
                              ? trials.plain_qps / trials.durable_qps - 1.0
                              : 0.0;
  const double bytes_per_query =
      trials.queries_journaled == 0
          ? 0.0
          : static_cast<double>(trials.journal_bytes) /
                static_cast<double>(trials.queries_journaled);
  return "{\"crash_trials\":{\"plain_qps\":" +
         scec::FormatDouble(trials.plain_qps, 2) +
         ",\"durable_qps\":" + scec::FormatDouble(trials.durable_qps, 2) +
         ",\"journal_overhead_fraction\":" + scec::FormatDouble(overhead, 6) +
         ",\"journal_bytes_per_query\":" +
         scec::FormatDouble(bytes_per_query, 2) +
         ",\"journal_events\":" + std::to_string(trials.journal_events) +
         ",\"restart\":" + replay +
         ",\"ok\":" + (trials.ok ? "true" : "false") + "}}\n";
}

std::string ByzArmJson(const ByzArm& arm) {
  return "{\"tolerance\":" + std::to_string(arm.tolerance) +
         ",\"effective\":" + std::to_string(arm.effective) +
         ",\"queries\":" + std::to_string(arm.queries) +
         ",\"rounds_per_query\":" + scec::FormatDouble(arm.RoundsPerQuery(), 6) +
         ",\"masked_fraction\":" + scec::FormatDouble(arm.MaskedFraction(), 6) +
         ",\"quarantined\":" + std::to_string(arm.quarantined) +
         ",\"guard_cost\":" + scec::FormatDouble(arm.guard_cost, 6) +
         ",\"cost_overhead\":" + scec::FormatDouble(arm.CostOverhead(), 6) +
         ",\"ok\":" + (arm.ok ? "true" : "false") + "}";
}

// One row per socket episode: the scripted faults (as daemon scripts and
// proxy faults) and what the proxies actually did.
void PrintSocketEpisodes(const ChaosSoakSummary& summary) {
  scec::TablePrinter table({"episode", "mix", "outcome", "ok", "faults",
                            "byz_eff", "dropped", "delayed", "reordered",
                            "partition discards", "kills", "wall(s)"});
  for (const ChaosEpisode& episode : summary.detail) {
    std::string faults;
    for (const scec::sim::ChaosScheduledFault& fault : episode.schedule) {
      faults += std::string(faults.empty() ? "" : " ") +
                scec::sim::FaultKindName(fault.kind) + "@d" +
                std::to_string(fault.device);
    }
    if (episode.stragglers) faults += faults.empty() ? "slow" : " slow";
    if (episode.lossy) faults += faults.empty() ? "lossy" : " lossy";
    const scec::net::ChaosProxyStats& p = episode.proxies;
    table.AddRow({std::to_string(episode.index), episode.mix,
                  episode.outcome, episode.ok() ? "yes" : "NO",
                  faults.empty() ? "-" : faults,
                  std::to_string(episode.byzantine_effective),
                  std::to_string(p.frames_dropped),
                  std::to_string(p.frames_delayed),
                  std::to_string(p.frames_reordered),
                  std::to_string(p.partition_discards),
                  std::to_string(p.kills),
                  scec::FormatDouble(episode.wall_s, 2)});
  }
  table.Print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  int64_t episodes = 200;
  int64_t seed = 1;
  int64_t queries = 2;
  int64_t replay = -1;
  std::string transport_name = "sim";
  int64_t crash_episodes = 0;
  int64_t crash_replay = -1;
  int64_t crash_trials = 0;
  std::string crash_artifacts_dir;
  std::string crash_out;
  int64_t ab_trials = 0;
  int64_t ab_queries = 4;
  int64_t byz_trials = 0;
  int64_t byz_queries = 2;
  std::string byz_out;
  int64_t overload_episodes = 0;
  int64_t overload_replay = -1;
  std::string sabotage_name;
  std::string fail_out;
  std::string metrics_csv;
  std::string metrics_json;
  scec::bench::TelemetryFlags telemetry;
  scec::CliParser cli("chaos_soak",
                      "seeded chaos soak over the fault-tolerant SCEC "
                      "runtime (composed faults x stragglers x lossy links "
                      "x hedging x byzantine devices x kill/restart crash "
                      "recovery), with invariant checks per episode; "
                      "--crash-* flags drive the durable-coordinator soak, "
                      "--byz-* the byzantine A/B arms, and "
                      "--overload-* the serving-tier overload soak");
  cli.AddInt("episodes", &episodes, "episodes to run");
  cli.AddInt("seed", &seed, "master seed (episode i derives from (seed, i))");
  cli.AddInt("queries", &queries, "queries per episode");
  cli.AddInt("replay", &replay,
             "replay just this episode index and print its schedule");
  cli.AddString("transport", &transport_name,
                "sim | socket: the fleet of --episodes and --replay (socket "
                "= scecd daemons behind chaos proxies on loopback)");
  cli.AddString("sabotage", &sabotage_name,
                "with --replay: deliberately break an invariant "
                "(tamper-result | forge-ledger) and expect it caught");
  cli.AddString("fail-out", &fail_out,
                "write failing episodes (seed + schedule + repro) here");
  cli.AddInt("crash-episodes", &crash_episodes,
             "kill/restart soak: episodes run through the durable "
             "coordinator with a seeded crash point each (0 = skip)");
  cli.AddInt("crash-replay", &crash_replay,
             "replay just this crash-injected episode and print its "
             "schedule, crash point, and journal/snapshot artifacts");
  cli.AddString("crash-artifacts-dir", &crash_artifacts_dir,
                "write each crash episode's sealed snapshot + combined "
                "journal into this directory (sealed bytes only)");
  cli.AddInt("crash-trials", &crash_trials,
             "journal-overhead A/B trials (journaling on vs off on the same "
             "scenario) plus restart wall-clock vs journal length (0 = skip)");
  cli.AddString("crash-out", &crash_out,
                "write the crash-trials summary JSON here");
  cli.AddInt("ab-trials", &ab_trials,
             "paired hedging-on/off trials under exponential stragglers "
             "(0 = skip)");
  cli.AddInt("ab-queries", &ab_queries, "queries per A/B trial");
  cli.AddInt("byz-trials", &byz_trials,
             "byzantine A/B trials: tolerance t in {0,1,2} against the same "
             "two always-lying devices (0 = skip)");
  cli.AddInt("byz-queries", &byz_queries, "queries per byzantine A/B trial");
  cli.AddString("byz-out", &byz_out,
                "write the byzantine A/B summary JSON here");
  cli.AddInt("overload-episodes", &overload_episodes,
             "serving-tier overload soak: episodes rotating through tenant "
             "flood / flash crowd / fleet brownout / retry storm mixes with "
             "decode, shed-accounting, no-metastability, and liveness "
             "invariants (0 = skip)");
  cli.AddInt("overload-replay", &overload_replay,
             "replay just this overload episode and print its scenario, "
             "phase goodputs, and invariant verdicts");
  cli.AddString("run-metrics-csv", &metrics_csv,
                "write per-episode run+recovery metrics CSV here");
  cli.AddString("run-metrics-json", &metrics_json,
                "write per-episode run+recovery metrics JSON lines here");
  scec::bench::AddTelemetryFlags(&cli, &telemetry);
  if (!cli.Parse(argc, argv)) return 1;

  // Flag combinations that would otherwise be silently ignored are hard
  // errors: a soak invocation that *looks* like it sabotaged an episode or
  // recorded an A/B summary but actually did neither is worse than a typo.
  if (!sabotage_name.empty() && replay < 0 && crash_replay < 0 &&
      overload_replay < 0) {
    std::cerr << "--sabotage requires --replay, --crash-replay, or "
                 "--overload-replay\n";
    return 1;
  }
  if (!crash_out.empty() && crash_trials <= 0) {
    std::cerr << "--crash-out requires --crash-trials > 0\n";
    return 1;
  }
  if (!byz_out.empty() && byz_trials <= 0) {
    std::cerr << "--byz-out requires --byz-trials > 0\n";
    return 1;
  }
  if (!crash_artifacts_dir.empty() && crash_episodes <= 0 &&
      crash_replay < 0) {
    std::cerr << "--crash-artifacts-dir requires --crash-episodes > 0 or "
                 "--crash-replay\n";
    return 1;
  }
  ChaosConfig config;
  if (transport_name == "socket") {
    config.transport = scec::sim::ChaosTransport::kSocket;
  } else if (transport_name != "sim") {
    std::cerr << "unknown --transport: " << transport_name
              << " (sim | socket)\n";
    return 1;
  }
  if (config.transport == scec::sim::ChaosTransport::kSocket &&
      (crash_episodes > 0 || crash_replay >= 0)) {
    std::cerr << "crash episodes run on the simulator only\n";
    return 1;
  }
  scec::bench::StartTelemetry(telemetry);

  config.seed = static_cast<uint64_t>(seed);
  config.episodes = static_cast<size_t>(episodes);
  config.queries_per_episode = static_cast<size_t>(queries);
  config.crash_artifacts_dir = crash_artifacts_dir;

  if (overload_replay >= 0) {
    scec::sim::OverloadConfig overload_config;
    overload_config.seed = static_cast<uint64_t>(seed);
    scec::sim::OverloadSabotage overload_sabotage =
        scec::sim::OverloadSabotage::kNone;
    if (sabotage_name == "tamper-result") {
      overload_sabotage = scec::sim::OverloadSabotage::kTamperResult;
    } else if (sabotage_name == "drop-completion") {
      overload_sabotage = scec::sim::OverloadSabotage::kDropCompletion;
    } else if (!sabotage_name.empty()) {
      std::cerr << "unknown overload --sabotage: " << sabotage_name
                << " (tamper-result | drop-completion)\n";
      return 1;
    }
    return ReplayOverload(overload_config,
                          static_cast<size_t>(overload_replay),
                          overload_sabotage);
  }

  if (replay >= 0 || crash_replay >= 0) {
    ChaosSabotage sabotage = ChaosSabotage::kNone;
    if (sabotage_name == "tamper-result") {
      sabotage = ChaosSabotage::kTamperResult;
    } else if (sabotage_name == "forge-ledger") {
      sabotage = ChaosSabotage::kForgeLedger;
    } else if (!sabotage_name.empty()) {
      std::cerr << "unknown --sabotage: " << sabotage_name << "\n";
      return 1;
    }
    if (crash_replay >= 0) {
      return Replay(config, static_cast<size_t>(crash_replay), sabotage,
                    /*crash=*/true);
    }
    return Replay(config, static_cast<size_t>(replay), sabotage,
                  /*crash=*/false);
  }

  const ChaosSoakSummary summary = scec::sim::RunChaosSoak(config);

  // Per-mix aggregation.
  struct MixStats {
    size_t episodes = 0;
    size_t passed = 0;
    size_t decoded = 0;
    uint64_t evictions = 0;
    uint64_t recovery_rounds = 0;
    uint64_t hedges = 0;
    uint64_t hedges_won = 0;
  };
  std::map<std::string, MixStats> mixes;
  std::string csv_lines = "episode,mix,outcome,ok," +
                          scec::net::NetCoordinatorStatsCsvHeader() + "\n";
  std::string json_lines;
  for (const ChaosEpisode& episode : summary.detail) {
    MixStats& mix = mixes[episode.mix];
    ++mix.episodes;
    if (episode.ok()) ++mix.passed;
    if (episode.outcome == "decoded") ++mix.decoded;
    mix.evictions += episode.stats.evictions;
    mix.recovery_rounds += episode.stats.recovery_rounds;
    mix.hedges += episode.stats.hedges_launched;
    mix.hedges_won += episode.stats.hedge_wins;
    csv_lines += std::to_string(episode.index) + "," + episode.mix + "," +
                 episode.outcome + "," + (episode.ok() ? "1" : "0") + "," +
                 scec::net::ToCsvRow(episode.stats) + "\n";
    json_lines += EpisodeJson(episode);
  }

  scec::TablePrinter table({"mix", "episodes", "passed", "decoded",
                            "evictions", "rec rounds", "hedges", "hedge wins"});
  for (const auto& [name, mix] : mixes) {
    table.AddRow({name, std::to_string(mix.episodes),
                  std::to_string(mix.passed), std::to_string(mix.decoded),
                  std::to_string(mix.evictions),
                  std::to_string(mix.recovery_rounds),
                  std::to_string(mix.hedges), std::to_string(mix.hedges_won)});
  }
  table.Print(std::cout);
  if (config.transport == scec::sim::ChaosTransport::kSocket) {
    PrintSocketEpisodes(summary);
  }
  std::cout << "  episodes=" << summary.episodes
            << " passed=" << summary.passed << " decoded=" << summary.decoded
            << " infeasible=" << summary.infeasible
            << " internal=" << summary.internal
            << " failing=" << summary.failing.size() << "\n";

  std::string fail_report;
  for (size_t index : summary.failing) {
    const ChaosEpisode& episode = summary.detail[index];
    fail_report += scec::sim::DescribeSchedule(episode);
    fail_report += "  failure: " + episode.failure + "\n";
    fail_report += "  repro: " + scec::sim::ReproCommand(config, episode) +
                   "\n\n";
  }
  if (!summary.failing.empty()) {
    std::cerr << fail_report;
  }

  bool ok = config.episodes == 0 || summary.ok();  // 0 = A/B-only run

  if (crash_episodes > 0) {
    ChaosConfig crash_config = config;
    crash_config.episodes = static_cast<size_t>(crash_episodes);
    const ChaosSoakSummary crash_summary =
        scec::sim::RunCrashSoak(crash_config);
    struct PointStats {
      size_t episodes = 0;
      size_t fired = 0;
      size_t passed = 0;
    };
    std::map<std::string, PointStats> points;
    size_t fired = 0;
    size_t resumed = 0;
    uint64_t journal_bytes = 0;
    for (const ChaosEpisode& episode : crash_summary.detail) {
      PointStats& point =
          points[scec::recovery::CrashPointName(episode.crash.point)];
      ++point.episodes;
      if (episode.crash_fired) {
        ++point.fired;
        ++fired;
      }
      if (episode.ok()) ++point.passed;
      resumed += episode.stats.resumed_responses;
      journal_bytes += episode.journal_bytes;
      json_lines += EpisodeJson(episode);
    }
    scec::TablePrinter crash_table(
        {"crash point", "episodes", "fired", "passed"});
    for (const auto& [name, point] : points) {
      crash_table.AddRow({name, std::to_string(point.episodes),
                          std::to_string(point.fired),
                          std::to_string(point.passed)});
    }
    crash_table.Print(std::cout);
    std::cout << "  crash soak: episodes=" << crash_summary.episodes
              << " passed=" << crash_summary.passed << " fired=" << fired
              << " resumed_responses=" << resumed << " avg_journal_bytes="
              << journal_bytes / std::max<size_t>(crash_summary.episodes, 1)
              << "\n";
    for (size_t index : crash_summary.failing) {
      const ChaosEpisode& episode = crash_summary.detail[index];
      fail_report += scec::sim::DescribeSchedule(episode);
      fail_report += "  failure: " + episode.failure + "\n";
      fail_report +=
          "  repro: " + scec::sim::ReproCommand(crash_config, episode) +
          "\n\n";
    }
    if (!crash_summary.failing.empty()) {
      std::cerr << fail_report;
    }
    ok = ok && crash_summary.ok();
    scec::CheckLine(crash_summary.ok(),
                    "every kill/restart episode holds the nine invariants "
                    "(exact decode, fresh pads, balanced journal ledger)");
  }

  if (overload_episodes > 0) {
    scec::sim::OverloadConfig overload_config;
    overload_config.seed = static_cast<uint64_t>(seed);
    overload_config.episodes = static_cast<size_t>(overload_episodes);
    const scec::sim::OverloadSoakSummary overload_summary =
        scec::sim::RunOverloadSoak(overload_config);
    struct OverloadMixStats {
      size_t episodes = 0;
      size_t passed = 0;
      uint64_t rejected = 0;
      uint64_t shed = 0;
      uint64_t transitions = 0;
      uint64_t breaker_opens = 0;
    };
    std::map<std::string, OverloadMixStats> overload_mixes;
    for (const scec::sim::OverloadEpisode& episode : overload_summary.detail) {
      OverloadMixStats& mix = overload_mixes[episode.mix];
      ++mix.episodes;
      if (episode.ok()) ++mix.passed;
      mix.rejected += episode.rejected;
      mix.shed += episode.shed;
      mix.transitions += episode.ladder_transitions;
      mix.breaker_opens += episode.breaker_opens;
    }
    scec::TablePrinter overload_table({"overload mix", "episodes", "passed",
                                       "rejected", "shed", "ladder moves",
                                       "breaker opens"});
    for (const auto& [name, mix] : overload_mixes) {
      overload_table.AddRow(
          {name, std::to_string(mix.episodes), std::to_string(mix.passed),
           std::to_string(mix.rejected), std::to_string(mix.shed),
           std::to_string(mix.transitions),
           std::to_string(mix.breaker_opens)});
    }
    overload_table.Print(std::cout);
    std::cout << "  overload soak: episodes=" << overload_summary.episodes
              << " passed=" << overload_summary.passed
              << " failing=" << overload_summary.failing.size() << "\n";
    for (size_t index : overload_summary.failing) {
      const scec::sim::OverloadEpisode& episode =
          overload_summary.detail[index];
      fail_report += scec::sim::DescribeOverloadEpisode(episode);
      fail_report += "  failure: " + episode.failure + "\n";
      fail_report += "  repro: " +
                     scec::sim::OverloadReproCommand(overload_config, episode) +
                     "\n\n";
    }
    if (!overload_summary.failing.empty()) {
      std::cerr << fail_report;
    }
    ok = ok && overload_summary.ok();
    scec::CheckLine(overload_summary.ok(),
                    "every overload episode holds the serving invariants "
                    "(exact decode, total shed accounting, goodput recovery, "
                    "drained queue)");
  }

  ok = WriteFile(fail_out, fail_report) && ok;
  ok = WriteFile(metrics_csv, csv_lines) && ok;
  ok = WriteFile(metrics_json, json_lines) && ok;

  if (crash_trials > 0) {
    const CrashTrials trials =
        RunCrashTrials(static_cast<size_t>(crash_trials),
                       static_cast<size_t>(queries > 0 ? queries * 4 : 8),
                       static_cast<uint64_t>(seed) ^ 0xC4A54ull);
    scec::TablePrinter trial_table(
        {"arm", "queries/s", "journal bytes/query"});
    const double bytes_per_query =
        trials.queries_journaled == 0
            ? 0.0
            : static_cast<double>(trials.journal_bytes) /
                  static_cast<double>(trials.queries_journaled);
    trial_table.AddRow(
        {"plain", scec::FormatDouble(trials.plain_qps, 1), "0"});
    trial_table.AddRow({"durable", scec::FormatDouble(trials.durable_qps, 1),
                        scec::FormatDouble(bytes_per_query, 1)});
    trial_table.Print(std::cout);
    for (const auto& [journaled, ms] : trials.replay_ms) {
      std::cout << "  restart after " << journaled
                << " journaled queries: " << scec::FormatDouble(ms, 3)
                << " ms\n";
    }
    const std::string trials_json = CrashTrialsJson(trials);
    std::cout << "  " << trials_json;
    ok = WriteFile(crash_out, trials_json) && ok;
    ok = ok && trials.ok;
    scec::CheckLine(trials.ok,
                    "journaled queries decode exactly and every restart "
                    "recovers the full committed history");
  }

  if (ab_trials > 0) {
    const AbResult ab =
        RunHedgeAb(static_cast<size_t>(ab_trials),
                   static_cast<size_t>(ab_queries),
                   static_cast<uint64_t>(seed) ^ 0xAB00u);
    const double p99_off = ab.off.Percentile(99.0);
    const double p99_on = ab.on.Percentile(99.0);
    const double hedge_rate =
        ab.dispatches_on == 0
            ? 0.0
            : static_cast<double>(ab.hedges) /
                  static_cast<double>(ab.dispatches_on);
    const double extra_dispatch =
        ab.dispatches_off == 0
            ? 0.0
            : static_cast<double>(ab.dispatches_on) /
                      static_cast<double>(ab.dispatches_off) -
                  1.0;
    scec::TablePrinter ab_table({"hedging", "p50(ms)", "p99(ms)", "max(ms)",
                                 "dispatches", "retries", "timeouts"});
    ab_table.AddRow({"off", scec::FormatDouble(ab.off.Median() * 1e3, 3),
                     scec::FormatDouble(p99_off * 1e3, 3),
                     scec::FormatDouble(ab.off.max() * 1e3, 3),
                     std::to_string(ab.dispatches_off),
                     std::to_string(ab.retries_off),
                     std::to_string(ab.timeouts_off)});
    ab_table.AddRow({"on", scec::FormatDouble(ab.on.Median() * 1e3, 3),
                     scec::FormatDouble(p99_on * 1e3, 3),
                     scec::FormatDouble(ab.on.max() * 1e3, 3),
                     std::to_string(ab.dispatches_on),
                     std::to_string(ab.retries_on),
                     std::to_string(ab.timeouts_on)});
    ab_table.Print(std::cout);
    std::cout << "  hedges=" << ab.hedges << " won=" << ab.hedges_won
              << " hedge_rate=" << scec::FormatDouble(hedge_rate, 4)
              << " extra_dispatch_overhead="
              << scec::FormatDouble(extra_dispatch, 4)
              << " hedge_staging_bytes=" << ab.staging_extra_bytes << "\n";
    std::cout << "  {\"p50_off_ms\":"
              << scec::FormatDouble(ab.off.Median() * 1e3, 6)
              << ",\"p99_off_ms\":" << scec::FormatDouble(p99_off * 1e3, 6)
              << ",\"p50_on_ms\":"
              << scec::FormatDouble(ab.on.Median() * 1e3, 6)
              << ",\"p99_on_ms\":" << scec::FormatDouble(p99_on * 1e3, 6)
              << ",\"hedge_rate\":" << scec::FormatDouble(hedge_rate, 6)
              << ",\"extra_dispatch_overhead\":"
              << scec::FormatDouble(extra_dispatch, 6)
              << ",\"hedge_staging_bytes\":" << ab.staging_extra_bytes << "}\n";
    ok = ok && ab.ok && p99_on < p99_off;
    scec::CheckLine(ab.ok && p99_on < p99_off,
                    "hedging lowers p99 completion under exponential "
                    "stragglers at bounded extra cost");
  }

  if (byz_trials > 0) {
    const std::vector<ByzArm> arms =
        RunByzantineAb(static_cast<size_t>(byz_trials),
                       static_cast<size_t>(byz_queries),
                       static_cast<uint64_t>(seed) ^ 0xB12Au);
    scec::TablePrinter byz_table({"t", "t_eff", "queries", "rounds/query",
                                  "masked", "quarantined", "guard cost",
                                  "cost overhead"});
    std::string byz_json = "{\"byzantine_ab\":[";
    bool byz_ok = true;
    for (size_t i = 0; i < arms.size(); ++i) {
      const ByzArm& arm = arms[i];
      byz_table.AddRow({std::to_string(arm.tolerance),
                        std::to_string(arm.effective),
                        std::to_string(arm.queries),
                        scec::FormatDouble(arm.RoundsPerQuery(), 4),
                        scec::FormatDouble(arm.MaskedFraction(), 4),
                        std::to_string(arm.quarantined),
                        scec::FormatDouble(arm.guard_cost, 3),
                        scec::FormatDouble(arm.CostOverhead(), 4)});
      byz_json += (i == 0 ? "" : ",") + ByzArmJson(arm);
      byz_ok = byz_ok && arm.ok;
      // The headline claims: t >= 1 masks both liars in a single round
      // (zero recovery re-plans), t = 0 pays at least one re-plan; the
      // surplus cost grows with t and is billed, not hidden.
      if (arm.tolerance == 0) {
        byz_ok = byz_ok && arm.recovery_rounds > 0 && arm.guard_cost == 0.0;
      } else {
        byz_ok = byz_ok && arm.recovery_rounds == 0 &&
                 arm.masked_queries > 0 && arm.guard_cost > 0.0 &&
                 arm.guard_cost > arms[i - 1].guard_cost;
      }
    }
    byz_json += "]}\n";
    byz_table.Print(std::cout);
    std::cout << "  " << byz_json;
    ok = WriteFile(byz_out, byz_json) && ok;
    ok = ok && byz_ok;
    scec::CheckLine(byz_ok,
                    "tolerance t masks <= t liars in a single round and "
                    "bills the Eq. (1) surplus honestly");
  }

  ok = scec::bench::ExportTelemetry(telemetry) && ok;
  return scec::CheckLine(
             ok, "all episodes hold the chaos invariants (decode, ITS, "
                 "ledger, liveness, masking, quarantine, restart "
                 "decode/security/ledger)") == 0
             ? 0
             : 1;
}
