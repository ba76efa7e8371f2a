// SPDX-License-Identifier: MIT
//
// Chaos-soak harness (sim/chaos.h): simulated episodes are replayable
// bit-for-bit from (seed, index), small soaks pass every invariant on both
// transports, and the sabotage hooks prove the harness actually catches
// violations — on the simulator and on a live loopback cluster.

#include "sim/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "recovery/journal.h"

namespace scec::sim {
namespace {

ChaosConfig SmallConfig() {
  ChaosConfig config;
  config.seed = 7;
  config.episodes = 26;  // two passes over the 13 default mixes
  config.queries_per_episode = 1;
  return config;
}

// First episode of `config` that fully decoded (sabotage tests need a
// healthy baseline to corrupt).
size_t FirstDecodedEpisode(const ChaosConfig& config) {
  for (size_t i = 0; i < config.episodes; ++i) {
    if (RunChaosEpisode(config, i).outcome == "decoded") return i;
  }
  ADD_FAILURE() << "no decoded episode in the small soak";
  return 0;
}

TEST(ChaosSoak, SmallSoakHoldsAllInvariants) {
  const ChaosConfig config = SmallConfig();
  const ChaosSoakSummary summary = RunChaosSoak(config);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.episodes, config.episodes);
  EXPECT_EQ(summary.passed, config.episodes);
  EXPECT_TRUE(summary.failing.empty());
  // Liveness: every episode ended in an explicit outcome.
  EXPECT_EQ(summary.decoded + summary.infeasible + summary.internal,
            summary.episodes);
  EXPECT_GT(summary.decoded, 0u);
  for (const ChaosEpisode& episode : summary.detail) {
    EXPECT_TRUE(episode.invariants.AllHold())
        << DescribeSchedule(episode) << episode.failure;
    EXPECT_TRUE(episode.failure.empty()) << episode.failure;
  }
}

TEST(ChaosSoak, EpisodesReplayBitForBit) {
  // The repro contract: (master seed, index) fully determines an episode —
  // schedule, outcome, and every metric. Serialise both runs and compare
  // the JSON byte-for-byte.
  const ChaosConfig config = SmallConfig();
  for (const size_t index : {0u, 3u, 7u, 11u}) {
    const ChaosEpisode first = RunChaosEpisode(config, index);
    const ChaosEpisode second = RunChaosEpisode(config, index);
    EXPECT_EQ(first.seed, second.seed);
    EXPECT_EQ(first.mix, second.mix);
    EXPECT_EQ(first.outcome, second.outcome);
    EXPECT_EQ(DescribeSchedule(first), DescribeSchedule(second));
    EXPECT_EQ(net::ToJson(first.stats), net::ToJson(second.stats))
        << "episode " << index;
    EXPECT_EQ(first.transport.responses_delivered,
              second.transport.responses_delivered)
        << "episode " << index;
  }
}

TEST(ChaosSoak, DistinctSeedsProduceDistinctSchedules) {
  ChaosConfig config = SmallConfig();
  const ChaosEpisode a = RunChaosEpisode(config, 0);
  config.seed = 8;
  const ChaosEpisode b = RunChaosEpisode(config, 0);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(DescribeSchedule(a), DescribeSchedule(b))
      << "seed must reshape the scenario, not just relabel it";
}

TEST(ChaosSoak, TamperSabotageTripsTheDecodeInvariant) {
  // A harness that cannot fail is not a check: flipping one decoded value
  // must trip invariant 1 on an otherwise-healthy episode.
  const ChaosConfig config = SmallConfig();
  const size_t index = FirstDecodedEpisode(config);
  const ChaosEpisode episode =
      RunChaosEpisode(config, index, ChaosSabotage::kTamperResult);
  EXPECT_FALSE(episode.ok());
  EXPECT_FALSE(episode.invariants.decode);
  EXPECT_NE(episode.failure.find("decode"), std::string::npos)
      << episode.failure;
}

TEST(ChaosSoak, ForgedLedgerTripsTheLedgerInvariant) {
  const ChaosConfig config = SmallConfig();
  const size_t index = FirstDecodedEpisode(config);
  const ChaosEpisode episode =
      RunChaosEpisode(config, index, ChaosSabotage::kForgeLedger);
  EXPECT_FALSE(episode.ok());
  EXPECT_FALSE(episode.invariants.ledger);
  EXPECT_TRUE(episode.invariants.decode)
      << "sabotage is surgical: only the ledger is forged";
  EXPECT_NE(episode.failure.find("ledger"), std::string::npos)
      << episode.failure;
}

TEST(ChaosSoak, ReproCommandNamesSeedAndIndex) {
  const ChaosConfig config = SmallConfig();
  const ChaosEpisode episode = RunChaosEpisode(config, 5);
  const std::string repro = ReproCommand(config, episode);
  EXPECT_NE(repro.find("--seed=7"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--replay=5"), std::string::npos) << repro;
  const std::string schedule = DescribeSchedule(episode);
  EXPECT_NE(schedule.find("mix=" + episode.mix), std::string::npos)
      << schedule;
}

TEST(ChaosSoak, DefaultMixRotationCoversHedgingAndAdaptive) {
  // The standard rotation must exercise the PR's new machinery, not just
  // the PR 1 fault kinds.
  bool any_hedging = false;
  bool any_adaptive = false;
  bool any_plain = false;
  for (const ChaosMix& mix : DefaultChaosMixes()) {
    any_hedging |= mix.hedging;
    any_adaptive |= mix.adaptive_timeouts;
    any_plain |= !mix.hedging && !mix.adaptive_timeouts;
  }
  EXPECT_TRUE(any_hedging);
  EXPECT_TRUE(any_adaptive);
  EXPECT_TRUE(any_plain);
}

TEST(ChaosSoak, HedgingMixesLaunchHedgesOnTheSimulator) {
  // Every hedging mix of the CI soak (seed 1) must actually hedge, so the
  // hedge path cannot silently fall out of the soak. Checked per mix over
  // two passes of the rotation: hedged-stragglers hedges in every episode
  // (its slowed fleet straggles past the hedge delay), kitchen-sink in at
  // least one of its two (through outages rather than stragglers).
  ChaosConfig config;
  config.seed = 1;
  config.episodes = 26;  // two passes over the 13 default mixes
  const std::vector<ChaosMix> mixes = DefaultChaosMixes();
  std::map<std::string, uint64_t> launched;
  for (size_t i = 0; i < config.episodes; ++i) {
    const ChaosMix& mix = mixes[i % mixes.size()];
    if (!mix.hedging) continue;
    const ChaosEpisode episode = RunChaosEpisode(config, i);
    EXPECT_TRUE(episode.ok()) << DescribeSchedule(episode) << episode.failure;
    if (mix.name == "hedged-stragglers") {
      EXPECT_GT(episode.stats.hedges_launched, 0u) << DescribeSchedule(episode);
    }
    launched[mix.name] += episode.stats.hedges_launched;
  }
  for (const ChaosMix& mix : mixes) {
    if (!mix.hedging) continue;
    EXPECT_GT(launched[mix.name], 0u) << mix.name;
  }
}

TEST(ChaosSoak, DefaultMixRotationCoversTheByzantineAdversaries) {
  // The adversarial mixes must span the richer Byzantine models: always-on
  // liars under masking, intermittent lying, minimal-magnitude corruption,
  // equivocation, and a coordinated <= t-subset attack.
  bool any_masked = false;
  bool any_intermittent = false;
  bool any_relative = false;
  bool any_equivocate = false;
  bool any_coordinated = false;
  for (const ChaosMix& mix : DefaultChaosMixes()) {
    if (mix.byzantine_tolerance == 0) continue;
    EXPECT_GT(mix.corruption, 0.0)
        << mix.name << ": a byzantine mix must script liars";
    any_masked |= mix.corruption_probability >= 1.0 &&
                  !mix.corruption_relative && !mix.corruption_equivocate &&
                  !mix.coordinated;
    any_intermittent |= mix.corruption_probability < 1.0;
    any_relative |= mix.corruption_relative;
    any_equivocate |= mix.corruption_equivocate;
    any_coordinated |= mix.coordinated;
  }
  EXPECT_TRUE(any_masked);
  EXPECT_TRUE(any_intermittent);
  EXPECT_TRUE(any_relative);
  EXPECT_TRUE(any_equivocate);
  EXPECT_TRUE(any_coordinated);
}

TEST(ChaosSoak, ByzantineEpisodesMaskAndQuarantineScriptedLiars) {
  // Soak only the byzantine mixes and check the harness's invariants 5/6
  // did real work: at least one episode masked a liar in a single round and
  // quarantined it.
  ChaosConfig config;
  config.seed = 11;
  config.episodes = 39;  // three passes over the 13 default mixes
  config.queries_per_episode = 2;
  const ChaosSoakSummary summary = RunChaosSoak(config);
  EXPECT_TRUE(summary.ok());
  bool any_guarded = false;
  bool any_masked = false;
  bool any_quarantined = false;
  for (const ChaosEpisode& episode : summary.detail) {
    EXPECT_TRUE(episode.invariants.masking) << DescribeSchedule(episode);
    EXPECT_TRUE(episode.invariants.quarantine) << DescribeSchedule(episode);
    if (episode.byzantine_tolerance == 0) {
      EXPECT_EQ(episode.byzantine_effective, 0u);
      continue;
    }
    any_guarded |= episode.byzantine_effective > 0;
    any_masked |= episode.stats.byzantine_masked_queries > 0;
    any_quarantined |= episode.stats.devices_quarantined > 0;
  }
  EXPECT_TRUE(any_guarded) << "no byzantine episode ever provisioned guards";
  EXPECT_TRUE(any_masked) << "no liar was ever masked in a single round";
  EXPECT_TRUE(any_quarantined) << "no liar was ever quarantined";
}

TEST(ChaosSoak, EmptySoakIsNotOk) {
  ChaosSoakSummary summary;
  EXPECT_FALSE(summary.ok()) << "zero episodes must not read as a pass";
}

// --- Socket episodes: the same harness over scecd daemons and proxies ---

ChaosConfig SocketConfig() {
  ChaosConfig config;
  config.seed = 7;
  config.queries_per_episode = 3;
  config.transport = ChaosTransport::kSocket;
  return config;
}

// Index of `name` in the rotation, which both transports share.
size_t MixIndex(const std::string& name) {
  const std::vector<ChaosMix> rotation = DefaultChaosMixes();
  for (size_t i = 0; i < rotation.size(); ++i) {
    if (rotation[i].name == name) return i;
  }
  ADD_FAILURE() << name << " is not in the rotation";
  return 0;
}

TEST(ChaosSoak, SocketRotationIsTheDefaultRotation) {
  // Every liar model runs over sockets: the daemons play the simulator's
  // script. Episodes from the first Byzantine mix on take the default
  // rotation's mixes, and the rotation wraps after its last one.
  ChaosConfig config = SocketConfig();
  config.queries_per_episode = 1;
  const std::vector<ChaosMix> rotation = DefaultChaosMixes();
  for (size_t index = MixIndex("byzantine-masked");
       index <= rotation.size(); ++index) {
    const ChaosEpisode episode = RunChaosEpisode(config, index);
    EXPECT_EQ(episode.mix, rotation[index % rotation.size()].name);
    EXPECT_TRUE(episode.ok()) << DescribeSchedule(episode) << episode.failure;
  }
}

TEST(ChaosSoak, BenignEpisodeDecodesWithoutEvictionsOverSockets) {
  ChaosConfig config = SocketConfig();
  config.mixes = {ChaosMix{.name = "benign"}};
  const ChaosEpisode episode = RunChaosEpisode(config, 0);
  EXPECT_TRUE(episode.ok()) << DescribeSchedule(episode) << episode.failure;
  EXPECT_EQ(episode.outcome, "decoded");
  EXPECT_EQ(episode.stats.queries, config.queries_per_episode);
  EXPECT_EQ(episode.stats.evictions, 0u);
  EXPECT_EQ(episode.stats.byzantine_flagged, 0u);
}

TEST(ChaosSoak, FaultedEpisodesHoldAllInvariantsOverSockets) {
  const ChaosConfig config = SocketConfig();
  for (size_t index = 0; index < 2; ++index) {
    const ChaosEpisode episode = RunChaosEpisode(config, index);
    EXPECT_TRUE(episode.ok())
        << DescribeSchedule(episode) << episode.failure
        << "\nrepro: " << ReproCommand(config, episode);
    EXPECT_TRUE(episode.invariants.security);
    EXPECT_TRUE(episode.invariants.ledger);
  }
}

TEST(ChaosSoak, SoakAggregatesAndReportsFirstFailureOverSockets) {
  ChaosConfig config = SocketConfig();
  config.seed = 21;
  config.episodes = 1;
  const ChaosSoakSummary summary = RunChaosSoak(config);
  EXPECT_EQ(summary.episodes, 1u);
  ASSERT_EQ(summary.detail.size(), 1u);
  EXPECT_TRUE(summary.failing.empty())
      << DescribeSchedule(summary.detail[0]) << summary.detail[0].failure;
}

TEST(ChaosSoak, ScheduleAndReproAreDescribableOverSockets) {
  const ChaosConfig config = SocketConfig();
  const ChaosEpisode episode = RunChaosEpisode(config, 1);
  const std::string description = DescribeSchedule(episode);
  EXPECT_NE(description.find("seed"), std::string::npos) << description;
  EXPECT_NE(description.find("socket:"), std::string::npos) << description;
  const std::string repro = ReproCommand(config, episode);
  EXPECT_NE(repro.find("--transport=socket"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--seed=7"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--replay=1"), std::string::npos) << repro;
}

TEST(ChaosSoak, ScriptedFaultsLandOnDistinctDevicesOverSockets) {
  // A full pass of the socket rotation: the scripted devices come from the
  // seeded Fisher–Yates over participants, so no device carries two faults.
  ChaosConfig config = SocketConfig();
  config.queries_per_episode = 1;
  size_t multi_fault = 0;
  for (size_t index = 0; index < DefaultChaosMixes().size(); ++index) {
    const ChaosEpisode episode = RunChaosEpisode(config, index);
    EXPECT_TRUE(episode.ok()) << DescribeSchedule(episode) << episode.failure;
    std::set<size_t> devices;
    for (const ChaosScheduledFault& fault : episode.schedule) {
      devices.insert(fault.device);
    }
    EXPECT_EQ(devices.size(), episode.schedule.size())
        << DescribeSchedule(episode);
    multi_fault += episode.schedule.size() > 1;
  }
  EXPECT_GT(multi_fault, 0u) << "no episode scripted two faults";
}

TEST(ChaosSoak, HedgingMixesLaunchHedgesOverSockets) {
  // The CI socket soak (seed 1, 26 episodes, 3 queries) must hedge in every
  // hedged-stragglers episode, whose straggling links hold frames past the
  // cold-start hedge delay, and in the kitchen-sink mix at least once.
  ChaosConfig config;
  config.seed = 1;
  config.episodes = 26;
  config.queries_per_episode = 3;
  config.transport = ChaosTransport::kSocket;
  const std::vector<ChaosMix> mixes = DefaultChaosMixes();
  std::map<std::string, uint64_t> launched;
  for (size_t i = 0; i < config.episodes; ++i) {
    const ChaosMix& mix = mixes[i % mixes.size()];
    if (!mix.hedging) continue;
    const ChaosEpisode episode = RunChaosEpisode(config, i);
    EXPECT_TRUE(episode.ok()) << DescribeSchedule(episode) << episode.failure;
    if (mix.name == "hedged-stragglers") {
      EXPECT_GT(episode.stats.hedges_launched, 0u) << DescribeSchedule(episode);
    }
    launched[mix.name] += episode.stats.hedges_launched;
  }
  for (const ChaosMix& mix : mixes) {
    if (!mix.hedging) continue;
    EXPECT_GT(launched[mix.name], 0u) << mix.name;
  }
}

TEST(ChaosSoak, ByzantineFamilyMasksAndQuarantinesOverSockets) {
  const ChaosConfig config = SocketConfig();
  const size_t first = MixIndex("byzantine-masked");
  const size_t period = DefaultChaosMixes().size();
  size_t guarded = 0;
  for (const size_t index : {first, first + period}) {
    const ChaosEpisode episode = RunChaosEpisode(config, index);
    EXPECT_TRUE(episode.ok()) << DescribeSchedule(episode) << episode.failure;
    EXPECT_TRUE(std::any_of(episode.schedule.begin(), episode.schedule.end(),
                            [](const ChaosScheduledFault& fault) {
                              return fault.kind == FaultKind::kCorruption;
                            }))
        << DescribeSchedule(episode);
    EXPECT_TRUE(std::none_of(episode.schedule.begin(), episode.schedule.end(),
                             [](const ChaosScheduledFault& fault) {
                               return fault.kind == FaultKind::kCrash;
                             }))
        << DescribeSchedule(episode);
    if (episode.byzantine_effective == 0) continue;
    ++guarded;
    EXPECT_EQ(episode.stats.recovery_rounds, 0u);
    EXPECT_GE(episode.stats.byzantine_masked_queries, 1u);
    EXPECT_GE(episode.stats.devices_quarantined, 1u);
    EXPECT_EQ(episode.outcome, "decoded");
    EXPECT_EQ(episode.stats.queries, config.queries_per_episode);
    const std::string repro = ReproCommand(config, episode);
    EXPECT_NE(repro.find("--replay=" + std::to_string(index)),
              std::string::npos)
        << repro;
    EXPECT_NE(repro.find("--transport=socket"), std::string::npos) << repro;
  }
  EXPECT_GE(guarded, 1u) << "no episode provisioned a guard";
}

TEST(ChaosSoak, TamperSabotageTripsTheDecodeInvariantOverSockets) {
  ChaosConfig config = SocketConfig();
  config.mixes = {ChaosMix{.name = "benign"}};
  const ChaosEpisode episode =
      RunChaosEpisode(config, 0, ChaosSabotage::kTamperResult);
  EXPECT_FALSE(episode.ok());
  EXPECT_FALSE(episode.invariants.decode);
  EXPECT_NE(episode.failure.find("decode"), std::string::npos)
      << episode.failure;
}

TEST(ChaosSoak, ForgedLedgerTripsTheLedgerInvariantOverSockets) {
  ChaosConfig config = SocketConfig();
  config.mixes = {ChaosMix{.name = "benign"}};
  const ChaosEpisode episode =
      RunChaosEpisode(config, 0, ChaosSabotage::kForgeLedger);
  EXPECT_FALSE(episode.ok());
  EXPECT_FALSE(episode.invariants.ledger);
  EXPECT_TRUE(episode.invariants.decode)
      << "sabotage is surgical: only the ledger is forged";
  EXPECT_NE(episode.failure.find("ledger"), std::string::npos)
      << episode.failure;
}

// --- Crash-injected episodes (kill/restart drills) ---

// First crash episode of `config` that decoded AND actually fired its
// injector (ledger tests need a real restart to doctor).
size_t FirstFiredCrashEpisode(const ChaosConfig& config) {
  for (size_t i = 0; i < config.episodes; ++i) {
    const ChaosEpisode episode = RunCrashEpisode(config, i);
    if (episode.ok() && episode.crash_fired && episode.outcome == "decoded") {
      return i;
    }
  }
  ADD_FAILURE() << "no fired crash episode in the small soak";
  return 0;
}

TEST(ChaosCrashSoak, SmallSoakHoldsAllNineInvariants) {
  const ChaosConfig config = SmallConfig();
  const ChaosSoakSummary summary = RunCrashSoak(config);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.passed, config.episodes);
  size_t fired = 0;
  for (const ChaosEpisode& episode : summary.detail) {
    EXPECT_TRUE(episode.invariants.AllHold())
        << DescribeSchedule(episode) << episode.failure;
    fired += episode.crash_fired;
    if (episode.crash_fired) {
      EXPECT_EQ(episode.generations, 2u);
      EXPECT_GT(episode.journal_events, 0u);
      EXPECT_GT(episode.snapshot_bytes, 0u);
    }
  }
  EXPECT_GT(fired, 0u) << "a crash soak where no crash ever fires checks "
                          "nothing about restarts";
}

TEST(ChaosCrashSoak, CrashEpisodesShareThePlainEpisodeScenario) {
  // The repro contract: a crash episode's scenario (problem, fleet, fault
  // schedule) is bit-identical to the plain episode of the same (seed,
  // index) — the crash spec is drawn AFTER the scenario.
  const ChaosConfig config = SmallConfig();
  for (const size_t index : {0u, 4u, 9u}) {
    const ChaosEpisode plain = RunChaosEpisode(config, index);
    const ChaosEpisode crash = RunCrashEpisode(config, index);
    EXPECT_EQ(plain.seed, crash.seed);
    EXPECT_EQ(plain.mix, crash.mix);
    EXPECT_EQ(plain.m, crash.m);
    EXPECT_EQ(plain.l, crash.l);
    EXPECT_EQ(plain.fleet, crash.fleet);
    EXPECT_EQ(plain.schedule.size(), crash.schedule.size());
  }
}

TEST(ChaosCrashSoak, CrashEpisodesReplayBitForBit) {
  const ChaosConfig config = SmallConfig();
  for (const size_t index : {1u, 6u, 13u}) {
    const ChaosEpisode first = RunCrashEpisode(config, index);
    const ChaosEpisode second = RunCrashEpisode(config, index);
    EXPECT_EQ(first.outcome, second.outcome) << "episode " << index;
    EXPECT_EQ(first.crash_fired, second.crash_fired);
    EXPECT_EQ(first.generations, second.generations);
    EXPECT_EQ(first.journal_bytes, second.journal_bytes);
    EXPECT_EQ(first.journal_events, second.journal_events);
    EXPECT_EQ(first.snapshot_bytes, second.snapshot_bytes);
    EXPECT_EQ(DescribeSchedule(first), DescribeSchedule(second));
  }
}

TEST(ChaosCrashSoak, TamperSabotageTripsTheDecodeInvariant) {
  const ChaosConfig config = SmallConfig();
  const size_t index = FirstFiredCrashEpisode(config);
  const ChaosEpisode episode =
      RunCrashEpisode(config, index, ChaosSabotage::kTamperResult);
  EXPECT_FALSE(episode.ok());
  EXPECT_FALSE(episode.invariants.decode);
}

TEST(ChaosCrashSoak, ReproCommandNamesTheCrashReplayFlag) {
  const ChaosConfig config = SmallConfig();
  const ChaosEpisode episode = RunCrashEpisode(config, 2);
  const std::string repro = ReproCommand(config, episode);
  EXPECT_NE(repro.find("--seed=7"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--crash-replay=2"), std::string::npos) << repro;
  const std::string schedule = DescribeSchedule(episode);
  EXPECT_NE(schedule.find("crash "), std::string::npos) << schedule;
}

TEST(ChaosCrashSoak, ArtifactsHoldTheParseableJournal) {
  ChaosConfig config = SmallConfig();
  config.crash_artifacts_dir = ::testing::TempDir();
  const size_t index = FirstFiredCrashEpisode(config);
  const ChaosEpisode episode = RunCrashEpisode(config, index);
  ASSERT_FALSE(episode.journal_path.empty());
  ASSERT_FALSE(episode.snapshot_path.empty());

  std::ifstream journal_file(episode.journal_path, std::ios::binary);
  ASSERT_TRUE(journal_file.good());
  std::stringstream journal_bytes;
  journal_bytes << journal_file.rdbuf();
  EXPECT_EQ(journal_bytes.str().size(), episode.journal_bytes);
  const auto replay = recovery::LoadJournal(journal_bytes.str());
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->events.size(), episode.journal_events);

  // The balanced journal is the positive control for the doctored-journal
  // tests below: CheckCrashLedger must accept what the episode accepted.
  EXPECT_EQ(CheckCrashLedger(episode, replay->events),
            "");

  // Doctor 1: duplicate a committed result record -> exactly-once broken.
  std::vector<recovery::JournalEvent> doctored = replay->events;
  bool duplicated = false;
  for (const recovery::JournalEvent& event : replay->events) {
    if (event.kind == recovery::JournalEventKind::kQueryResult) {
      doctored.push_back(event);
      duplicated = true;
      break;
    }
  }
  ASSERT_TRUE(duplicated);
  EXPECT_NE(CheckCrashLedger(episode, doctored), "");

  // Doctor 2: forge one dispatch's billed bytes -> double-entry mismatch.
  // The audit bills the FINAL generation against the final metrics, so
  // doctor the last dispatch (the restarted incarnation's).
  doctored = replay->events;
  bool forged = false;
  for (auto it = doctored.rbegin(); it != doctored.rend(); ++it) {
    if (it->kind == recovery::JournalEventKind::kDispatch &&
        it->attempt >= 1 && it->generation >= 1) {
      it->bytes += 8;
      forged = true;
      break;
    }
  }
  ASSERT_TRUE(forged);
  EXPECT_NE(CheckCrashLedger(episode, doctored), "");
}

}  // namespace
}  // namespace scec::sim
