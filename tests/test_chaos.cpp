// SPDX-License-Identifier: MIT
//
// Deterministic chaos-soak harness (sim/chaos.h): episodes are replayable
// bit-for-bit from (seed, index), a small soak passes all four invariants,
// and the sabotage hooks prove the harness actually catches violations.

#include "sim/chaos.h"

#include <gtest/gtest.h>

#include <fstream>
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
