// SPDX-License-Identifier: MIT
//
// Socket-level chaos harness tests: the four chaos invariants (exact decode,
// cumulative ITS security, ledger reconciliation, liveness) must hold over a
// REAL loopback cluster under seeded fault schedules — the networked replay
// of the deterministic sim/chaos.h discipline.

#include "net/net_chaos.h"

#include <gtest/gtest.h>

namespace scec::net {
namespace {

NetChaosConfig SmallConfig() {
  NetChaosConfig config;
  config.seed = 7;
  config.num_devices = 5;
  config.m = 12;
  config.l = 8;
  config.queries = 3;
  config.max_drop_prob = 0.10;
  return config;
}

TEST(NetChaos, BenignEpisodeDecodesWithoutEvictions) {
  NetChaosConfig config = SmallConfig();
  config.max_drop_prob = 0.0;
  config.enable_partition = false;
  config.enable_kill = false;
  config.enable_byzantine = false;
  config.enable_silent = false;

  NetChaosEpisode episode = RunNetChaosEpisode(config, 0);
  EXPECT_TRUE(episode.ok()) << DescribeNetSchedule(episode) << "\n"
                            << episode.failure;
  EXPECT_EQ(episode.queries_answered, config.queries);
  EXPECT_EQ(episode.driver_stats.evictions, 0u);
  EXPECT_EQ(episode.driver_stats.byzantine_flagged, 0u);
}

TEST(NetChaos, FaultedEpisodesHoldAllInvariants) {
  NetChaosConfig config = SmallConfig();
  for (size_t index = 0; index < 2; ++index) {
    NetChaosEpisode episode = RunNetChaosEpisode(config, index);
    EXPECT_TRUE(episode.ok())
        << "episode " << index << ": " << DescribeNetSchedule(episode)
        << "\n" << episode.failure
        << "\nrepro: " << NetReproCommand(config, index);
    EXPECT_TRUE(episode.invariants.security_its);
    EXPECT_TRUE(episode.invariants.ledger_balanced);
  }
}

TEST(NetChaos, SoakAggregatesAndReportsFirstFailure) {
  NetChaosConfig config = SmallConfig();
  config.seed = 21;
  NetChaosSummary summary = RunNetChaosSoak(config, 1);
  EXPECT_EQ(summary.episodes, 1u);
  EXPECT_EQ(summary.failures, 0u) << summary.first_failure;
}

TEST(NetChaos, ScheduleAndReproAreDescribable) {
  NetChaosConfig config = SmallConfig();
  NetChaosEpisode episode = RunNetChaosEpisode(config, 1);
  const std::string description = DescribeNetSchedule(episode);
  EXPECT_NE(description.find("seed"), std::string::npos) << description;
  const std::string repro = NetReproCommand(config, 1);
  EXPECT_NE(repro.find("--mode=chaos"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--seed=7"), std::string::npos) << repro;
}

TEST(NetChaos, ByzantineFamilyMasksAndQuarantinesOverSockets) {
  NetChaosConfig config = SmallConfig();
  config.num_devices = 8;
  config.byzantine_tolerance = 1;
  size_t guarded = 0;
  for (size_t index = 0; index < 2; ++index) {
    const NetChaosEpisode episode = RunNetChaosEpisode(config, index);
    EXPECT_TRUE(episode.ok()) << DescribeNetSchedule(episode) << "\n"
                              << episode.failure;
    ASSERT_NE(episode.schedule.byzantine_device, SIZE_MAX);
    EXPECT_EQ(episode.schedule.kill_device, SIZE_MAX);
    if (episode.byzantine_effective == 0) continue;
    ++guarded;
    EXPECT_EQ(episode.driver_stats.recovery_rounds, 0u);
    EXPECT_GE(episode.driver_stats.byzantine_masked_queries, 1u);
    EXPECT_EQ(episode.queries_answered, config.queries);
  }
  EXPECT_GE(guarded, 1u) << "no episode provisioned a guard";
  const std::string repro = NetReproCommand(config, 0);
  EXPECT_NE(repro.find("--byzantine_tolerance=1"), std::string::npos)
      << repro;
}

}  // namespace
}  // namespace scec::net
