// SPDX-License-Identifier: MIT
//
// Unified metrics export: RunMetrics (sim/metrics.h) and the fault-recovery
// ledger of the protocol driver (NetCoordinatorStats, net/driver.h). The
// JSON and CSV forms must round-trip the Eq. (1) accounting identities —
// the totals a consumer parses back must equal the per-device sums the
// simulator counted — and every ledger field.

#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "net/driver.h"
#include "sim/simulation.h"
#include "workload/distributions.h"

namespace scec::sim {
namespace {

McscecProblem MakeProblem(size_t m, size_t l, size_t k, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  McscecProblem problem;
  problem.m = m;
  problem.l = l;
  for (size_t j = 0; j < k; ++j) {
    EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.costs.storage = 0.01;
    device.costs.mul = 0.002;
    device.costs.add = 0.001;
    device.compute_rate_flops = rng.NextDouble(1e8, 1e9);
    device.uplink_bps = rng.NextDouble(1e7, 1e8);
    device.downlink_bps = rng.NextDouble(1e7, 1e8);
    device.link_latency_s = rng.NextDouble(1e-4, 5e-3);
    problem.fleet.Add(device);
  }
  return problem;
}

RunMetrics SimulatedMetrics() {
  const McscecProblem problem = MakeProblem(24, 6, 8, 5);
  ChaCha20Rng coding_rng(50);
  Xoshiro256StarStar drng(51);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const auto result = SimulateScec(problem, a, x, coding_rng);
  EXPECT_TRUE(result.ok()) << result.status();
  return result->metrics;
}

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  for (std::string field; std::getline(in, field, ',');) {
    fields.push_back(field);
  }
  return fields;
}

// Extracts the number following "\"<key>\":" in a flat JSON object.
uint64_t JsonUint(const std::string& json, const std::string& key) {
  const std::string marker = "\"" + key + "\":";
  const size_t pos = json.find(marker);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return 0;
  return std::stoull(json.substr(pos + marker.size()));
}

TEST(RunMetricsExport, JsonTotalsMatchEquationOneSums) {
  const RunMetrics metrics = SimulatedMetrics();
  const std::string json = ToJson(metrics);

  // The exported totals must equal the per-device Eq. (1) sums.
  EXPECT_EQ(JsonUint(json, "total_stored_values"),
            metrics.TotalStoredValues());
  EXPECT_EQ(JsonUint(json, "total_multiplications"),
            metrics.TotalMultiplications());
  EXPECT_EQ(JsonUint(json, "total_additions"), metrics.TotalAdditions());
  EXPECT_EQ(JsonUint(json, "total_values_sent"), metrics.TotalValuesSent());
  EXPECT_EQ(JsonUint(json, "decode_subtractions"),
            metrics.decode_subtractions);

  // And the sums themselves must satisfy the Eq. (1) per-device identities:
  // multiplications V·l, additions V·(l−1), sent V.
  uint64_t v_total = 0, l = 0;
  for (const DeviceMetrics& device : metrics.devices) {
    v_total += device.coded_rows;
    if (device.coded_rows > 0) {
      l = device.multiplications / device.coded_rows;
    }
  }
  EXPECT_EQ(metrics.TotalMultiplications(), v_total * l);
  EXPECT_EQ(metrics.TotalAdditions(), v_total * (l - 1));
  EXPECT_EQ(metrics.TotalValuesSent(), v_total);

  // Per-device objects are nested under "devices".
  EXPECT_NE(json.find("\"devices\":[{"), std::string::npos);
  for (const DeviceMetrics& device : metrics.devices) {
    EXPECT_NE(json.find("\"name\":\"" + device.name + "\""),
              std::string::npos);
  }
}

TEST(RunMetricsExport, CsvRowMatchesHeaderAndTotals) {
  const RunMetrics metrics = SimulatedMetrics();
  const std::vector<std::string> header = SplitCsv(RunMetricsCsvHeader());
  const std::vector<std::string> row = SplitCsv(ToCsvRow(metrics));
  ASSERT_EQ(header.size(), row.size());

  auto column = [&](const std::string& name) -> std::string {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return row[i];
    }
    ADD_FAILURE() << "column " << name << " missing";
    return "";
  };
  EXPECT_EQ(std::stoull(column("total_stored_values")),
            metrics.TotalStoredValues());
  EXPECT_EQ(std::stoull(column("total_multiplications")),
            metrics.TotalMultiplications());
  EXPECT_EQ(std::stoull(column("total_additions")),
            metrics.TotalAdditions());
  EXPECT_EQ(std::stoull(column("total_values_sent")),
            metrics.TotalValuesSent());
  EXPECT_EQ(std::stoull(column("staging_bytes")), metrics.staging_bytes);
  EXPECT_EQ(column("decoded_correctly"),
            metrics.decoded_correctly ? "1" : "0");
  EXPECT_DOUBLE_EQ(std::stod(column("query_completion_time")),
                   metrics.query_completion_time);
}

std::string CsvColumn(const net::NetCoordinatorStats& stats,
                      const std::string& name) {
  const std::vector<std::string> header =
      SplitCsv(net::NetCoordinatorStatsCsvHeader());
  const std::vector<std::string> row = SplitCsv(net::ToCsvRow(stats));
  EXPECT_EQ(header.size(), row.size());
  for (size_t i = 0; i < header.size() && i < row.size(); ++i) {
    if (header[i] == name) return row[i];
  }
  ADD_FAILURE() << "column " << name << " missing";
  return "";
}

TEST(FaultRecoveryMetricsExport, JsonAndCsvCarryDerivedFields) {
  net::NetCoordinatorStats metrics;
  metrics.timeouts = 5;
  metrics.retries = 3;
  metrics.byzantine_flagged = 1;
  metrics.evictions = 2;
  metrics.evictions_corrupt = 1;
  metrics.recovery_rounds = 2;
  metrics.replanned_rows = 7;
  metrics.base_plan_cost = 123.5;
  metrics.recovery_plan_cost = 41.25;
  metrics.first_round_s = 0.5;
  metrics.last_query_s = 0.875;

  const std::string json = net::ToJson(metrics);
  EXPECT_EQ(JsonUint(json, "evictions"), 2u);
  EXPECT_EQ(JsonUint(json, "evictions_corrupt"), 1u);
  EXPECT_NE(json.find("\"recovery_latency_s\":0.375"), std::string::npos)
      << json;
  EXPECT_EQ(JsonUint(json, "replanned_rows"), 7u);
  EXPECT_NE(json.find("\"recovery_plan_cost\":41.25"), std::string::npos)
      << json;

  const std::vector<std::string> header =
      SplitCsv(net::NetCoordinatorStatsCsvHeader());
  const std::vector<std::string> row = SplitCsv(net::ToCsvRow(metrics));
  ASSERT_EQ(header.size(), row.size());
  for (size_t i = 0; i < header.size(); ++i) {
    EXPECT_FALSE(row[i].empty()) << "empty column " << header[i];
  }
}

TEST(FaultRecoveryMetricsExport, HedgeAndAdaptiveFieldsRoundTrip) {
  net::NetCoordinatorStats metrics;
  metrics.hedges_launched = 4;
  metrics.hedge_wins = 3;
  metrics.hedges_cancelled = 1;
  metrics.hedged_rows = 9;
  metrics.hedges_suppressed = 2;
  metrics.adaptive_deadlines = 11;
  metrics.dispatches = 16;
  metrics.responses_seen = 14;
  metrics.response_value_bytes = 560;
  metrics.first_round_s = 0.25;
  metrics.last_query_s = 0.375;

  const std::string json = net::ToJson(metrics);
  EXPECT_EQ(JsonUint(json, "hedges_launched"), 4u);
  EXPECT_EQ(JsonUint(json, "hedge_wins"), 3u);
  EXPECT_EQ(JsonUint(json, "hedges_cancelled"), 1u);
  EXPECT_EQ(JsonUint(json, "hedged_rows"), 9u);
  EXPECT_EQ(JsonUint(json, "hedges_suppressed"), 2u);
  EXPECT_EQ(JsonUint(json, "adaptive_deadlines"), 11u);
  EXPECT_EQ(JsonUint(json, "dispatches"), 16u);
  EXPECT_EQ(JsonUint(json, "responses_seen"), 14u);
  EXPECT_EQ(JsonUint(json, "response_value_bytes"), 560u);
  // Derived: 4 hedges over 16 dispatches.
  EXPECT_NE(json.find("\"hedge_rate\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"last_query_s\":0.375"), std::string::npos) << json;

  EXPECT_EQ(CsvColumn(metrics, "hedges_launched"), "4");
  EXPECT_EQ(CsvColumn(metrics, "hedge_wins"), "3");
  EXPECT_EQ(CsvColumn(metrics, "hedged_rows"), "9");
  EXPECT_EQ(CsvColumn(metrics, "adaptive_deadlines"), "11");
  EXPECT_EQ(CsvColumn(metrics, "dispatches"), "16");
  EXPECT_DOUBLE_EQ(std::stod(CsvColumn(metrics, "last_query_s")), 0.375);
  // Column order: the latency block precedes the Byzantine/reputation
  // block, and the crash-recovery block closes the row.
  const std::vector<std::string> header =
      SplitCsv(net::NetCoordinatorStatsCsvHeader());
  EXPECT_EQ(header.back(), "resumed_responses");
  auto index_of = [&](const std::string& name) {
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return i;
    }
    ADD_FAILURE() << "column " << name << " missing";
    return header.size();
  };
  EXPECT_LT(index_of("last_query_s"), index_of("byzantine_guard_segments"));
}

TEST(FaultRecoveryMetricsExport, ByzantineAndReputationFieldsRoundTrip) {
  net::NetCoordinatorStats metrics;
  metrics.byzantine_guard_segments = 2;
  metrics.byzantine_guard_rows = 48;
  metrics.byzantine_guard_cost = 12.5;
  metrics.byzantine_masked_queries = 3;
  metrics.byzantine_located_liars = 2;
  metrics.byzantine_fallback_locates = 1;
  metrics.byzantine_ambiguous_locates = 1;
  metrics.devices_quarantined = 2;
  metrics.devices_readmitted = 1;
  metrics.canaries_sent = 5;
  metrics.canaries_passed = 4;
  metrics.canaries_failed = 1;

  const std::string json = net::ToJson(metrics);
  EXPECT_EQ(JsonUint(json, "byzantine_guard_segments"), 2u);
  EXPECT_EQ(JsonUint(json, "byzantine_guard_rows"), 48u);
  EXPECT_NE(json.find("\"byzantine_guard_cost\":12.5"), std::string::npos)
      << json;
  EXPECT_EQ(JsonUint(json, "byzantine_masked_queries"), 3u);
  EXPECT_EQ(JsonUint(json, "byzantine_located_liars"), 2u);
  EXPECT_EQ(JsonUint(json, "byzantine_fallback_locates"), 1u);
  EXPECT_EQ(JsonUint(json, "byzantine_ambiguous_locates"), 1u);
  EXPECT_EQ(JsonUint(json, "devices_quarantined"), 2u);
  EXPECT_EQ(JsonUint(json, "devices_readmitted"), 1u);
  EXPECT_EQ(JsonUint(json, "canaries_sent"), 5u);
  EXPECT_EQ(JsonUint(json, "canaries_passed"), 4u);
  EXPECT_EQ(JsonUint(json, "canaries_failed"), 1u);

  EXPECT_EQ(CsvColumn(metrics, "byzantine_guard_segments"), "2");
  EXPECT_EQ(CsvColumn(metrics, "byzantine_guard_rows"), "48");
  EXPECT_EQ(CsvColumn(metrics, "byzantine_masked_queries"), "3");
  EXPECT_EQ(CsvColumn(metrics, "devices_quarantined"), "2");
  EXPECT_EQ(CsvColumn(metrics, "devices_readmitted"), "1");
  EXPECT_EQ(CsvColumn(metrics, "canaries_sent"), "5");
  EXPECT_EQ(CsvColumn(metrics, "canaries_failed"), "1");
}

TEST(FaultRecoveryMetricsExport, CrashRecoveryFieldsRoundTrip) {
  net::NetCoordinatorStats metrics;
  metrics.generation = 2;
  metrics.restored_segments = 3;
  metrics.restored_evictions = 1;
  metrics.resumed_responses = 5;
  metrics.stale_ignored = 37;
  metrics.transport_errors = 9;

  const std::string json = net::ToJson(metrics);
  EXPECT_EQ(JsonUint(json, "generation"), 2u);
  EXPECT_EQ(JsonUint(json, "restored_segments"), 3u);
  EXPECT_EQ(JsonUint(json, "restored_evictions"), 1u);
  EXPECT_EQ(JsonUint(json, "resumed_responses"), 5u);
  EXPECT_EQ(JsonUint(json, "stale_ignored"), 37u);
  EXPECT_EQ(JsonUint(json, "transport_errors"), 9u);

  EXPECT_EQ(CsvColumn(metrics, "generation"), "2");
  EXPECT_EQ(CsvColumn(metrics, "restored_segments"), "3");
  EXPECT_EQ(CsvColumn(metrics, "restored_evictions"), "1");
  EXPECT_EQ(CsvColumn(metrics, "resumed_responses"), "5");
  EXPECT_EQ(CsvColumn(metrics, "stale_ignored"), "37");
  EXPECT_EQ(CsvColumn(metrics, "transport_errors"), "9");
}

TEST(RunMetricsExport, EmptyMetricsStillSerialise) {
  const RunMetrics metrics;
  const std::string json = ToJson(metrics);
  EXPECT_NE(json.find("\"devices\":[]"), std::string::npos);
  EXPECT_EQ(JsonUint(json, "total_stored_values"), 0u);
  const std::vector<std::string> row = SplitCsv(ToCsvRow(metrics));
  EXPECT_EQ(row.size(), SplitCsv(RunMetricsCsvHeader()).size());
}

}  // namespace
}  // namespace scec::sim
