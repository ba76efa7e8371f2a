// SPDX-License-Identifier: MIT
//
// Metrics export of the protocol driver's ledger (NetCoordinatorStats,
// net/driver.h): the JSON and CSV forms must round-trip every ledger field
// and the derived ones.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "net/driver.h"

namespace scec::sim {
namespace {

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

}  // namespace
}  // namespace scec::sim
