// SPDX-License-Identifier: MIT
//
// Metrics collected by a simulated SCEC run. The accounting counters mirror
// Eq. (1)'s three resource classes exactly (values stored, scalar ops,
// values communicated), so tests can assert the simulator agrees with the
// analytic cost model to the last unit.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace scec::sim {

struct DeviceMetrics {
  std::string name;
  size_t coded_rows = 0;        // V(B_j)
  // Accounting units (match Eq. (1)):
  uint64_t stored_values = 0;    // l + (l+1)·V_j when serving
  uint64_t multiplications = 0;  // V_j·l per query
  uint64_t additions = 0;        // V_j·(l−1) per query
  uint64_t values_sent = 0;      // V_j per query
  // Timing:
  double compute_seconds = 0.0;
  double response_time = 0.0;    // when this device's response reached user
};

struct RunMetrics {
  // Offline phase (cloud → devices), not part of query latency.
  double staging_completion_time = 0.0;
  uint64_t staging_bytes = 0;

  // Online phase (query → decoded result).
  double query_completion_time = 0.0;
  uint64_t query_uplink_bytes = 0;    // user → devices (x broadcast)
  uint64_t query_downlink_bytes = 0;  // devices → user (responses)
  uint64_t decode_subtractions = 0;   // m for the structured decoder

  bool decoded_correctly = false;
  std::vector<DeviceMetrics> devices;

  uint64_t TotalStoredValues() const {
    uint64_t total = 0;
    for (const auto& d : devices) total += d.stored_values;
    return total;
  }
  uint64_t TotalMultiplications() const {
    uint64_t total = 0;
    for (const auto& d : devices) total += d.multiplications;
    return total;
  }
  uint64_t TotalAdditions() const {
    uint64_t total = 0;
    for (const auto& d : devices) total += d.additions;
    return total;
  }
  uint64_t TotalValuesSent() const {
    uint64_t total = 0;
    for (const auto& d : devices) total += d.values_sent;
    return total;
  }
};

// Unified export (sim/metrics.cpp): every bench and example serialises run
// metrics through these instead of hand-rolling per-binary printing. The
// JSON form nests per-device metrics and the Eq. (1) totals; the CSV form is
// one flat row (totals only) matching CsvHeader()'s column order.
std::string ToJson(const DeviceMetrics& metrics);
std::string ToJson(const RunMetrics& metrics);

std::string RunMetricsCsvHeader();
std::string ToCsvRow(const RunMetrics& metrics);

}  // namespace scec::sim
