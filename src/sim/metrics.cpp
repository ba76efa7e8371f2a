// SPDX-License-Identifier: MIT

#include "sim/metrics.h"

#include <sstream>

#include "obs/export.h"

namespace scec::sim {
namespace {

std::string Num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string ToJson(const DeviceMetrics& metrics) {
  std::ostringstream os;
  os << "{\"name\":\"" << obs::JsonEscape(metrics.name) << "\""
     << ",\"coded_rows\":" << metrics.coded_rows
     << ",\"stored_values\":" << metrics.stored_values
     << ",\"multiplications\":" << metrics.multiplications
     << ",\"additions\":" << metrics.additions
     << ",\"values_sent\":" << metrics.values_sent
     << ",\"compute_seconds\":" << Num(metrics.compute_seconds)
     << ",\"response_time\":" << Num(metrics.response_time) << "}";
  return os.str();
}

std::string ToJson(const RunMetrics& metrics) {
  std::ostringstream os;
  os << "{\"staging_completion_time\":" << Num(metrics.staging_completion_time)
     << ",\"staging_bytes\":" << metrics.staging_bytes
     << ",\"query_completion_time\":" << Num(metrics.query_completion_time)
     << ",\"query_uplink_bytes\":" << metrics.query_uplink_bytes
     << ",\"query_downlink_bytes\":" << metrics.query_downlink_bytes
     << ",\"decode_subtractions\":" << metrics.decode_subtractions
     << ",\"decoded_correctly\":"
     << (metrics.decoded_correctly ? "true" : "false")
     << ",\"total_stored_values\":" << metrics.TotalStoredValues()
     << ",\"total_multiplications\":" << metrics.TotalMultiplications()
     << ",\"total_additions\":" << metrics.TotalAdditions()
     << ",\"total_values_sent\":" << metrics.TotalValuesSent()
     << ",\"devices\":[";
  for (size_t i = 0; i < metrics.devices.size(); ++i) {
    if (i > 0) os << ',';
    os << ToJson(metrics.devices[i]);
  }
  os << "]}";
  return os.str();
}

std::string RunMetricsCsvHeader() {
  return "staging_completion_time,staging_bytes,query_completion_time,"
         "query_uplink_bytes,query_downlink_bytes,decode_subtractions,"
         "decoded_correctly,total_stored_values,total_multiplications,"
         "total_additions,total_values_sent";
}

std::string ToCsvRow(const RunMetrics& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << metrics.staging_completion_time << ',' << metrics.staging_bytes << ','
     << metrics.query_completion_time << ',' << metrics.query_uplink_bytes
     << ',' << metrics.query_downlink_bytes << ','
     << metrics.decode_subtractions << ','
     << (metrics.decoded_correctly ? 1 : 0) << ','
     << metrics.TotalStoredValues() << ',' << metrics.TotalMultiplications()
     << ',' << metrics.TotalAdditions() << ',' << metrics.TotalValuesSent();
  return os.str();
}

}  // namespace scec::sim
