// SPDX-License-Identifier: MIT
//
// Telemetry exporters:
//
//   * Chrome trace_event JSON — load in chrome://tracing or
//     https://ui.perfetto.dev. Wall-clock spans appear under process 1,
//     simulated-time spans under process 2 (see obs/trace.h clock domains).
//   * Prometheus text exposition — counters, gauges, and histograms with
//     cumulative `_bucket{le=...}` series, suitable for node_exporter-style
//     scraping of a dumped file.
//   * JSON metrics snapshot — one object per series including histogram
//     p50/p95/p99, for machine post-processing (BENCH_pr*.json inputs).
//
// Env-driven export (both read once, at first Tracer/registry use):
//   SCEC_TRACE=<path>    enable tracing and write Chrome JSON at exit;
//   SCEC_METRICS=<path>  write the metrics JSON snapshot at exit.

#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace scec::obs {

// `dropped` (ring overflow count) is recorded as metadata in the output.
void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events,
                      uint64_t dropped = 0);

void WritePrometheusText(std::ostream& os, const MetricsRegistry& registry);

void WriteMetricsJson(std::ostream& os, const MetricsRegistry& registry);

// File-writing conveniences over the global tracer / registry. Return false
// (and log at kWarning) when the file cannot be opened.
bool ExportTraceFile(const std::string& path);
bool ExportMetricsJsonFile(const std::string& path);
bool ExportPrometheusFile(const std::string& path);

// JSON string escaping shared by the exporters.
std::string JsonEscape(const std::string& text);

namespace internal {
// Applies SCEC_TRACE / SCEC_METRICS exactly once per process: enables the
// given tracer and installs atexit exporters. Called from Tracer::Global().
void InitEnvTelemetryOnce(Tracer& tracer);
}  // namespace internal

}  // namespace scec::obs
