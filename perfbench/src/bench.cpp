// SPDX-License-Identifier: MIT

#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/check.h"
#include "obs/export.h"

namespace perfbench {

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  SCEC_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double TailQuantile(size_t n) {
  return n >= 1000 ? 0.99 : std::max(0.5, 1.0 - 10.0 / static_cast<double>(n));
}

void TimedPhase::AddTime(double seconds) {
  timed_s_ += seconds;
  slice_s_.back() += seconds;
  if (slice_s_.back() >= seconds_ / kSlices && !done()) {
    slices_.emplace_back();
    slice_s_.push_back(0.0);
  }
}

size_t TimedPhase::answers() const {
  size_t total = 0;
  for (const auto& slice : slices_) total += slice.size();
  return total;
}

double TimedPhase::QueriesPerS() const {
  std::vector<double> rates;
  for (size_t i = 0; i < slices_.size(); ++i) {
    if (slice_s_[i] > 0.0) rates.push_back(slices_[i].size() / slice_s_[i]);
  }
  return Median(std::move(rates));
}

double TimedPhase::P50() const {
  std::vector<double> p50s;
  for (const auto& slice : slices_) {
    if (!slice.empty()) p50s.push_back(Quantile(slice, 0.5));
  }
  return Median(std::move(p50s));
}

double TimedPhase::Tail() const {
  const double q = tail_quantile();
  std::vector<double> tails;
  for (const auto& slice : slices_) {
    if (!slice.empty()) tails.push_back(Quantile(slice, q));
  }
  return Median(std::move(tails));
}

std::string TimedPhase::SliceRates() const {
  std::string out;
  char buffer[32];
  for (size_t i = 0; i < slices_.size(); ++i) {
    if (slice_s_[i] <= 0.0) continue;
    std::snprintf(buffer, sizeof(buffer), "%s%.4g", out.empty() ? "" : " ",
                  slices_[i].size() / slice_s_[i]);
    out += buffer;
  }
  return out;
}

PinToLastCpus::PinToLastCpus(size_t count) {
  CPU_ZERO(&saved_);
  SCEC_CHECK(sched_getaffinity(0, sizeof(saved_), &saved_) == 0);
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && size_ < count; --cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    CPU_SET(cpu, &chosen);
    ++size_;
    cpus_ = std::to_string(cpu) + (cpus_.empty() ? "" : ",") + cpus_;
  }
  SCEC_CHECK(sched_setaffinity(0, sizeof(chosen), &chosen) == 0);
  pinned_ = true;
}

PinToLastCpus::~PinToLastCpus() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

uint64_t SpanLog::Begin(const char* name, uint64_t query) {
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.query = query;
  span.start_s = NowS();
  open_.push_back(spans_.size());
  spans_.push_back(span);
  return span.id;
}

void SpanLog::End(uint64_t id) {
  const double now = NowS();
  SCEC_CHECK(!open_.empty());
  Span& span = spans_[open_.back()];
  SCEC_CHECK_EQ(span.id, id) << "spans must close innermost first";
  span.end_s = now;
  open_.pop_back();
}

double SpanLog::Total(const char* name) const {
  double total = 0.0;
  const std::string key(name);
  for (const Span& span : spans_) {
    if (key == span.name) total += span.seconds();
  }
  return total;
}

double SelfTime(const SpanLog& log, const char* name) {
  const std::string key(name);
  std::map<uint64_t, double> child_time;  // parent id -> covered seconds
  for (const Span& span : log.spans()) {
    if (span.parent != 0) child_time[span.parent] += span.seconds();
  }
  double self = 0.0;
  for (const Span& span : log.spans()) {
    if (key != span.name) continue;
    auto it = child_time.find(span.id);
    self += span.seconds() - (it == child_time.end() ? 0.0 : it->second);
  }
  return self;
}

bool ExportChromeTrace(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  std::vector<scec::obs::TraceEvent> events =
      scec::obs::Tracer::Global().Snapshot();
  // Offset so benchmark span ids never collide with the program's.
  constexpr uint64_t kIdBase = uint64_t{1} << 48;
  for (size_t track = 0; track < logs.size(); ++track) {
    for (const Span& span : logs[track]->spans()) {
      scec::obs::TraceEvent event;
      event.name = span.query == 0 ? std::string(span.name)
                                   : std::string(span.name) + " q" +
                                         std::to_string(span.query);
      event.category = "perfbench";
      event.ts_us = span.start_s * 1e6;
      event.dur_us = span.seconds() * 1e6;
      event.pid = scec::obs::kWallPid;
      event.tid = track + 1;
      event.id = kIdBase + span.id;
      event.parent = span.parent == 0 ? 0 : kIdBase + span.parent;
      events.push_back(std::move(event));
    }
  }
  std::ofstream os(path);
  if (!os) return false;
  scec::obs::WriteChromeTrace(os, events,
                              scec::obs::Tracer::Global().dropped());
  return static_cast<bool>(os);
}

}  // namespace perfbench
