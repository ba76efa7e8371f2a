// SPDX-License-Identifier: MIT
//
// Shared plumbing for the repository benchmark (perfbench/README.md):
// the clock, the metric map a workload fills, latency quantiles, and the
// in-memory span log the traced run records around every layer call the
// benchmark makes.
//
// Everything here runs on the benchmark's own threads. The span log is
// single-threaded by contract: each workload records spans only from its
// one client thread (the transport decorator, the timed DeployFn and the
// timing stream are all invoked on that thread).

#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

// Seconds on the obs tracer's steady clock, so benchmark spans and the
// program's own spans share one timeline in the exported trace.
inline double NowS() { return scec::obs::Tracer::NowMicros() * 1e-6; }

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

double Median(std::vector<double> values);
// Linear-interpolated quantile q in [0, 1] of an unsorted sample.
double Quantile(std::vector<double> values, double q);

// The highest percentile of n samples with at least ten samples beyond it,
// capped at 0.99 (reached at 1000 samples).
double TailQuantile(size_t n);

// The timed phase of a closed loop, cut into kSlices slices of equal timed
// seconds. The rate, the median latency and the tail are each the median
// over slices of that slice's value, so noise from other work on the host
// that spans a few slices moves them little. The tail quantile is fixed by
// the run's sample count (TailQuantile) and taken within every slice.
class TimedPhase {
 public:
  static constexpr size_t kSlices = 30;
  explicit TimedPhase(double seconds) : seconds_(seconds), slices_(1) {}

  bool done() const { return timed_s_ >= seconds_; }
  // A correct answer and its latency; call before AddTime for the interval
  // the answer completed in.
  void AddAnswer(double latency_s) { slices_.back().push_back(latency_s); }
  // Seconds the client spent waiting on the system; closes a slice when it
  // has its share of the run.
  void AddTime(double seconds);

  double timed_s() const { return timed_s_; }
  size_t answers() const;
  double QueriesPerS() const;
  double P50() const;
  double Tail() const;
  double tail_quantile() const { return TailQuantile(answers()); }
  // Every slice's rate, for the run context.
  std::string SliceRates() const;

 private:
  double seconds_;
  double timed_s_ = 0.0;
  std::vector<std::vector<double>> slices_;  // latencies; the last is open
  std::vector<double> slice_s_ = {0.0};      // timed seconds per slice
};

// Pins the calling thread, and with it every thread it creates while the
// pin is held, to the last `count` CPUs it may run on (all of them when it
// may run on fewer); restores the previous mask when destroyed. On a shared
// host the first CPU also carries the system's own work: a single-threaded
// workload that the scheduler moved on and off it ran about 1.5x slower in
// some runs than in others.
class PinToLastCpus {
 public:
  explicit PinToLastCpus(size_t count);
  ~PinToLastCpus();
  PinToLastCpus(const PinToLastCpus&) = delete;
  PinToLastCpus& operator=(const PinToLastCpus&) = delete;

  size_t size() const { return size_; }
  const std::string& cpus() const { return cpus_; }  // e.g. "1,2,3"

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
  size_t size_ = 0;
  std::string cpus_;
};

// One recorded span: a call into one layer, made by the benchmark.
struct Span {
  const char* name = "";  // static storage
  double start_s = 0.0;
  double end_s = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;  // enclosing span id, 0 = root
  uint64_t query = 0;   // query id the call served, 0 = none
  double seconds() const { return end_s - start_s; }
};

class SpanLog {
 public:
  uint64_t Begin(const char* name, uint64_t query);
  // Closes span `id`, which must be the innermost open span.
  void End(uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  // Sum of durations of every closed span named `name`.
  double Total(const char* name) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_, innermost last
  uint64_t next_id_ = 1;
};

// Writes the spans of every log (log i on thread track i + 1) plus every
// span the program itself recorded on the global obs tracer as one Chrome
// trace (obs/export.h). Returns false when the file cannot be written.
bool ExportChromeTrace(const std::string& path,
                       const std::vector<const SpanLog*>& logs);

// RAII span; a null log makes it free (the untraced configuration).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t query = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, query) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint64_t id_;
};

// Self time of every span named `name`: its duration minus the part of its
// interval covered by its direct children (children never overlap here,
// all being calls made in sequence on one thread).
double SelfTime(const SpanLog& log, const char* name);

// Times `fn` repeatedly for at least `min_s` seconds and `min_reps` calls
// and returns the median seconds per call.
template <typename Fn>
double MedianCallSeconds(Fn&& fn, double min_s = 0.05, size_t min_reps = 5) {
  std::vector<double> samples;
  const double begin = NowS();
  while (samples.size() < min_reps || NowS() - begin < min_s) {
    const double t0 = NowS();
    fn();
    samples.push_back(NowS() - t0);
  }
  return Median(std::move(samples));
}

// One row of the layer table: a layer's public function replayed alone at
// a workload's exact shapes, reported as ops/s or elems/s plus the bytes
// the call moves (computed from the operand sizes, not measured).
struct LayerRow {
  std::string function;  // the public function replayed
  std::string shape;     // the operand shape it ran at
  double seconds_per_op = 0.0;
  double elems_per_op = 0.0;  // 0 = the row is reported as ops/s only
  double bytes_per_op = 0.0;  // computed bytes moved per call
};

class LayerTable {
 public:
  void Add(LayerRow row) { rows_.push_back(std::move(row)); }
  const std::vector<LayerRow>& rows() const { return rows_; }
  // One JSON object per row, on stdout, before the result line.
  void Print() const;

 private:
  std::vector<LayerRow> rows_;
};

// Result of one workload run: end-to-end metrics (untraced configuration),
// per-layer metrics (traced configuration), the query ledger, and the
// reconciliation checks the traced run makes.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // wrong answers + errors + refusals + sheds
  uint64_t wrong = 0;   // answers that failed the check (subset of failed)
  MetricMap metrics;
  std::map<std::string, std::string> context;  // printed with the result
  std::vector<std::string> check_failures;     // reconciliation/correctness
};

// Runtime settings shared by every workload.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  // Number of set-ups to time. The first is from nothing; each later one
  // follows destroying the previous coordinator and is also a restart.
  // durable_journal ignores it: it sets up once per kill cycle.
  size_t setups = 3;
  SpanLog* spans = nullptr;  // non-null = traced configuration
  LayerTable* table = nullptr;  // set with `spans`: replay rows go here
};

}  // namespace perfbench
