// SPDX-License-Identifier: MIT
//
// Span tracer: ring-buffered trace events exportable as Chrome trace_event
// JSON (about:tracing / Perfetto; obs/export.h).
//
// Clock domains
// -------------
// Two kinds of time coexist in this codebase, and the tracer keeps them
// apart via the Chrome-trace `pid` field so neither pollutes the other's
// timeline:
//   * pid kWallPid — real wall-clock spans (steady_clock since process
//     start), tid = OS thread. Used by the in-process pipeline, the thread
//     pool, and the kernels.
//   * pid kSimPid  — simulated time from the discrete-event queue, tid =
//     device / node index. Used by the protocol driver (net/driver.h, on
//     the transport's clock) for per-device response spans and
//     timeout/eviction/recovery events.
//
// Cost model
// ----------
// Tracing is OFF by default; every instrumentation site first checks
// `Tracer::Enabled()` — one relaxed atomic load — and does nothing else when
// disabled (SpanGuard's lazy-name constructor does not even build the name
// string). Enabled-path appends take one mutex + one ring slot write.
//
// Enablement: SCEC_TRACE env var, read once at first use.
//   unset / "0" / "" — disabled;
//   "1"              — enabled (export is the caller's job);
//   anything else    — enabled, treated as a path: the full ring is written
//                      there as Chrome-trace JSON at process exit.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace scec::obs {

inline constexpr uint32_t kWallPid = 1;  // wall-clock spans
inline constexpr uint32_t kSimPid = 2;   // simulated-time spans

struct TraceEvent {
  std::string name;
  const char* category = "scec";  // must point at static storage
  char phase = 'X';               // 'X' complete, 'i' instant
  double ts_us = 0.0;             // start, microseconds in its clock domain
  double dur_us = 0.0;            // 'X' only
  uint32_t pid = kWallPid;
  uint64_t tid = 0;               // OS thread (wall) or device index (sim)
  uint64_t id = 0;                // span id (0 = none)
  uint64_t parent = 0;            // enclosing span id (0 = root)
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Process-wide tracer; first call applies SCEC_TRACE.
  static Tracer& Global();

  // Fast path for instrumentation sites: is the global tracer recording?
  static bool Enabled() {
    return Global().enabled_.load(std::memory_order_relaxed);
  }

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Ring capacity in events (default 1 << 16). Resetting clears the buffer.
  void SetCapacity(size_t capacity);

  // --- Wall-clock spans (pid kWallPid, tid = OS thread) ---
  // Begin/End nest per thread: End pops the innermost open span of the
  // calling thread and records a complete event. Returns the span id.
  uint64_t BeginSpan(std::string name, const char* category = "scec");
  void EndSpan();
  // Zero-duration marker at "now" on the calling thread.
  void Instant(std::string name, const char* category = "scec");

  // --- Async spans (explicit start/end, may cross threads) ---
  uint64_t BeginAsyncSpan(std::string name, const char* category = "scec");
  void EndAsyncSpan(uint64_t id);

  // --- Simulated-time events (pid kSimPid, caller supplies the clock) ---
  // Timestamps/durations in SIM seconds; tid is a device / node index.
  void RecordSimSpan(std::string name, double start_s, double duration_s,
                     uint64_t tid, const char* category = "sim");
  void RecordSimInstant(std::string name, double ts_s, uint64_t tid,
                        const char* category = "sim");

  // Innermost open wall-clock span id of the calling thread (0 = none).
  static uint64_t CurrentSpanId();

  // Oldest-first copy of the ring.
  std::vector<TraceEvent> Snapshot() const;
  // Events evicted by ring wrap-around since the last Clear().
  uint64_t dropped() const;
  void Clear();

  // Microseconds on the wall clock domain (steady_clock since first use).
  static double NowMicros();

 private:
  void Append(TraceEvent event);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_span_id_{1};

  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  size_t capacity_ = 1 << 16;
  size_t head_ = 0;  // next write position once the ring is full
  bool full_ = false;
  uint64_t dropped_ = 0;
  // Async spans still open: id -> (name, category, start, parent, tid).
  struct OpenAsync {
    std::string name;
    const char* category;
    double start_us;
    uint64_t parent;
    uint64_t tid;
  };
  std::deque<std::pair<uint64_t, OpenAsync>> open_async_;
};

// RAII wall-clock span. The lazy-name overload takes any callable returning
// a string; it is only invoked when tracing is enabled, so dynamic names
// (per-device, per-chunk) cost nothing on the disabled path.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name, const char* category = "scec") {
    if (Tracer::Enabled()) {
      Tracer::Global().BeginSpan(name, category);
      open_ = true;
    }
  }
  template <typename NameFn,
            typename = decltype(std::declval<NameFn>()())>
  explicit SpanGuard(NameFn&& name_fn, const char* category = "scec") {
    if (Tracer::Enabled()) {
      Tracer::Global().BeginSpan(name_fn(), category);
      open_ = true;
    }
  }
  ~SpanGuard() {
    if (open_) Tracer::Global().EndSpan();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  bool open_ = false;
};

#define SCEC_TRACE_CONCAT_INNER(a, b) a##b
#define SCEC_TRACE_CONCAT(a, b) SCEC_TRACE_CONCAT_INNER(a, b)
// Usage: SCEC_TRACE_SPAN("deploy"); — traces the enclosing scope.
#define SCEC_TRACE_SPAN(...)                                 \
  ::scec::obs::SpanGuard SCEC_TRACE_CONCAT(scec_trace_span_, \
                                           __LINE__)(__VA_ARGS__)

}  // namespace scec::obs
