// SPDX-License-Identifier: MIT
//
// Per-device response-latency estimator for the protocol driver
// (net/driver.h).
//
// The paper assumes every device "responds in a timely manner" (§II-A); the
// driver's default relaxes that with a FIXED deadline budgeted from the
// device's link/compute specs. A fixed deadline has to be
// generous (it absorbs the whole straggler tail up front), so a straggler
// costs a full deadline before anything reacts. This estimator learns each
// device's actual `device_response` durations online so the protocol can
// react at "noticeably slower than this device usually is" instead:
//
//   * EWMA        — smoothed central tendency, O(1) state, reacts to drifts
//                   (a device heating up, a link degrading).
//   * Percentile  — streaming quantile over a bounded sliding window of the
//                   most recent samples. Inside the window the estimate is
//                   EXACT (same linear interpolation as SampleStat, which
//                   tests use as the oracle); the window bound keeps memory
//                   and per-query work O(window) regardless of stream length.
//
// Cold start: with fewer than `min_samples` observations the estimator
// reports no estimate and callers fall back to the configured model-based
// deadline — a device must prove a latency profile before the protocol
// tightens (or loosens) its timeout. Rateless/adaptive coded computing
// (Bitar et al., arXiv:1909.12611) motivates the same observe-then-adapt
// loop for work allocation.

#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace scec::sim {

struct LatencyEstimatorOptions {
  double ewma_alpha = 0.25;  // weight of the newest sample in the EWMA
  size_t window = 128;       // sliding-window size for the percentile
  size_t min_samples = 8;    // observations before estimates are trusted

  void Validate() const {
    SCEC_CHECK_GT(ewma_alpha, 0.0);
    SCEC_CHECK_LE(ewma_alpha, 1.0);
    SCEC_CHECK_GE(window, 1u);
    SCEC_CHECK_GE(min_samples, 1u);
  }
};

class LatencyEstimator {
 public:
  explicit LatencyEstimator(LatencyEstimatorOptions options = {});

  // Records one observed response duration (seconds, >= 0).
  void Observe(double seconds);

  // Forgets every observation and returns to cold start. For callers whose
  // window is KNOWN stale — e.g. the serving tier after a brownout breaker
  // closes: the canaries just proved service is healthy again, and waiting
  // for post-recovery traffic to slide a window full of brownout-era
  // samples out would keep deadline forecasts inflated long after the
  // incident (a metastable failure mode).
  void Reset();

  size_t count() const { return count_; }

  // True once min_samples observations have been recorded; until then
  // callers must use their configured fallback deadline.
  bool HasEstimate() const { return count_ >= options_.min_samples; }

  // Exponentially weighted moving average of every observation so far.
  // Requires count() > 0.
  double Ewma() const;

  // Quantile (q in [0, 1]) over the retained window with the same
  // linear-interpolation convention as SampleStat::Percentile. While the
  // stream is shorter than the window this is the exact sample quantile.
  // Requires count() > 0.
  double Quantile(double q) const;

 private:
  LatencyEstimatorOptions options_;
  std::vector<double> window_;  // ring buffer of the newest samples
  size_t next_ = 0;             // ring write position
  size_t count_ = 0;            // total observations (not capped)
  double ewma_ = 0.0;
  mutable std::vector<double> scratch_;  // sorted copy for Quantile()
};

}  // namespace scec::sim
