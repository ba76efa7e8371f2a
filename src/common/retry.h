// SPDX-License-Identifier: MIT
//
// Reusable retry policy: bounded attempts with exponential backoff. Used by
// the protocol driver (net/driver.h) to pace query re-dispatches to silent
// devices, and by the RPC channel's reconnects; independent of any clock.

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/check.h"
#include "common/rng.h"

namespace scec {

struct RetryPolicy {
  // Total dispatch attempts (first try included). 1 = never retry.
  size_t max_attempts = 3;
  double initial_backoff_s = 0.02;  // delay before the first retry
  double backoff_factor = 2.0;      // multiplier per subsequent retry
  double max_backoff_s = 1.0;       // backoff ceiling

  void Validate() const {
    SCEC_CHECK_GE(max_attempts, 1u);
    SCEC_CHECK_GE(initial_backoff_s, 0.0);
    SCEC_CHECK_GE(backoff_factor, 1.0);
    SCEC_CHECK_GE(max_backoff_s, initial_backoff_s);
  }

  // Delay before retry number `retry_index` (0-based: 0 = first retry).
  double BackoffFor(size_t retry_index) const {
    double delay = initial_backoff_s;
    for (size_t i = 0; i < retry_index; ++i) {
      delay *= backoff_factor;
      if (delay >= max_backoff_s) return max_backoff_s;
    }
    return delay < max_backoff_s ? delay : max_backoff_s;
  }

  // Sum of every backoff delay the policy can spend (for deadline budgeting).
  double TotalBackoff() const {
    double total = 0.0;
    for (size_t i = 0; i + 1 < max_attempts; ++i) total += BackoffFor(i);
    return total;
  }
};

// Deterministic multiplicative jitter on retry delays:
// delay *= 1 + U(-jitter, +jitter), drawn from a dedicated PRNG seeded with
// `seed`, so reruns of the same seed replay the exact schedule while distinct
// seeds decorrelate retry storms. One policy is shared by every retry
// scheduler — the protocol driver's RPC retries and the socket transport's
// reconnect backoff — so sim and wall-clock schedules jitter identically.
class BackoffJitter {
 public:
  BackoffJitter(double jitter, uint64_t seed) : jitter_(jitter), rng_(seed) {
    SCEC_CHECK_GE(jitter, 0.0);
    SCEC_CHECK_LT(jitter, 1.0);
  }

  double jitter() const { return jitter_; }

  // Jittered delay. Consumes a PRNG draw ONLY when jitter > 0, so a zero
  // jitter reproduces pre-jitter schedules bit-for-bit (and leaves sibling
  // RNG streams untouched).
  double Apply(double delay) {
    if (jitter_ == 0.0) return delay;
    return delay * (1.0 + jitter_ * (2.0 * rng_.NextDouble() - 1.0));
  }

 private:
  double jitter_;
  Xoshiro256StarStar rng_;
};

}  // namespace scec
