// SPDX-License-Identifier: MIT
//
// What every seeded soak shares: the per-episode seed derivation, so
// (master seed, index) replays an episode, and the tally of a soak's
// episodes with the failing ones indexed for repro. Used by the chaos
// harness (sim/chaos.h) and the serving-tier overload soak
// (sim/overload_chaos.h).

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace scec::sim {

// Every random choice of episode `index` flows from this one derived seed.
inline uint64_t EpisodeSeed(uint64_t master, size_t index) {
  SplitMix64 mix(master ^ (0x9E3779B97F4A7C15ull * (index + 1)));
  return mix.Next();
}

template <typename Episode>
struct SoakSummary {
  size_t episodes = 0;
  size_t passed = 0;
  std::vector<Episode> detail;  // every episode, in order
  std::vector<size_t> failing;  // indices into `detail`
  bool ok() const { return failing.empty() && episodes > 0; }
};

// Runs episodes 0 .. episodes-1 through `run(index)`. Stops at nothing:
// failing episodes are collected, never skipped.
template <typename Episode, typename Run>
void TallySoak(size_t episodes, Run run, SoakSummary<Episode>* summary) {
  summary->episodes = episodes;
  summary->detail.reserve(episodes);
  for (size_t i = 0; i < episodes; ++i) {
    summary->detail.push_back(run(i));
    if (summary->detail.back().ok()) {
      ++summary->passed;
    } else {
      summary->failing.push_back(i);
    }
  }
}

}  // namespace scec::sim
