// SPDX-License-Identifier: MIT

#include "sim/faults.h"

#include <cmath>

#include "common/rng.h"

namespace scec::sim {
namespace {

// Deterministic uniform in [0, 1) from (seed, device, draw index) — no
// shared stream, so adding events for one device never shifts another's.
double HashedCoin(uint64_t seed, size_t device, uint64_t draw) {
  SplitMix64 mix(seed ^ (static_cast<uint64_t>(device) *
                         0x9E3779B97F4A7C15ull) ^
                 (draw * 0xBF58476D1CE4E5B9ull));
  return static_cast<double>(mix.Next() >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kOmission: return "omission";
    case FaultKind::kCorruption: return "corruption";
    case FaultKind::kTransient: return "transient";
  }
  return "unknown";
}

void ApplyByzantine(const std::vector<ByzantineSpec>& specs, uint64_t seed,
                    size_t device, uint64_t* draws, std::vector<size_t>* lies,
                    std::vector<double>* response) {
  if (response->empty()) return;
  lies->resize(specs.size(), 0);
  for (size_t s = 0; s < specs.size(); ++s) {
    const ByzantineSpec& spec = specs[s];
    if (spec.device != device || (*lies)[s] >= spec.max_lies) continue;
    if (spec.probability < 1.0 &&
        HashedCoin(seed, device, ++*draws) >= spec.probability) {
      continue;
    }
    (*response)[spec.element % response->size()] += spec.magnitude;
    ++(*lies)[s];
  }
}

void FaultSchedule::Add(size_t device, FaultEvent event) {
  SCEC_CHECK_GE(event.start_s, 0.0);
  SCEC_CHECK_GE(event.end_s, event.start_s);
  SCEC_CHECK(event.probability > 0.0 && event.probability <= 1.0);
  if (device >= events_.size()) {
    events_.resize(device + 1);
    draw_counts_.resize(device + 1, 0);
    fire_counts_.resize(device + 1);
  }
  events_[device].push_back(event);
  fire_counts_[device].push_back(0);
}

void FaultSchedule::AddCrash(size_t device, double at_s) {
  Add(device, FaultEvent{FaultKind::kCrash, at_s,
                         std::numeric_limits<double>::infinity(), 0, 0.0});
}

void FaultSchedule::AddOmission(size_t device, double from_s) {
  Add(device, FaultEvent{FaultKind::kOmission, from_s,
                         std::numeric_limits<double>::infinity(), 0, 0.0});
}

void FaultSchedule::AddCorruption(size_t device, double from_s, size_t element,
                                  double delta) {
  SCEC_CHECK(delta != 0.0) << "a zero-delta corruption is a no-op";
  Add(device, FaultEvent{FaultKind::kCorruption, from_s,
                         std::numeric_limits<double>::infinity(), element,
                         delta});
}

void FaultSchedule::AddTransient(size_t device, double from_s,
                                 double until_s) {
  SCEC_CHECK_GT(until_s, from_s) << "transient window must be non-empty";
  Add(device, FaultEvent{FaultKind::kTransient, from_s, until_s, 0, 0.0});
}

const std::vector<FaultEvent>* FaultSchedule::EventsFor(size_t device) const {
  if (device >= events_.size()) return nullptr;
  return &events_[device];
}

bool FaultSchedule::AcceptsQueryAt(size_t device, double when) const {
  const auto* events = EventsFor(device);
  if (events == nullptr) return true;
  for (const FaultEvent& event : *events) {
    if (event.kind == FaultKind::kCrash && when >= event.start_s) {
      ++stats_.crash_drops;
      return false;
    }
    if (event.kind == FaultKind::kTransient && when >= event.start_s &&
        when < event.end_s) {
      ++stats_.transient_drops;
      return false;
    }
  }
  return true;
}

bool FaultSchedule::SendsResponseAt(size_t device, double when) const {
  const auto* events = EventsFor(device);
  if (events == nullptr) return true;
  for (const FaultEvent& event : *events) {
    if (event.kind == FaultKind::kCrash && when >= event.start_s) {
      ++stats_.crash_drops;
      return false;
    }
    if (event.kind == FaultKind::kOmission && when >= event.start_s) {
      ++stats_.omission_drops;
      return false;
    }
  }
  return true;
}

bool FaultSchedule::MaybeCorrupt(size_t device, double when,
                                 std::vector<double>& response) const {
  const auto* events = EventsFor(device);
  if (events == nullptr || response.empty()) return false;
  bool corrupted = false;
  for (size_t e = 0; e < events->size(); ++e) {
    const FaultEvent& event = (*events)[e];
    if (event.kind != FaultKind::kCorruption || when < event.start_s ||
        when >= event.end_s) {
      continue;
    }
    if (event.probability < 1.0) {
      const double coin = HashedCoin(seed_, device, draw_counts_[device]++);
      if (coin >= event.probability) {
        ++stats_.corruption_skips;
        continue;
      }
    }
    const size_t idx = event.element % response.size();
    double delta = event.delta;
    if (event.relative) {
      // Minimal-magnitude attack: perturb proportionally to the honest
      // value, not by an absolute offset that dwarfs it.
      delta *= std::max(1.0, std::fabs(response[idx]));
    }
    if (event.equivocate) {
      // A fresh lie every firing: retries and replicas see different values.
      delta *= static_cast<double>(1 + fire_counts_[device][e]);
    }
    ++fire_counts_[device][e];
    response[idx] += delta;
    ++stats_.corruptions;
    corrupted = true;
  }
  return corrupted;
}

}  // namespace scec::sim
