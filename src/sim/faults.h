// SPDX-License-Identifier: MIT
//
// Device fault injection for the SCEC simulator. The paper assumes every
// edge device is honest and "responds in a timely manner" (§II-A); this
// module scripts the ways a real device breaks that contract:
//
//   kCrash      — fail-stop at time t: the device stops receiving queries
//                 and never sends a response again (including responses whose
//                 compute was in flight when it died).
//   kOmission   — the device accepts work (the compute is performed and
//                 billed) but silently never responds.
//   kCorruption — Byzantine response corruption: an element of B_j·T·x is
//                 perturbed before transmission, while the event's
//                 [start, end) window is open. Per-device element/delta so
//                 tests can script *disagreeing* corruptions across replicas.
//                 Adversary-model knobs: `probability` fires the corruption
//                 intermittently (seeded, deterministic), `relative` scales
//                 the delta with the element's magnitude (minimal-magnitude
//                 attacks on doubles), `equivocate` changes the lie on every
//                 firing (different answers across retries/replicas).
//   kTransient  — the device is unreachable during [start, end): queries
//                 arriving in the window are lost, but a retry after the
//                 window succeeds.
//
// A FaultSchedule scripts devices by transport device id (fleet index).
// net::DeviceCore, the one device implementation, consults it: on
// simulated time in net::SimTransport (SimTransportOptions::faults), and
// on wall seconds in each scecd daemon, which holds a copy of its own
// events (net::ScecdOptions::faults). The intermittent-lying coin is keyed
// on (seed, device, draw), so a device draws the same coins on either.
// Injection counters are mutable: they are simulator-side bookkeeping that
// tests use to assert a scripted fault actually fired.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"

namespace scec::sim {

enum class FaultKind {
  kCrash,
  kOmission,
  kCorruption,
  kTransient,
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  double start_s = 0.0;  // when the fault becomes active (sim time)
  // When it stops: kTransient and kCorruption only.
  double end_s = std::numeric_limits<double>::infinity();
  // kCorruption knobs: which response element is perturbed and by how much.
  size_t element = 0;
  double delta = 1.0;
  // Byzantine adversary models (kCorruption only; see header comment).
  double probability = 1.0;  // per-response chance the lie fires
  bool relative = false;     // delta scales with max(1, |element value|)
  bool equivocate = false;   // lie differs on every firing
};

// How many injections of each kind actually fired during a run.
struct FaultInjectionStats {
  size_t crash_drops = 0;      // queries/responses swallowed by a crash
  size_t omission_drops = 0;   // responses computed but never sent
  size_t corruptions = 0;      // responses perturbed before sending
  size_t corruption_skips = 0; // intermittent lies whose coin spared a response
  size_t transient_drops = 0;  // queries lost while the device was offline

  size_t Total() const {
    return crash_drops + omission_drops + corruptions + transient_drops;
  }
};

class FaultSchedule {
 public:
  // Scripting API. `device` is the transport device id.
  void AddCrash(size_t device, double at_s);
  void AddOmission(size_t device, double from_s = 0.0);
  void AddCorruption(size_t device, double from_s = 0.0, size_t element = 0,
                     double delta = 1.0);
  void AddTransient(size_t device, double from_s, double until_s);
  void Add(size_t device, FaultEvent event);

  // Seed for the intermittent-lying coin (probability < 1 corruption
  // events). Deterministic per (seed, device, draw index).
  static constexpr uint64_t kDefaultSeed = 0x5EEDC0DEull;
  void SetSeed(uint64_t seed) { seed_ = seed; }
  uint64_t seed() const { return seed_; }

  // The events scripted for `device`, in the order they were added.
  std::span<const FaultEvent> EventsFor(size_t device) const;

  // Queried at query-arrival time: false when the device is crashed or
  // transiently offline (the query is never received).
  bool AcceptsQueryAt(size_t device, double when) const;

  // Queried at response-send time: false when the device crashed mid-compute
  // or has an active omission fault (silence).
  bool SendsResponseAt(size_t device, double when) const;

  // Applies any active corruption to `response`; returns true if perturbed.
  bool MaybeCorrupt(size_t device, double when,
                    std::vector<double>& response) const;

  const FaultInjectionStats& stats() const { return stats_; }

 private:
  // events_[device] = scripted faults for that device.
  std::vector<std::vector<FaultEvent>> events_;
  uint64_t seed_ = kDefaultSeed;
  // Injection bookkeeping, not simulation state (see header comment):
  // per-device coin-draw counters and per-event firing counters (the latter
  // drive equivocation — each firing lies differently).
  mutable FaultInjectionStats stats_;
  mutable std::vector<uint64_t> draw_counts_;
  mutable std::vector<std::vector<uint64_t>> fire_counts_;
};

}  // namespace scec::sim
