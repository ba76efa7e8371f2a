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
//                 perturbed before transmission. Per-device element/delta so
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
// A FaultSchedule is attached via net::SimTransportOptions::faults and
// consulted by net::SimTransport, the simulator's one device model, so the
// same injection layer drives the protocol driver (net/driver.h) and
// RedundantScecProtocol over the simulated fleet. Device indices are
// transport device ids (fleet indices).
// Injection counters are mutable: they are simulator-side bookkeeping that
// tests use to assert a scripted fault actually fired.
//
// ByzantineSpec is the seeded, per-device lying model the transport
// applies to every answer it computes, before any scripted corruption.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
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
  double end_s = std::numeric_limits<double>::infinity();  // kTransient only
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

// A configurable Byzantine device: which element of the response is
// corrupted, by how much, how often, and for how many responses.
struct ByzantineSpec {
  size_t device = 0;        // transport device id
  size_t element = 0;       // corrupted response element (mod length)
  double magnitude = 1.0;   // added to the element
  double probability = 1.0; // per-response chance of lying (seeded coin)
  size_t max_lies = std::numeric_limits<size_t>::max();  // then turns honest
};

// Applies every spec of `device` in `specs` whose lie budget and seeded
// coin (`seed`) allow to one of its responses. `draws` and `lies` are the
// device's coin-draw count and per-spec lie counts, carried across
// responses.
void ApplyByzantine(const std::vector<ByzantineSpec>& specs, uint64_t seed,
                    size_t device, uint64_t* draws, std::vector<size_t>* lies,
                    std::vector<double>* response);

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
  void SetSeed(uint64_t seed) { seed_ = seed; }

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
  const std::vector<FaultEvent>* EventsFor(size_t device) const;

  // events_[device] = scripted faults for that device.
  std::vector<std::vector<FaultEvent>> events_;
  uint64_t seed_ = 0x5EEDC0DEull;
  // Injection bookkeeping, not simulation state (see header comment):
  // per-device coin-draw counters and per-event firing counters (the latter
  // drive equivocation — each firing lies differently).
  mutable FaultInjectionStats stats_;
  mutable std::vector<uint64_t> draw_counts_;
  mutable std::vector<std::vector<uint64_t>> fire_counts_;
};

}  // namespace scec::sim
