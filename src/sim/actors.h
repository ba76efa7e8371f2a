// SPDX-License-Identifier: MIT
//
// Actors of the SCEC protocol (§II-D framework): a cloud that stages coded
// shares, edge devices that multiply their share by incoming queries, and a
// user that broadcasts queries and decodes responses. Actors communicate
// only through the Network (wired together by ScecProtocol in protocol.h),
// so the simulation reproduces the message pattern of a real deployment.

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "allocation/device.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/straggler.h"

namespace scec::sim {

class FaultSchedule;

// Fixed node ids: cloud = 0, user = 1, device d = kFirstDeviceNode + d.
inline constexpr NodeId kCloudNode = 0;
inline constexpr NodeId kUserNode = 1;
inline constexpr NodeId kFirstDeviceNode = 2;

inline NodeId DeviceNode(size_t device_index) {
  return kFirstDeviceNode + static_cast<NodeId>(device_index);
}

// A configurable Byzantine device model: which element of the response is
// corrupted, by how much, how often, and for how many responses. The legacy
// `byzantine_nodes` knob is the degenerate spec {element 0, magnitude 1,
// probability 1, unlimited}.
struct ByzantineSpec {
  size_t device = 0;        // actor index (EdgeDeviceActor::index())
  size_t element = 0;       // corrupted response element (mod length)
  double magnitude = 1.0;   // added to the element
  double probability = 1.0; // per-response chance of lying (seeded coin)
  size_t max_lies = std::numeric_limits<size_t>::max();  // then turns honest
};

struct SimOptions {
  double value_bytes = 8.0;      // wire size of one scalar
  StragglerModel straggler;      // applied to device compute times
  uint64_t straggler_seed = 7;   // RNG seed for straggler draws
  // Fault injection: node indices (EdgeDeviceActor::index()) that return
  // corrupted results. The paper's attack model is passive; this knob exists
  // to exercise the Byzantine-DETECTION extension in the redundant protocol.
  std::vector<size_t> byzantine_nodes;
  // Configurable Byzantine models (element / magnitude / probability /
  // lie budget per device); composes with byzantine_nodes and scripted
  // kCorruption faults. Coins are deterministic per (seed, device, draw).
  std::vector<ByzantineSpec> byzantine;
  uint64_t byzantine_seed = 11;
  // Scripted per-device faults (crash / omission / corruption / transient),
  // consulted by every EdgeDeviceActor; see sim/faults.h. Faults act on the
  // query path (arrival + response), not on staging. Not owned.
  const FaultSchedule* faults = nullptr;
};

// Applies every spec of `device` in `specs` whose lie budget and seeded
// coin (`seed`) allow to one of its responses. `draws` and `lies` are the
// device's coin-draw count and per-spec lie counts, carried across
// responses.
void ApplyByzantine(const std::vector<ByzantineSpec>& specs, uint64_t seed,
                    size_t device, uint64_t* draws, std::vector<size_t>* lies,
                    std::vector<double>* response);

// An edge device actor: stores its coded share, answers queries.
class EdgeDeviceActor {
 public:
  // `respond` delivers (device index, response) to the user — it is invoked
  // at network-delivery time, not at compute-completion time.
  using ResponseSink =
      std::function<void(size_t device, std::vector<double> response)>;

  EdgeDeviceActor(size_t index, const EdgeDevice& spec, EventQueue* queue,
                  Network* network, const SimOptions* options,
                  Xoshiro256StarStar* straggler_rng, ResponseSink respond);

  // Called (via the network) when the staged share arrives.
  void OnShareDelivered(Matrix<double> share);

  // Called when a query vector arrives; computes share·x over the device's
  // compute rate (inflated by the straggler model) and ships V_j values to
  // the user. A device is single-core: back-to-back queries queue behind
  // the one in progress (busy_until_), and responses leave in arrival order
  // — so a pipelined user can match the q-th response from this device to
  // its q-th query.
  void OnQueryDelivered(std::vector<double> x);

  bool HasShare() const { return has_share_; }
  size_t index() const { return index_; }

 private:
  size_t index_;
  EdgeDevice spec_;
  EventQueue* queue_;
  Network* network_;
  const SimOptions* options_;
  Xoshiro256StarStar* straggler_rng_;
  ResponseSink respond_;
  Matrix<double> share_;
  bool has_share_ = false;
  SimTime busy_until_ = 0.0;  // compute queue tail
  // ByzantineSpec bookkeeping: coin draws and lies told, per spec index.
  uint64_t byzantine_draws_ = 0;
  std::vector<size_t> byzantine_lies_;
};

}  // namespace scec::sim
