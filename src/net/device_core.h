// SPDX-License-Identifier: MIT
//
// One edge device, as both transports run it: the coded shares it holds,
// the answer B_j·T·x it computes, its Eq. (1) op ledger, and its part of a
// scripted sim::FaultSchedule. SimTransport drives one per simulated device
// on simulated time, scecd drives one on wall seconds since it started;
// links, queueing, timing and sockets stay with them. The script is
// consulted at two instants: when the query arrives (Compute: a crashed or
// offline device never receives it) and when the compute is done (Release:
// a crashed or omitting device withholds the answer, a corruption event
// lies in it). A query for a share the device does not hold, or with the
// wrong length, is refused before the script is consulted. Not thread-safe.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.h"
#include "net/transport.h"
#include "sim/faults.h"

namespace scec::net {

class DeviceCore {
 public:
  // What became of a query that reached the device.
  enum class Arrival : uint8_t {
    kComputed,      // the answer is in the caller's buffer, ops billed
    kMissed,        // crashed or offline: the device never received it
    kUnknownShare,  // refused: no share under that id
    kWrongLength,   // refused: x does not match the share's width
  };

  // `faults` (not owned; null for an honest device) scripts the faults of
  // `device`, the id the schedule knows this device by.
  DeviceCore(size_t device, const sim::FaultSchedule* faults)
      : device_(device), faults_(faults) {}

  // Storage for share `share_id`, rows × cols, for the caller to fill; a
  // restaged id replaces its share. Bills the staged values.
  std::span<double> Stage(uint64_t share_id, size_t rows, size_t cols);

  // A query reached the device at `now`: computes share · x into `*values`
  // (a reused buffer allocates nothing) and bills V·l mults, V·(l−1) adds.
  Arrival Compute(uint64_t share_id, std::span<const double> x, double now,
                  std::vector<double>* values);

  // The compute finished at `now`: false when the script withholds the
  // answer, else applies any active lie to it and bills the values sent.
  bool Release(double now, std::vector<double>* values);

  size_t shares_held() const { return shares_.size(); }
  const DeviceOps& ops() const { return ops_; }

 private:
  size_t device_;
  const sim::FaultSchedule* faults_;
  std::unordered_map<uint64_t, Matrix<double>> shares_;
  DeviceOps ops_;
};

}  // namespace scec::net
