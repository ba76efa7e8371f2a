// SPDX-License-Identifier: MIT
//
// Fleets, problems and seeded input matrices shared by the workloads.

#include "common/rng.h"
#include "field/field_traits.h"
#include "workload/device_profiles.h"
#include "workloads.h"

namespace perfbench {

scec::DeviceFleet LoopbackFleet(size_t devices) {
  std::vector<scec::EdgeDevice> specs;
  for (size_t d = 0; d < devices; ++d) {
    scec::EdgeDevice device;
    device.name = "edge-" + std::to_string(d);
    device.costs.comm = 1.0 + 0.1 * static_cast<double>(d % 7);
    device.compute_rate_flops = 1e9;
    device.uplink_bps = 1e8;
    device.downlink_bps = 1e8;
    device.link_latency_s = 1e-3;
    specs.push_back(device);
  }
  return scec::DeviceFleet(std::move(specs));
}

scec::DeviceFleet DurableFleet() {
  scec::Xoshiro256StarStar rng(kDurableFleetSeed);
  return scec::MakeCampusFleet(kDurableFleetSize, rng);
}

scec::McscecProblem MakeProblem(size_t m, size_t l, scec::DeviceFleet fleet) {
  scec::McscecProblem problem;
  problem.m = m;
  problem.l = l;
  problem.fleet = std::move(fleet);
  problem.Validate();
  return problem;
}

scec::Matrix<double> RandomDoubleMatrix(size_t rows, size_t cols,
                                        uint64_t seed) {
  scec::Matrix<double> a(rows, cols);
  scec::Xoshiro256StarStar rng(seed);
  for (double& value : a.Data()) value = 2.0 * rng.NextDouble() - 1.0;
  return a;
}

scec::Matrix<scec::Gf61> RandomGf61Matrix(size_t rows, size_t cols,
                                          uint64_t seed) {
  scec::Matrix<scec::Gf61> a(rows, cols);
  scec::Xoshiro256StarStar rng(seed);
  for (scec::Gf61& value : a.Data()) {
    value = scec::FieldTraits<scec::Gf61>::Random(rng);
  }
  return a;
}

}  // namespace perfbench
