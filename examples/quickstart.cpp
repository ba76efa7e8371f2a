// SPDX-License-Identifier: MIT
//
// Quickstart: the whole MCSCEC workflow on a small instance, end to end.
//
//   1. Describe the edge fleet (unit costs per resource).
//   2. Plan: TA1/TA2 pick r (random rows) and i (devices) optimally.
//   3. Deploy: the cloud pads A with ChaCha20 randomness and ships coded
//      rows; availability and ITS are verified exactly before shipping.
//   4. Query: the user sends x, devices each return their share times x,
//      and the user decodes A·x with m subtractions.
//
// Run:  ./build/examples/quickstart

#include <iostream>

#include "core/scec.h"
#include "linalg/matrix_ops.h"

int main() {
  // --- 1. The confidential data matrix (e.g. a trained model's weights).
  const scec::Matrix<double> a{{2, 0, 1, -1},
                               {0, 3, -2, 4},
                               {1, 1, 1, 1},
                               {5, -3, 2, 0},
                               {0, 0, 4, -2},
                               {-1, 2, 0, 3}};

  scec::McscecProblem problem;
  problem.m = a.rows();
  problem.l = a.cols();
  for (int j = 0; j < 5; ++j) {
    scec::EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.storage = 0.01;
    device.costs.add = 0.001;
    device.costs.mul = 0.002;
    device.costs.comm = 1.0 + 0.5 * j;  // device 0 is cheapest
    problem.fleet.Add(device);
  }

  // --- 2 & 3. Plan + encode + verify ITS, in one call.
  scec::ChaCha20Rng coding_rng(/*seed=*/2019);
  const auto deployment = scec::Deploy(problem, a, coding_rng);
  if (!deployment.ok()) {
    std::cerr << "deployment failed: " << deployment.status() << "\n";
    return 1;
  }
  const scec::Plan& plan = deployment->plan;
  std::cout << "Plan: r = " << plan.allocation.r
            << " random rows, i = " << plan.allocation.num_devices
            << " devices, total cost = " << plan.allocation.total_cost
            << " (lower bound " << plan.lower_bound << ", gap "
            << plan.OptimalityGap() * 100 << "%)\n";
  for (size_t d = 0; d < plan.scheme.num_devices(); ++d) {
    std::cout << "  device " << problem.fleet[plan.participating[d]].name
              << " stores " << plan.scheme.row_counts[d]
              << " coded rows\n";
  }

  // --- 4. Query.
  const std::vector<double> x = {1.0, -2.0, 0.5, 3.0};
  const std::vector<double> y = scec::Query(*deployment, x);

  const auto expected = scec::MatVec(a, std::span<const double>(x));
  std::cout << "\nA*x (decoded from coded shares) vs direct product:\n";
  bool all_match = true;
  for (size_t i = 0; i < y.size(); ++i) {
    const bool match = std::abs(y[i] - expected[i]) < 1e-9;
    all_match = all_match && match;
    std::cout << "  y[" << i << "] = " << y[i] << "   (direct " << expected[i]
              << (match ? ", match)\n" : ", MISMATCH)\n");
  }
  std::cout << (all_match ? "\nSUCCESS: decoded result equals A*x.\n"
                          : "\nFAILURE\n");
  return all_match ? 0 : 1;
}
