// SPDX-License-Identifier: MIT
//
// Secure edge inference — the scenario from the paper's introduction: a
// pre-trained linear model (here a 10-class linear classifier over 784
// features, MNIST-shaped) is confidential; inference y = W·x must run on
// untrusted edge devices without revealing W to any of them.
//
// The example builds a synthetic classifier, deploys it with MCSCEC onto a
// heterogeneous simulated fleet, classifies a batch of inputs through the
// protocol driver over the discrete-event simulator, and reports
// accuracy-parity with local inference plus per-query latency and the
// fleet's Eq. (1) op ledger.
//
// Run:  ./build/examples/secure_inference [--classes N] [--features N]

#include <algorithm>
#include <iostream>

#include "common/cli.h"
#include "common/stats.h"
#include "core/scec.h"
#include "linalg/matrix_ops.h"
#include "recovery/coordinator.h"

namespace {

size_t ArgMax(std::span<const double> scores) {
  return static_cast<size_t>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
}

}  // namespace

int main(int argc, char** argv) {
  int64_t classes = 10;
  int64_t features = 784;
  int64_t devices = 12;
  int64_t queries = 25;
  scec::CliParser cli("secure_inference",
                      "confidential linear-model inference at the edge");
  cli.AddInt("classes", &classes, "number of output classes (rows of W)");
  cli.AddInt("features", &features, "input dimension (columns of W)");
  cli.AddInt("devices", &devices, "edge devices in the fleet");
  cli.AddInt("queries", &queries, "inference requests to simulate");
  if (!cli.Parse(argc, argv)) return 1;

  // Synthetic "pre-trained" model: class c prefers features ≡ c (mod
  // classes); inputs are noisy one-class bundles so classification is
  // nontrivial but learnable by construction.
  scec::Xoshiro256StarStar rng(42);
  scec::Matrix<double> w(static_cast<size_t>(classes),
                         static_cast<size_t>(features));
  for (size_t c = 0; c < w.rows(); ++c) {
    for (size_t f = 0; f < w.cols(); ++f) {
      const double affinity = (f % w.rows() == c) ? 1.0 : -0.1;
      w(c, f) = affinity + 0.05 * rng.NextGaussian();
    }
  }

  // Heterogeneous fleet: phones, SBCs, and a couple of beefy gateways.
  scec::McscecProblem problem;
  problem.m = w.rows();
  problem.l = w.cols();
  for (int64_t j = 0; j < devices; ++j) {
    scec::EdgeDevice device;
    device.name = (j % 3 == 0 ? "gateway-" : j % 3 == 1 ? "phone-" : "sbc-") +
                  std::to_string(j);
    device.costs.storage = rng.NextDouble(0.002, 0.02);
    device.costs.add = rng.NextDouble(0.0001, 0.0005);
    device.costs.mul = device.costs.add * rng.NextDouble(1.0, 3.0);
    device.costs.comm = rng.NextDouble(0.5, 5.0);
    device.compute_rate_flops = rng.NextDouble(5e7, 2e9);
    device.uplink_bps = rng.NextDouble(1e7, 2e8);
    device.downlink_bps = rng.NextDouble(1e7, 2e8);
    device.link_latency_s = rng.NextDouble(5e-4, 1e-2);
    problem.fleet.Add(device);
  }

  scec::ChaCha20Rng coding_rng(2019);
  const auto deployment = scec::Deploy(problem, w, coding_rng);
  if (!deployment.ok()) {
    std::cerr << deployment.status() << "\n";
    return 1;
  }
  std::cout << "Deployed " << classes << "x" << features
            << " model over " << deployment->plan.scheme.num_devices()
            << " devices (r = " << deployment->plan.allocation.r
            << " pad rows, cost " << deployment->plan.allocation.total_cost
            << ", LB gap " << deployment->plan.OptimalityGap() * 100
            << "%).\nNo single device can reconstruct any row of W (ITS"
            << " verified over GF(2^61-1)).\n\n";

  // Shares are staged once; every inference is one driver query.
  scec::recovery::SimDriver run(*deployment, w, problem.fleet);

  scec::RunningStat latency_ms;
  size_t agreement = 0;
  for (int64_t q = 0; q < queries; ++q) {
    // A noisy sample of a random true class.
    const size_t true_class = rng.NextUint64(0, w.rows() - 1);
    std::vector<double> x(w.cols());
    for (size_t f = 0; f < x.size(); ++f) {
      const double signal = (f % w.rows() == true_class) ? 1.0 : 0.0;
      x[f] = signal + 0.3 * rng.NextGaussian();
    }

    const auto scores = run.driver.Query(x);
    if (!scores.ok()) {
      std::cerr << scores.status() << "\n";
      return 1;
    }
    latency_ms.Add(run.driver.stats().last_query_s * 1e3);
    const size_t secure_pred = ArgMax(*scores);
    const auto local = scec::MatVec(w, std::span<const double>(x));
    if (secure_pred == ArgMax(local)) ++agreement;
  }

  std::cout << "Ran " << queries << " secure inferences:\n"
            << "  prediction parity with local inference: " << agreement
            << "/" << queries << "\n"
            << "  simulated query latency: mean " << latency_ms.mean()
            << " ms, min " << latency_ms.min() << " ms, max "
            << latency_ms.max() << " ms\n";
  scec::net::DeviceOps total;
  for (const scec::net::DeviceOps& ops : run.transport.stats().device_ops) {
    total.staged_values += ops.staged_values;
    total.mults += ops.mults;
    total.adds += ops.adds;
    total.values_returned += ops.values_returned;
  }
  std::cout << "  Eq. (1) op ledger over the fleet: " << total.staged_values
            << " values staged, " << total.mults << " mults, " << total.adds
            << " adds, " << total.values_returned << " values returned\n";
  return agreement == static_cast<size_t>(queries) ? 0 : 1;
}
