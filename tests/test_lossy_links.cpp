// SPDX-License-Identifier: MIT
//
// SCEC over lossy links: the protocol driver (net/driver.h) over a
// SimTransport that drops query-path messages. A lost query or response
// surfaces as the RPC's deadline firing; the driver retries it on its
// RetryPolicy schedule. Loss must never corrupt a decode: it costs time,
// plus the work of each re-dispatched query.

#include <gtest/gtest.h>

#include <vector>

#include "linalg/matrix_ops.h"
#include "net/driver.h"
#include "recovery/coordinator.h"
#include "workload/distributions.h"

namespace scec::sim {
namespace {

using recovery::SimDriver;

McscecProblem MakeProblem(size_t m, size_t l, size_t k, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  McscecProblem problem;
  problem.m = m;
  problem.l = l;
  for (size_t j = 0; j < k; ++j) {
    EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.compute_rate_flops = 1e9;
    device.uplink_bps = 1e8;
    device.downlink_bps = 1e8;
    device.link_latency_s = 1e-3;
    problem.fleet.Add(device);
  }
  return problem;
}

struct LossyRun {
  Matrix<double> a;
  std::vector<double> x;
  Deployment<double> deployment;
};

LossyRun MakeRun(const McscecProblem& problem, uint64_t data_seed,
                 uint64_t coding_seed) {
  LossyRun run;
  Xoshiro256StarStar drng(data_seed);
  run.a = RandomMatrix<double>(problem.m, problem.l, drng);
  run.x = RandomVector<double>(problem.l, drng);
  ChaCha20Rng coding_rng(coding_seed);
  auto deployment = Deploy(problem, run.a, coding_rng);
  SCEC_CHECK(deployment.ok()) << deployment.status();
  run.deployment = *std::move(deployment);
  return run;
}

// Driver options for loss rate p: every RPC gets enough attempts that a
// query-and-response round trip, which survives with probability (1-p)^2,
// practically never exhausts them.
net::NetCoordinatorOptions LossTolerant() {
  net::NetCoordinatorOptions options = recovery::SimDriverOptions();
  options.retry.max_attempts = 40;
  return options;
}

TEST(LossyLinks, DriverDecodesExactlyOverLossyLinks) {
  const McscecProblem problem = MakeProblem(16, 5, 8, 10);
  const LossyRun run = MakeRun(problem, 101, 100);
  net::SimTransportOptions lossy;
  lossy.loss_probability = 0.3;
  SimDriver driver(run.deployment, run.a, problem.fleet, lossy,
                   LossTolerant());
  const auto result = driver.driver.Query(run.x);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = MatVec(run.a, std::span<const double>(run.x));
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                       std::span<const double>(expected)),
            1e-9)
      << "loss delays but never corrupts the decode";
  EXPECT_EQ(driver.driver.stats().evictions, 0u);
  EXPECT_EQ(net::ReconcileLedgers(driver.driver.stats(),
                                  driver.transport.stats(), problem.l),
            "");
}

TEST(LossyLinks, LossOnlyCostsTime) {
  const McscecProblem problem = MakeProblem(16, 5, 8, 11);
  const LossyRun run = MakeRun(problem, 111, 200);
  SimDriver clean(run.deployment, run.a, problem.fleet, {}, LossTolerant());
  const auto clean_result = clean.driver.Query(run.x);
  ASSERT_TRUE(clean_result.ok()) << clean_result.status();

  net::SimTransportOptions lossy;
  lossy.loss_probability = 0.5;
  SimDriver slow(run.deployment, run.a, problem.fleet, lossy,
                 LossTolerant());
  const auto slow_result = slow.driver.Query(run.x);
  ASSERT_TRUE(slow_result.ok()) << slow_result.status();

  EXPECT_EQ(*slow_result, *clean_result) << "same pads, same decode";
  const net::NetCoordinatorStats& stats = slow.driver.stats();
  EXPECT_GT(stats.last_query_s, clean.driver.stats().last_query_s);
  // Every lost message became a timeout and a retry, never an eviction or
  // a re-plan.
  EXPECT_GT(stats.timeouts, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.evictions + stats.recovery_rounds, 0u);
  EXPECT_EQ(stats.staged_value_bytes, clean.driver.stats().staged_value_bytes)
      << "staging is reliable";
  EXPECT_EQ(net::ReconcileLedgers(stats, slow.transport.stats(), problem.l),
            "");
}

}  // namespace
}  // namespace scec::sim
