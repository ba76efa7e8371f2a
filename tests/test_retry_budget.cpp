// SPDX-License-Identifier: MIT
//
// Retry-budget tests: the token arithmetic (deposit cap, epsilon at the
// fractional-fill boundary), and the driver integration — a dry budget
// converts timeout retries into fail-fast evictions (recovery still
// decodes) and suppresses hedges, with the suppressions surfaced in the
// driver's ledger.

#include "common/retry_budget.h"

#include <gtest/gtest.h>

#include "linalg/matrix_ops.h"
#include "sim/faults.h"
#include "recovery/coordinator.h"
#include "workload/distributions.h"

namespace scec {
namespace {

using recovery::SimDriver;

TEST(RetryBudget, StartsAtInitialAndCapsAtCapacity) {
  RetryBudgetOptions options;
  options.capacity = 3.0;
  options.fill_per_fresh = 0.5;
  options.initial = 1.0;
  RetryBudget budget(options);
  EXPECT_DOUBLE_EQ(budget.tokens(), 1.0);

  for (int i = 0; i < 100; ++i) budget.OnFreshDispatch();
  EXPECT_DOUBLE_EQ(budget.tokens(), 3.0) << "deposits cap at capacity";
  EXPECT_EQ(budget.fresh_dispatches(), 100u);
}

TEST(RetryBudget, SpendsUntilDryThenSuppresses) {
  RetryBudgetOptions options;
  options.capacity = 2.0;
  options.fill_per_fresh = 0.0;
  options.initial = 2.0;
  RetryBudget budget(options);
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_FALSE(budget.TrySpend());
  EXPECT_FALSE(budget.TrySpend());
  EXPECT_EQ(budget.spends(), 2u);
  EXPECT_EQ(budget.suppressed(), 2u);
  EXPECT_DOUBLE_EQ(budget.tokens(), 0.0);
}

TEST(RetryBudget, FractionalFillsCoverAWholeRetryExactly) {
  // 10 deposits of 0.1 must buy exactly one unit retry: the epsilon in
  // TrySpend absorbs the float error of 0.1 summed ten times.
  RetryBudgetOptions options;
  options.capacity = 20.0;
  options.fill_per_fresh = 0.1;
  options.initial = 0.0;
  RetryBudget budget(options);
  EXPECT_FALSE(budget.TrySpend());
  for (int i = 0; i < 10; ++i) budget.OnFreshDispatch();
  EXPECT_TRUE(budget.TrySpend());
  EXPECT_FALSE(budget.TrySpend());
}

TEST(RetryBudget, SteadyStateSpendIsBoundedByFillRate) {
  // However the caller interleaves, total successful spends can never
  // exceed initial + fill_per_fresh x fresh dispatches.
  RetryBudgetOptions options;
  options.capacity = 50.0;
  options.fill_per_fresh = 0.25;
  options.initial = 2.0;
  RetryBudget budget(options);
  uint64_t granted = 0;
  for (int i = 0; i < 400; ++i) {
    budget.OnFreshDispatch();
    if (i % 2 == 0 && budget.TrySpend()) ++granted;
  }
  EXPECT_EQ(granted, budget.spends());
  EXPECT_LE(static_cast<double>(granted),
            options.initial +
                options.fill_per_fresh *
                    static_cast<double>(budget.fresh_dispatches()) + 1e-9);
}

// --- Driver integration -----------------------------------------------

struct Rig {
  McscecProblem problem;
  Matrix<double> a;
  std::vector<double> x;
  std::vector<double> expected;
  Deployment<double> deployment;

  Rig(size_t m, size_t l, size_t k, uint64_t seed) {
    Xoshiro256StarStar rng(seed);
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
    Xoshiro256StarStar drng(seed + 1);
    a = RandomMatrix<double>(m, l, drng);
    x = RandomVector<double>(l, drng);
    expected = MatVec(a, std::span<const double>(x));
    ChaCha20Rng coding_rng(seed + 2);
    auto deployed = Deploy(problem, a, coding_rng);
    SCEC_CHECK(deployed.ok()) << deployed.status();
    deployment = *std::move(deployed);
  }
};

TEST(RetryBudgetProtocol, DryBudgetFailsFastAndRecoveryStillDecodes) {
  // An omission fault would normally burn max_attempts=3 retries before
  // eviction. With a zero budget the FIRST timeout fails fast: no retries
  // sent, >= 1 suppressed, and the recovery re-plan still answers exactly.
  Rig rig(16, 5, 8, 71);
  sim::FaultSchedule faults;
  const size_t victim = rig.deployment.plan.participating.back();
  faults.AddOmission(victim);
  net::SimTransportOptions options;
  options.faults = &faults;

  RetryBudgetOptions budget_options;
  budget_options.capacity = 1.0;
  budget_options.fill_per_fresh = 0.0;
  budget_options.initial = 0.0;
  RetryBudget budget(budget_options);
  net::NetCoordinatorOptions ft = recovery::SimDriverOptions();
  ft.retry_budget = &budget;

  SimDriver run(rig.deployment, rig.a, rig.problem.fleet, options, ft);
  const auto result = run.driver.Query(rig.x);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                       std::span<const double>(rig.expected)),
            1e-9);

  const net::NetCoordinatorStats& rec = run.driver.stats();
  EXPECT_EQ(rec.retries, 0u) << "a dry budget must veto every retry";
  EXPECT_GE(rec.retries_suppressed, 1u);
  EXPECT_EQ(rec.evictions, 1u);
  EXPECT_GE(rec.recovery_rounds, 1u);
  EXPECT_EQ(budget.suppressed(), rec.retries_suppressed);
  EXPECT_GT(budget.fresh_dispatches(), 0u)
      << "first-attempt dispatches must deposit into the budget";
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure);
}

TEST(RetryBudgetProtocol, AmpleBudgetReproducesTheUnbudgetedSchedule) {
  // With plenty of tokens the budget must be invisible: identical retry
  // counts and identical completion time as the no-budget run.
  Rig rig_off(16, 5, 8, 72);
  Rig rig_on(16, 5, 8, 72);
  auto run = [](Rig& rig, RetryBudget* budget) {
    sim::FaultSchedule faults;
    faults.AddOmission(rig.deployment.plan.participating.front());
    net::SimTransportOptions options;
    options.faults = &faults;
    net::NetCoordinatorOptions ft = recovery::SimDriverOptions();
    ft.retry_budget = budget;
    SimDriver sim(rig.deployment, rig.a, rig.problem.fleet, options, ft);
    auto result = sim.driver.Query(rig.x);
    SCEC_CHECK(result.ok());
    return sim.driver.stats();
  };

  RetryBudget ample;  // defaults: initial 10, far above max_attempts
  const auto off = run(rig_off, nullptr);
  const auto on = run(rig_on, &ample);
  EXPECT_EQ(on.retries, off.retries);
  EXPECT_GT(on.retries, 0u);
  EXPECT_EQ(on.retries_suppressed, 0u);
  EXPECT_DOUBLE_EQ(on.last_query_s, off.last_query_s);
}

}  // namespace
}  // namespace scec
