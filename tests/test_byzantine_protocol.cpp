// SPDX-License-Identifier: MIT
//
// Byzantine-tolerant overdecoding end to end: guard provisioning
// (core/byzantine.h), single-round masking through the error-locating
// decoder, reputation-driven quarantine + canary readmission, and honest
// Eq. (1) billing of the surplus rows.

#include <gtest/gtest.h>

#include "core/byzantine.h"
#include "linalg/matrix_ops.h"
#include "sim/faults.h"
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

struct Rig {
  McscecProblem problem;
  Matrix<double> a;
  std::vector<double> x;
  std::vector<double> expected;
  Deployment<double> deployment;

  Rig(size_t m, size_t l, size_t k, uint64_t seed)
      : problem(MakeProblem(m, l, k, seed)) {
    Xoshiro256StarStar drng(seed + 1);
    a = RandomMatrix<double>(problem.m, problem.l, drng);
    x = RandomVector<double>(problem.l, drng);
    expected = MatVec(a, std::span<const double>(x));
    ChaCha20Rng coding_rng(seed + 2);
    auto deployed = Deploy(problem, a, coding_rng);
    SCEC_CHECK(deployed.ok()) << deployed.status();
    deployment = *std::move(deployed);
  }

  size_t spares() const {
    return problem.fleet.size() - deployment.plan.participating.size();
  }
};

void ExpectDecodes(const Rig& rig, const Result<std::vector<double>>& result) {
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                       std::span<const double>(rig.expected)),
            1e-9);
}

// --- Guard provisioning --------------------------------------------------

TEST(ByzantineGuards, EffectiveToleranceIsCappedBySparePairs) {
  Rig rig(10, 5, 10, 80);
  ASSERT_GE(rig.spares(), 2u) << "scenario needs at least one spare pair";
  net::NetCoordinatorOptions ft = recovery::SimDriverOptions();
  ft.byzantine_tolerance = 50;  // far beyond what the fleet can host
  const auto session = DeploymentSession<double>::Adopt(rig.deployment);
  net::SimTransport transport(rig.problem.fleet.devices(), {});
  net::NetCoordinator driver(session, rig.a, rig.problem.fleet, ft);
  EXPECT_EQ(driver.byzantine_tolerance_effective(), 0u) << "before Setup()";
  ASSERT_TRUE(driver.Setup(&transport).ok());
  EXPECT_EQ(driver.byzantine_tolerance_effective(), rig.spares() / 2);
  const net::NetCoordinatorStats& rec = driver.stats();
  EXPECT_EQ(rec.byzantine_guard_segments, rig.spares() / 2);
  EXPECT_EQ(rec.byzantine_guard_rows, 2 * rig.problem.m * (rig.spares() / 2));
  EXPECT_GT(rec.byzantine_guard_cost, 0.0);
  EXPECT_EQ(driver.num_segments(), 1u + rig.spares() / 2);
  // Surplus staging must never weaken Def. 2 ITS.
  EXPECT_TRUE(driver.VerifyCumulativeSecurity().all_secure)
      << driver.VerifyCumulativeSecurity().Summary();
  ExpectDecodes(rig, driver.Query(rig.x));
}

TEST(ByzantineGuards, GuardBillingMatchesThePlannersEq1Cost) {
  // The runtime stages guards over the same cheapest-spares-first selection
  // the planner uses, so its `byzantine_guard_cost` metric must equal the
  // plan's guard_cost — the surplus is billed honestly, not absorbed.
  Rig rig(10, 5, 12, 81);
  constexpr size_t kTolerance = 2;
  ASSERT_GE(rig.spares(), 2 * kTolerance);
  const auto plan = PlanByzantineMcscec(rig.problem, kTolerance);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->tolerance, kTolerance);
  EXPECT_EQ(plan->guard_pairs.size(), kTolerance);
  EXPECT_EQ(plan->surplus_rows, 2 * kTolerance * rig.problem.m);
  EXPECT_NEAR(plan->total_cost,
              plan->base.allocation.total_cost + plan->guard_cost, 1e-9);

  net::NetCoordinatorOptions ft = recovery::SimDriverOptions();
  ft.byzantine_tolerance = kTolerance;
  SimDriver run(rig.deployment, rig.a, rig.problem.fleet, {}, ft);
  ASSERT_EQ(run.driver.byzantine_tolerance_effective(), kTolerance);
  EXPECT_NEAR(run.driver.stats().byzantine_guard_cost,
              plan->guard_cost, 1e-9);
  EXPECT_EQ(run.driver.stats().byzantine_guard_rows,
            plan->surplus_rows);
}

TEST(ByzantineGuards, PlannerIsInfeasibleWithoutSparePairs) {
  // k = 2 uses the whole fleet: no spares, so t = 1 cannot be planned.
  const McscecProblem problem = MakeProblem(6, 3, 2, 82);
  const auto plan = PlanByzantineMcscec(problem, 1);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), ErrorCode::kInfeasible);
}

// --- Single-round masking ------------------------------------------------

TEST(ByzantineMasking, LiarIsMaskedInTheSameRoundAndQuarantined) {
  Rig rig(12, 5, 12, 83);
  ASSERT_GE(rig.spares(), 2u);
  FaultSchedule faults;
  const size_t liar = rig.deployment.plan.participating[1];
  faults.AddCorruption(liar, /*from_s=*/0.0, /*element=*/0, /*delta=*/1.0);
  net::SimTransportOptions options;
  options.faults = &faults;
  net::NetCoordinatorOptions ft = recovery::SimDriverOptions();
  ft.byzantine_tolerance = 1;
  SimDriver run(rig.deployment, rig.a, rig.problem.fleet, options, ft);
  ASSERT_GE(run.driver.byzantine_tolerance_effective(), 1u);
  ExpectDecodes(rig, run.driver.Query(rig.x));

  const net::NetCoordinatorStats& rec = run.driver.stats();
  EXPECT_EQ(rec.recovery_rounds, 0u) << "masked, not evict-and-replan";
  EXPECT_EQ(rec.byzantine_masked_queries, 1u);
  EXPECT_GE(rec.byzantine_flagged, 1u);
  EXPECT_EQ(rec.evictions_corrupt, 0u)
      << "quarantine replaces eviction under masking";
  EXPECT_EQ(run.driver.num_evicted(), 0u);
  EXPECT_EQ(rec.devices_quarantined, 1u);
  EXPECT_EQ(run.driver.reputation().standing(liar),
            DeviceStanding::kQuarantined);
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure)
      << run.driver.VerifyCumulativeSecurity().Summary();
}

TEST(ByzantineMasking, TwoCoordinatedLiarsMaskedWithToleranceTwo) {
  Rig rig(10, 5, 14, 84);
  ASSERT_GE(rig.spares(), 4u);
  FaultSchedule faults;
  const size_t liar0 = rig.deployment.plan.participating[0];
  const size_t liar1 = rig.deployment.plan.participating[2];
  faults.AddCorruption(liar0, 0.0, 0, 2.0);
  faults.AddCorruption(liar1, 0.0, 0, 2.0);
  net::SimTransportOptions options;
  options.faults = &faults;
  net::NetCoordinatorOptions ft = recovery::SimDriverOptions();
  ft.byzantine_tolerance = 2;
  SimDriver run(rig.deployment, rig.a, rig.problem.fleet, options, ft);
  ASSERT_EQ(run.driver.byzantine_tolerance_effective(), 2u);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  const net::NetCoordinatorStats& rec = run.driver.stats();
  EXPECT_EQ(rec.recovery_rounds, 0u);
  EXPECT_EQ(rec.byzantine_masked_queries, 1u);
  EXPECT_EQ(rec.devices_quarantined, 2u);
  EXPECT_EQ(run.driver.reputation().standing(liar0),
            DeviceStanding::kQuarantined);
  EXPECT_EQ(run.driver.reputation().standing(liar1),
            DeviceStanding::kQuarantined);
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure);
}

TEST(ByzantineMasking, RepetitionKnobStillMasksWithTwoDigests) {
  Rig rig(12, 5, 12, 85);
  ASSERT_GE(rig.spares(), 2u);
  FaultSchedule faults;
  const size_t liar = rig.deployment.plan.participating[0];
  faults.AddCorruption(liar, 0.0, 1, 0.5);
  net::SimTransportOptions options;
  options.faults = &faults;
  net::NetCoordinatorOptions ft = recovery::SimDriverOptions();
  ft.byzantine_tolerance = 1;
  ft.num_digests = 2;
  SimDriver run(rig.deployment, rig.a, rig.problem.fleet, options, ft);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  EXPECT_EQ(run.driver.stats().recovery_rounds, 0u);
  EXPECT_EQ(run.driver.stats().byzantine_masked_queries, 1u);
  EXPECT_EQ(run.driver.reputation().standing(liar),
            DeviceStanding::kQuarantined);
}

// --- Quarantine + canaries ----------------------------------------------

TEST(ByzantineReputation, QuarantinedLiarIsSkippedOnLaterQueries) {
  Rig rig(12, 5, 12, 86);
  ASSERT_GE(rig.spares(), 2u);
  FaultSchedule faults;
  const size_t liar = rig.deployment.plan.participating[1];
  faults.AddCorruption(liar, 0.0, 0, 1.0);
  net::SimTransportOptions options;
  options.faults = &faults;
  net::NetCoordinatorOptions ft = recovery::SimDriverOptions();
  ft.byzantine_tolerance = 1;
  SimDriver run(rig.deployment, rig.a, rig.problem.fleet, options, ft);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  const uint64_t corrupt_after_first =
      run.driver.stats().byzantine_flagged;
  EXPECT_GE(corrupt_after_first, 1u);

  // The liar is quarantined: later queries never dispatch to it, so the
  // only corruption it can still emit is a (discarded) canary failure.
  Xoshiro256StarStar drng(87);
  const auto x2 = RandomVector<double>(rig.problem.l, drng);
  const auto expected2 = MatVec(rig.a, std::span<const double>(x2));
  const auto result2 = run.driver.Query(x2);
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*result2),
                       std::span<const double>(expected2)),
            1e-9);
  const net::NetCoordinatorStats& rec = run.driver.stats();
  EXPECT_EQ(rec.byzantine_flagged, corrupt_after_first)
      << "no decode-path dispatch reaches a quarantined device";
  EXPECT_EQ(rec.recovery_rounds, 0u);
  EXPECT_GE(rec.canaries_sent, 1u) << "the liar is probed, not forgotten";
  EXPECT_GE(rec.canaries_failed, 1u) << "it still lies, so it stays out";
  EXPECT_EQ(rec.devices_readmitted, 0u);
  EXPECT_EQ(run.driver.reputation().standing(liar),
            DeviceStanding::kQuarantined);
}

TEST(ByzantineReputation, TransientLiarWinsReadmissionThroughCanaries) {
  Rig rig(12, 5, 12, 88);
  ASSERT_GE(rig.spares(), 2u);
  net::NetCoordinatorOptions ft = recovery::SimDriverOptions();
  ft.byzantine_tolerance = 1;
  ft.reputation.canary_interval = 1;
  ft.reputation.canary_passes_to_readmit = 2;
  // The model of a since-patched device: it lies through the first query,
  // then behaves. Simulated time is deterministic, so a fault-free run of
  // the same rig says when the first query ends: there the lying window
  // closes.
  double first_query_end_s = 0.0;
  {
    SimDriver honest(rig.deployment, rig.a, rig.problem.fleet, {}, ft);
    ExpectDecodes(rig, honest.driver.Query(rig.x));
    first_query_end_s = honest.transport.Now();
  }
  const size_t liar = rig.deployment.plan.participating[1];
  FaultSchedule faults;
  faults.Add(liar, FaultEvent{.kind = FaultKind::kCorruption,
                              .end_s = first_query_end_s,
                              .delta = 3.0});
  net::SimTransportOptions options;
  options.faults = &faults;
  SimDriver run(rig.deployment, rig.a, rig.problem.fleet, options, ft);

  Xoshiro256StarStar drng(89);
  ExpectDecodes(rig, run.driver.Query(rig.x));  // lies once -> quarantined
  EXPECT_EQ(run.driver.reputation().standing(liar),
            DeviceStanding::kQuarantined);
  for (size_t q = 0; q < 3; ++q) {
    const auto xq = RandomVector<double>(rig.problem.l, drng);
    const auto expected = MatVec(rig.a, std::span<const double>(xq));
    const auto result = run.driver.Query(xq);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                         std::span<const double>(expected)),
              1e-9);
  }
  const net::NetCoordinatorStats& rec = run.driver.stats();
  EXPECT_GE(rec.canaries_sent, 2u);
  EXPECT_GE(rec.canaries_passed, 2u);
  EXPECT_EQ(rec.canaries_failed, 0u);
  EXPECT_EQ(rec.devices_readmitted, 1u);
  EXPECT_EQ(run.driver.reputation().standing(liar), DeviceStanding::kActive)
      << "two clean canaries buy the device back in";
  EXPECT_EQ(rec.recovery_rounds, 0u);
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure);
  EXPECT_EQ(faults.stats().corruptions, 1u) << "one lie, then honest";
}

}  // namespace
}  // namespace scec::sim
