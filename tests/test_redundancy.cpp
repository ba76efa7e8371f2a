// SPDX-License-Identifier: MIT

#include "core/redundancy.h"

#include <gtest/gtest.h>

#include <set>

#include "linalg/matrix_ops.h"
#include "net/sim_transport.h"
#include "sim/faults.h"
#include "sim/redundant_protocol.h"
#include "workload/distributions.h"

namespace scec {
namespace {

McscecProblem MakeProblem(size_t m, size_t l, size_t k, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  McscecProblem problem;
  problem.m = m;
  problem.l = l;
  for (size_t j = 0; j < k; ++j) {
    EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.compute_rate_flops = rng.NextDouble(1e8, 1e9);
    device.uplink_bps = 5e7;
    device.downlink_bps = 5e7;
    device.link_latency_s = 1e-3;
    problem.fleet.Add(device);
  }
  return problem;
}

TEST(RedundantPlan, ZeroReplicationEqualsBasePlan) {
  const auto problem = MakeProblem(20, 4, 10, 1);
  const auto base = PlanMcscec(problem);
  const auto redundant = PlanRedundantMcscec(problem, 0);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(redundant.ok());
  EXPECT_DOUBLE_EQ(redundant->total_cost, base->allocation.total_cost);
  for (const auto& group : redundant->replica_groups) {
    EXPECT_EQ(group.size(), 1u);
  }
}

TEST(RedundantPlan, ReplicaGroupsAreDisjointAcrossAllDevices) {
  const auto problem = MakeProblem(30, 4, 20, 2);
  const auto plan = PlanRedundantMcscec(problem, 2);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::set<size_t> seen;
  for (const auto& group : plan->replica_groups) {
    EXPECT_EQ(group.size(), 3u);  // primary + 2 replicas
    for (size_t fleet_idx : group) {
      EXPECT_TRUE(seen.insert(fleet_idx).second)
          << "device " << fleet_idx << " serves two blocks";
    }
  }
}

TEST(RedundantPlan, CostAccountsEveryReplica) {
  const auto problem = MakeProblem(24, 4, 16, 3);
  const auto base = PlanMcscec(problem);
  const auto plan = PlanRedundantMcscec(problem, 1);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(plan.ok());
  // One replica round at least doubles... no: replicas sit on MORE expensive
  // devices, so cost > 2x base is possible; >= 2x base is guaranteed since
  // every replica's unit cost >= its primary's.
  EXPECT_GE(plan->total_cost, 2.0 * base->allocation.total_cost - 1e-9);
}

TEST(RedundantPlan, InfeasibleWhenFleetTooSmall) {
  const auto problem = MakeProblem(30, 4, 5, 4);
  const auto base = PlanMcscec(problem);
  ASSERT_TRUE(base.ok());
  const size_t blocks = base->scheme.num_devices();
  // Ask for enough replicas that blocks * (g+1) > k.
  const size_t g = 5 / blocks + 1;
  const auto plan = PlanRedundantMcscec(problem, g);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), ErrorCode::kInfeasible);
}

TEST(RedundantPlan, LargestBlocksGetCheapestReplicas) {
  // Fleet with strictly increasing costs so the assignment is predictable.
  McscecProblem problem;
  problem.m = 9;
  problem.l = 2;
  for (size_t j = 0; j < 12; ++j) {
    EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = 1.0 + static_cast<double>(j);
    problem.fleet.Add(device);
  }
  const auto plan = PlanRedundantMcscec(problem, 1);
  ASSERT_TRUE(plan.ok());
  const auto& scheme = plan->base.scheme;
  // Find a pair of blocks with different sizes (canonical shape has a
  // smaller last block unless r | m).
  for (size_t a = 0; a < scheme.num_devices(); ++a) {
    for (size_t b = 0; b < scheme.num_devices(); ++b) {
      if (scheme.row_counts[a] > scheme.row_counts[b]) {
        // Bigger block's replica must sit on a cheaper (or equal) device.
        const double cost_a =
            problem.FleetUnitCosts()[plan->replica_groups[a][1]];
        const double cost_b =
            problem.FleetUnitCosts()[plan->replica_groups[b][1]];
        EXPECT_LE(cost_a, cost_b);
      }
    }
  }
}

TEST(RedundantProtocol, DecodesWithAndWithoutStragglers) {
  const auto problem = MakeProblem(18, 6, 14, 5);
  ChaCha20Rng coding_rng(50);
  Xoshiro256StarStar drng(51);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  const auto plan = PlanRedundantMcscec(problem, 1);
  ASSERT_TRUE(plan.ok()) << plan.status();

  const auto x = RandomVector<double>(problem.l, drng);
  const auto expected = MatVec(a, std::span<const double>(x));

  for (const bool stragglers : {false, true}) {
    net::SimTransportOptions options;
    if (stragglers) {
      options.straggler.kind = sim::StragglerKind::kExponentialSlowdown;
      options.straggler.rate = 1.0;
    }
    net::SimTransport transport(problem.fleet.devices(), options);
    sim::RedundantScecProtocol protocol(&*deployment, &*plan, &transport);
    ASSERT_TRUE(protocol.Stage().ok());
    const auto decoded = protocol.RunQuery(x);
    EXPECT_LT(MaxAbsDiff(std::span<const double>(decoded),
                         std::span<const double>(expected)),
              1e-9)
        << "stragglers=" << stragglers;
    EXPECT_LE(protocol.metrics().query_completion_time,
              protocol.metrics().primary_only_completion_time + 1e-12);
  }
}

TEST(RedundantProtocol, VerifiedQueryDetectsAndCorrectsByzantineReplica) {
  const auto problem = MakeProblem(12, 4, 12, 7);
  ChaCha20Rng coding_rng(70);
  Xoshiro256StarStar drng(71);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  const auto plan = PlanRedundantMcscec(problem, 2);  // 3 replicas per block
  ASSERT_TRUE(plan.ok());

  const auto x = RandomVector<double>(problem.l, drng);
  const auto expected = MatVec(a, std::span<const double>(x));

  // Corrupt block 0's first replica (element 0, +1, every answer).
  net::SimTransportOptions options;
  options.byzantine = {{.device = plan->replica_groups[0][1]}};
  net::SimTransport transport(problem.fleet.devices(), options);
  sim::RedundantScecProtocol protocol(&*deployment, &*plan, &transport);
  ASSERT_TRUE(protocol.Stage().ok());
  const auto decoded = protocol.RunVerifiedQuery(x);
  EXPECT_LT(MaxAbsDiff(std::span<const double>(decoded),
                       std::span<const double>(expected)),
            1e-9)
      << "majority of 3 outvotes one liar";
  EXPECT_EQ(protocol.metrics().blocks_with_disagreement, 1u);
  EXPECT_EQ(protocol.metrics().blocks_unresolved, 0u);
  EXPECT_GE(protocol.metrics().verified_completion_time,
            protocol.metrics().query_completion_time - 1e-12)
      << "voting waits for the full fan-in";
}

TEST(RedundantProtocol, VerifiedQueryFlagsUnresolvableTie) {
  const auto problem = MakeProblem(10, 3, 10, 8);
  ChaCha20Rng coding_rng(80);
  Xoshiro256StarStar drng(81);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  const auto plan = PlanRedundantMcscec(problem, 1);  // only 2 replicas
  ASSERT_TRUE(plan.ok());

  const auto x = RandomVector<double>(problem.l, drng);
  net::SimTransportOptions options;
  // The primary of block 0 lies: 1-vs-1 tie.
  options.byzantine = {{.device = plan->replica_groups[0][0]}};
  net::SimTransport transport(problem.fleet.devices(), options);
  sim::RedundantScecProtocol protocol(&*deployment, &*plan, &transport);
  ASSERT_TRUE(protocol.Stage().ok());
  (void)protocol.RunVerifiedQuery(x);
  EXPECT_EQ(protocol.metrics().blocks_with_disagreement, 1u);
  EXPECT_EQ(protocol.metrics().blocks_unresolved, 1u)
      << "g = 1 detects but cannot arbitrate";
}

TEST(RedundantProtocol, VerifiedQueryFlagsThreeWayDisagreement) {
  // Two Byzantine replicas with DISTINCT corruptions (scripted via the fault
  // schedule, which supports per-device deltas — one ByzantineSpec on each
  // would apply the same +1.0 and fake an agreeing pair): all three replicas
  // of block 0 return different vectors, so no strict majority exists and
  // the block must be flagged unresolved.
  const auto problem = MakeProblem(12, 4, 18, 8);
  ChaCha20Rng coding_rng(85);
  Xoshiro256StarStar drng(86);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  const auto plan = PlanRedundantMcscec(problem, 2);  // 3 replicas per block
  ASSERT_TRUE(plan.ok());

  const auto x = RandomVector<double>(problem.l, drng);
  sim::FaultSchedule faults;
  // Block 0's two replicas.
  faults.AddCorruption(/*device=*/plan->replica_groups[0][1], /*from_s=*/0.0,
                       /*element=*/0, /*delta=*/1.0);
  faults.AddCorruption(/*device=*/plan->replica_groups[0][2], /*from_s=*/0.0,
                       /*element=*/0, /*delta=*/2.0);
  net::SimTransportOptions options;
  options.faults = &faults;
  net::SimTransport transport(problem.fleet.devices(), options);
  sim::RedundantScecProtocol protocol(&*deployment, &*plan, &transport);
  ASSERT_TRUE(protocol.Stage().ok());
  (void)protocol.RunVerifiedQuery(x);
  EXPECT_EQ(faults.stats().corruptions, 2u) << "both corruptions must fire";
  EXPECT_GE(protocol.metrics().blocks_with_disagreement, 1u);
  EXPECT_GE(protocol.metrics().blocks_unresolved, 1u)
      << "1-1-1 split has no strict majority; the result is untrustworthy";
}

TEST(RedundantProtocol, VerifiedQueryCleanFleetHasNoFindings) {
  const auto problem = MakeProblem(10, 3, 10, 9);
  ChaCha20Rng coding_rng(90);
  Xoshiro256StarStar drng(91);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  const auto plan = PlanRedundantMcscec(problem, 1);
  ASSERT_TRUE(plan.ok());
  const auto x = RandomVector<double>(problem.l, drng);
  net::SimTransport transport(problem.fleet.devices(), {});
  sim::RedundantScecProtocol protocol(&*deployment, &*plan, &transport);
  ASSERT_TRUE(protocol.Stage().ok());
  const auto decoded = protocol.RunVerifiedQuery(x);
  const auto expected = MatVec(a, std::span<const double>(x));
  EXPECT_LT(MaxAbsDiff(std::span<const double>(decoded),
                       std::span<const double>(expected)),
            1e-9);
  EXPECT_EQ(protocol.metrics().blocks_with_disagreement, 0u);
  EXPECT_EQ(protocol.metrics().blocks_unresolved, 0u);
}

TEST(RedundantProtocol, ReplicasMaskStragglersOnAverage) {
  const auto problem = MakeProblem(18, 6, 14, 6);
  ChaCha20Rng coding_rng(60);
  Xoshiro256StarStar drng(61);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  const auto plan = PlanRedundantMcscec(problem, 2);
  ASSERT_TRUE(plan.ok());

  const auto x = RandomVector<double>(problem.l, drng);
  net::SimTransportOptions options;
  options.straggler.kind = sim::StragglerKind::kExponentialSlowdown;
  options.straggler.rate = 0.5;  // heavy tail

  net::SimTransport transport(problem.fleet.devices(), options);
  sim::RedundantScecProtocol protocol(&*deployment, &*plan, &transport);
  ASSERT_TRUE(protocol.Stage().ok());
  double sum_first = 0.0, sum_primary = 0.0;
  size_t rescued = 0;
  for (int round = 0; round < 20; ++round) {
    (void)protocol.RunQuery(x);
    sum_first += protocol.metrics().query_completion_time;
    sum_primary += protocol.metrics().primary_only_completion_time;
    rescued += protocol.metrics().blocks_won_by_replica;
  }
  EXPECT_LT(sum_first, sum_primary)
      << "first-response decoding must beat waiting for primaries";
  EXPECT_GT(rescued, 0u) << "with heavy stragglers some replica must win";
}

}  // namespace
}  // namespace scec
