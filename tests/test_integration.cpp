// SPDX-License-Identifier: MIT
//
// Cross-module integration tests: the full MCSCEC framework — plan, encode,
// verify ITS, serve a query through the protocol driver over the simulated
// fleet, mount attacks, and reconcile the transport's op ledger with the
// analytic cost model the optimiser used.

#include <gtest/gtest.h>

#include "core/scec.h"
#include "op_ledger_cost.h"
#include "recovery/coordinator.h"
#include "security/collusion_attack.h"
#include "security/eavesdropper.h"
#include "workload/distributions.h"
#include "workload/experiment.h"

namespace scec {
namespace {

McscecProblem MakeFleetProblem(size_t m, size_t l, size_t k, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  McscecProblem problem;
  problem.m = m;
  problem.l = l;
  for (size_t j = 0; j < k; ++j) {
    EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.storage = rng.NextDouble(0.001, 0.01);
    device.costs.add = rng.NextDouble(0.0001, 0.001);
    device.costs.mul = device.costs.add + rng.NextDouble(0.0, 0.002);
    device.costs.comm = rng.NextDouble(0.5, 4.0);
    device.compute_rate_flops = rng.NextDouble(1e8, 2e9);
    device.uplink_bps = rng.NextDouble(5e6, 1e8);
    device.downlink_bps = rng.NextDouble(5e6, 1e8);
    device.link_latency_s = rng.NextDouble(1e-4, 1e-2);
    problem.fleet.Add(device);
  }
  return problem;
}

TEST(Integration, PlanEncodeSimulateAttackPipeline) {
  const McscecProblem problem = MakeFleetProblem(40, 10, 12, 1);
  ChaCha20Rng coding_rng(100);
  Xoshiro256StarStar drng(101);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);

  // 1. Deploy (plans with TA1/TA2, verifies ITS internally).
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok()) << deployment.status();

  // 2. The driver decodes correctly over the simulated fleet.
  const auto x = RandomVector<double>(problem.l, drng);
  recovery::SimDriver run(*deployment, a, problem.fleet);
  const auto decoded = run.driver.Query(x);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto expected = MatVec(a, std::span<const double>(x));
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*decoded),
                       std::span<const double>(expected)),
            1e-9);

  // 3. The rows staged on each device match the optimiser's plan.
  const auto& ops = run.transport.stats().device_ops;
  for (size_t d = 0; d < deployment->plan.participating.size(); ++d) {
    EXPECT_EQ(ops[deployment->plan.participating[d]].staged_values,
              deployment->plan.scheme.row_counts[d] * problem.l);
  }

  // 4. Every device fails the strongest linear attack.
  for (size_t d = 0; d < deployment->plan.scheme.num_devices(); ++d) {
    const auto block =
        deployment->code.DenseBlock<Gf61>(deployment->plan.scheme, d);
    EXPECT_FALSE(DeviceCanRecoverData(block, problem.m));
  }
}

TEST(Integration, SimulatorAccountingReproducesPlannedCost) {
  // Rebuild Eq. (1) from the transport's op ledger using each device's
  // resource prices; one query's bill must equal the planner's objective
  // value plus the fixed Σ l·c^s term.
  const McscecProblem problem = MakeFleetProblem(30, 8, 10, 2);
  ChaCha20Rng coding_rng(200);
  Xoshiro256StarStar drng(201);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  recovery::SimDriver run(*deployment, a, problem.fleet);
  ASSERT_TRUE(run.driver.Query(x).ok());

  // Planner's view.
  const auto plan = PlanMcscec(problem);
  ASSERT_TRUE(plan.ok());

  const double rebuilt =
      OpLedgerCost(run.transport.stats(), problem.fleet, problem.l);
  EXPECT_NEAR(rebuilt, PlannedBill(*plan, problem.fleet, problem.l),
              1e-9 * (1.0 + rebuilt));
}

TEST(Integration, FieldPipelineSupportsInputPrivacyEndToEnd) {
  const McscecProblem problem = MakeFleetProblem(20, 6, 8, 3);
  ChaCha20Rng rng(300);
  const auto a = RandomMatrix<Gf61>(problem.m, problem.l, rng);
  const auto deployment = Deploy(problem, a, rng);
  ASSERT_TRUE(deployment.ok());

  EncodedDeployment<Gf61> enc;
  enc.shares = deployment->shares;
  const InputPad<Gf61> pad = PrepareInputPad(enc, problem.l, rng);

  const auto x = RandomVector<Gf61>(problem.l, rng);
  const auto masked = MaskInput(x, pad);
  std::vector<std::vector<Gf61>> responses;
  for (const auto& share : deployment->shares) {
    responses.push_back(
        MatVec(share.coded_rows, std::span<const Gf61>(masked)));
  }
  const auto unmasked = UnmaskResponses(responses, pad);
  const auto y = ConcatenateResponses(deployment->plan.scheme, unmasked);
  const auto decoded =
      SubtractionDecode(deployment->code, std::span<const Gf61>(y));
  EXPECT_EQ(decoded, MatVec(a, std::span<const Gf61>(x)));
}

TEST(Integration, CollusionExtensionGuardsWhereStructuredCodeFails) {
  // Same data, two codings: the structured code breaks under a pair attack;
  // the t = 2 randomized code resists all pairs.
  const size_t m = 6, l = 3;
  ChaCha20Rng rng(400);
  const auto a = RandomMatrix<Gf61>(m, l, rng);

  // Structured code, canonical scheme, r = 3.
  const StructuredCode code(m, 3);
  LcecScheme scheme;
  scheme.m = m;
  scheme.r = 3;
  scheme.row_counts = {3, 3, 3};
  std::vector<Matrix<Gf61>> blocks;
  for (size_t d = 0; d < 3; ++d) {
    blocks.push_back(code.DenseBlock<Gf61>(scheme, d));
  }
  EXPECT_EQ(FindSmallestBreakingCoalition(blocks, m, 2).size(), 2u);

  // t = 2 collusion code with r = 6.
  CollusionCodeParams params;
  params.m = m;
  params.t = 2;
  params.r = 6;
  const auto counts = PlanCollusionRowCounts(m, 6, 2, 8);
  ASSERT_TRUE(counts.ok());
  const auto collusion_code = BuildCollusionCode(params, *counts, rng);
  ASSERT_TRUE(collusion_code.ok());
  std::vector<Matrix<Gf61>> strong_blocks;
  for (size_t d = 0; d < collusion_code->scheme.num_devices(); ++d) {
    strong_blocks.push_back(collusion_code->b.RowSlice(
        collusion_code->scheme.BlockStart(d),
        collusion_code->scheme.row_counts[d]));
  }
  EXPECT_TRUE(FindSmallestBreakingCoalition(strong_blocks, m, 2).empty());
}

TEST(Integration, ExperimentHarnessAgreesWithDirectPlanning) {
  // The Fig. 2 harness and the core planner must compute identical MCSCEC
  // costs for identical cost vectors.
  Xoshiro256StarStar rng(500);
  const auto costs =
      SampleSortedCosts(CostDistribution::Uniform(5.0), 15, rng);
  ExperimentInstance instance;
  instance.m = 777;
  instance.sorted_costs = costs;
  Xoshiro256StarStar eval_rng(501);
  const auto series = EvaluateInstance(instance, eval_rng);

  const McscecProblem problem = MakeAbstractProblem(777, 4, costs);
  const auto plan = PlanMcscec(problem);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(series[static_cast<size_t>(Series::kMcscec)],
              plan->allocation.total_cost, 1e-9);
  EXPECT_NEAR(series[static_cast<size_t>(Series::kLowerBound)],
              plan->lower_bound, 1e-9);
}

}  // namespace
}  // namespace scec
