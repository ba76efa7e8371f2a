// SPDX-License-Identifier: MIT
//
// Fault-tolerant SCEC runtime: fault injection (sim/faults.h), Freivalds
// result verification (coding/result_verify.h), and the protocol driver's
// detection, hedging and recovery (net/driver.h) over the simulated fleet.

#include <gtest/gtest.h>

#include "coding/result_verify.h"
#include "common/retry.h"
#include "linalg/matrix_ops.h"
#include "op_ledger_cost.h"
#include "recovery/coordinator.h"
#include "sim/faults.h"
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

// Compute-bound fleet: device compute dominates the round trip, so a
// multiplicative compute slowdown (the straggler models) actually moves
// response times. MakeProblem's fleet is link-dominated — stragglers there
// barely register, and hedges would never trigger.
McscecProblem MakeComputeBoundProblem(size_t m, size_t l, size_t k,
                                      uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  McscecProblem problem;
  problem.m = m;
  problem.l = l;
  for (size_t j = 0; j < k; ++j) {
    EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.compute_rate_flops = rng.NextDouble(1e6, 2e6);
    device.uplink_bps = 2e8;
    device.downlink_bps = 2e8;
    device.link_latency_s = 2e-4;
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
      : Rig(MakeProblem(m, l, k, seed), seed) {}

  Rig(McscecProblem p, uint64_t seed) : problem(std::move(p)) {
    Xoshiro256StarStar drng(seed + 1);
    a = RandomMatrix<double>(problem.m, problem.l, drng);
    x = RandomVector<double>(problem.l, drng);
    expected = MatVec(a, std::span<const double>(x));
    ChaCha20Rng coding_rng(seed + 2);
    auto deployed = Deploy(problem, a, coding_rng);
    SCEC_CHECK(deployed.ok()) << deployed.status();
    deployment = *std::move(deployed);
  }
};

void ExpectDecodes(const Rig& rig, const Result<std::vector<double>>& result) {
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                       std::span<const double>(rig.expected)),
            1e-9);
}

// --- RetryPolicy --------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyUpToCeiling) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_s = 0.01;
  policy.backoff_factor = 2.0;
  policy.max_backoff_s = 0.05;
  policy.Validate();
  EXPECT_DOUBLE_EQ(policy.BackoffFor(0), 0.01);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(1), 0.02);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(2), 0.04);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(3), 0.05) << "clamped at the ceiling";
  EXPECT_DOUBLE_EQ(policy.BackoffFor(10), 0.05);
  // 5 possible retries: 0.01 + 0.02 + 0.04 + 0.05 + 0.05.
  EXPECT_NEAR(policy.TotalBackoff(), 0.17, 1e-12);
}

TEST(RetryPolicy, SingleAttemptNeverBacksOff) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.Validate();
  EXPECT_DOUBLE_EQ(policy.TotalBackoff(), 0.0);
}

// --- FaultSchedule ------------------------------------------------------

TEST(FaultSchedule, CrashGatesQueriesAndResponsesFromStartTime) {
  FaultSchedule faults;
  faults.AddCrash(/*device=*/2, /*at_s=*/1.0);
  EXPECT_TRUE(faults.AcceptsQueryAt(2, 0.5));
  EXPECT_FALSE(faults.AcceptsQueryAt(2, 1.0));
  EXPECT_FALSE(faults.SendsResponseAt(2, 2.0));
  EXPECT_TRUE(faults.AcceptsQueryAt(0, 2.0)) << "unscripted device unaffected";
  EXPECT_EQ(faults.stats().crash_drops, 2u);
}

TEST(FaultSchedule, TransientWindowEndsAndOmissionIsQueryOnly) {
  FaultSchedule faults;
  faults.AddTransient(/*device=*/0, /*from_s=*/1.0, /*until_s=*/2.0);
  faults.AddOmission(/*device=*/1, /*from_s=*/0.0);
  EXPECT_TRUE(faults.AcceptsQueryAt(0, 0.5));
  EXPECT_FALSE(faults.AcceptsQueryAt(0, 1.5));
  EXPECT_TRUE(faults.AcceptsQueryAt(0, 2.0)) << "window is half-open";
  EXPECT_TRUE(faults.AcceptsQueryAt(1, 0.5)) << "omission accepts the work";
  EXPECT_FALSE(faults.SendsResponseAt(1, 0.5)) << "but never answers";
}

TEST(FaultSchedule, CorruptionPerturbsScriptedElementOnly) {
  FaultSchedule faults;
  faults.AddCorruption(/*device=*/0, /*from_s=*/0.0, /*element=*/1,
                       /*delta=*/0.5);
  std::vector<double> response = {1.0, 2.0, 3.0};
  EXPECT_TRUE(faults.MaybeCorrupt(0, 0.0, response));
  EXPECT_DOUBLE_EQ(response[0], 1.0);
  EXPECT_DOUBLE_EQ(response[1], 2.5);
  EXPECT_DOUBLE_EQ(response[2], 3.0);
  EXPECT_FALSE(faults.MaybeCorrupt(1, 0.0, response));
  EXPECT_EQ(faults.stats().corruptions, 1u);
}

// --- Freivalds verification --------------------------------------------

TEST(ResultVerifier, FlagsEveryElementCorruptionAndPassesHonest) {
  Rig rig(12, 5, 8, 20);
  ChaCha20Rng verifier_rng(21);
  const auto verifier =
      ResultVerifier<double>::Create(rig.deployment.shares, verifier_rng);
  const auto honest = ComputeDeviceResponses(rig.deployment, rig.x);
  for (size_t device = 0; device < honest.size(); ++device) {
    EXPECT_TRUE(verifier.Check(device, std::span<const double>(rig.x),
                               std::span<const double>(honest[device])))
        << "honest response must verify, device " << device;
    for (size_t element = 0; element < honest[device].size(); ++element) {
      auto corrupted = honest[device];
      corrupted[element] += 1e-3;
      EXPECT_FALSE(verifier.Check(device, std::span<const double>(rig.x),
                                  std::span<const double>(corrupted)))
          << "device " << device << " element " << element;
    }
  }
}

TEST(ResultVerifier, WrongLengthResponseFails) {
  Rig rig(8, 4, 6, 22);
  ChaCha20Rng verifier_rng(23);
  const auto verifier =
      ResultVerifier<double>::Create(rig.deployment.shares, verifier_rng);
  const auto honest = ComputeDeviceResponses(rig.deployment, rig.x);
  auto truncated = honest[0];
  truncated.pop_back();
  EXPECT_FALSE(verifier.Check(0, std::span<const double>(rig.x),
                              std::span<const double>(truncated)));
}

TEST(ResultVerifier, ExactFieldQueryVerifiedCatchesCorruption) {
  // Over GF(2^61−1) the check is exact with soundness 1/q per response.
  const McscecProblem problem = MakeProblem(10, 4, 8, 24);
  Xoshiro256StarStar drng(25);
  ChaCha20Rng coding_rng(26);
  const auto a = RandomMatrix<Gf61>(problem.m, problem.l, drng);
  const auto x = RandomVector<Gf61>(problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  ChaCha20Rng verifier_rng(27);
  const auto verifier =
      ResultVerifier<Gf61>::Create(deployment->shares, verifier_rng);

  auto responses = ComputeDeviceResponses(*deployment, x);
  const auto clean = QueryVerified(*deployment, verifier, x, responses);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(*clean, Query(*deployment, x));

  responses[1][0] += Gf61::One();
  const auto flagged = QueryVerified(*deployment, verifier, x, responses);
  ASSERT_FALSE(flagged.ok());
  EXPECT_EQ(flagged.status().code(), ErrorCode::kDecodeFailure);
  EXPECT_NE(flagged.status().message().find("device 1"), std::string::npos)
      << flagged.status();
}

TEST(ResultVerifier, PlainPipelineQueryVerifiedNamesOffender) {
  Rig rig(10, 4, 8, 28);
  ChaCha20Rng verifier_rng(29);
  const auto verifier =
      ResultVerifier<double>::Create(rig.deployment.shares, verifier_rng);
  auto responses = ComputeDeviceResponses(rig.deployment, rig.x);
  ExpectDecodes(rig, QueryVerified(rig.deployment, verifier, rig.x, responses));

  responses[2][0] += 0.25;
  const auto flagged =
      QueryVerified(rig.deployment, verifier, rig.x, responses);
  ASSERT_FALSE(flagged.ok());
  EXPECT_EQ(flagged.status().code(), ErrorCode::kDecodeFailure);
  EXPECT_NE(flagged.status().message().find("device 2"), std::string::npos);
}

// --- Cumulative ITS -----------------------------------------------------

TEST(CumulativeSecurity, FreshPadsSecureReusedPadsLeak) {
  // A device's cumulative view over the extended basis [A_0 A_1 | P_0 P_1]:
  // with fresh pads the two rows keep distinct pad columns and stay secure;
  // reusing P_0 lets row1 − row0 = A_1 − A_0, a nonzero data-span vector.
  const size_t m = 2;
  Matrix<Gf61> fresh(2, m + 2);
  fresh(0, 0) = Gf61::One();  // A_0 + P_0
  fresh(0, m + 0) = Gf61::One();
  fresh(1, 1) = Gf61::One();  // A_1 + P_1
  fresh(1, m + 1) = Gf61::One();
  EXPECT_TRUE(VerifyCumulativeView(fresh, m).secure());

  Matrix<Gf61> reused(2, m + 2);
  reused(0, 0) = Gf61::One();  // A_0 + P_0
  reused(0, m + 0) = Gf61::One();
  reused(1, 1) = Gf61::One();  // A_1 + P_0  (pad reuse!)
  reused(1, m + 0) = Gf61::One();
  const DeviceSecurityReport leak = VerifyCumulativeView(reused, m);
  EXPECT_FALSE(leak.secure());
  EXPECT_GE(leak.intersection_dim, 1u);
}

TEST(CumulativeSecurity, EmptyViewIsTriviallySecure) {
  EXPECT_TRUE(VerifyCumulativeView(Matrix<Gf61>(0, 5), 3).secure());
  const auto report =
      VerifyCumulativeViews({Matrix<Gf61>(0, 4), Matrix<Gf61>(0, 4)}, 2);
  EXPECT_TRUE(report.all_secure);
  EXPECT_TRUE(report.available);
}

// --- The fault-tolerant protocol driver ---------------------------------

// The driver over the simulated fleet, serving the rig's deployment.
SimDriver Serve(const Rig& rig, net::SimTransportOptions options = {},
                net::NetCoordinatorOptions driver =
                    recovery::SimDriverOptions()) {
  return SimDriver(rig.deployment, rig.a, rig.problem.fleet,
                   std::move(options), std::move(driver));
}

TEST(FaultTolerantProtocol, FaultFreeRunDecodesWithoutRecovery) {
  Rig rig(16, 5, 8, 30);
  SimDriver run(rig.deployment, rig.a, rig.problem.fleet);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  const net::NetCoordinatorStats& stats = run.driver.stats();
  EXPECT_EQ(stats.recovery_rounds, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.byzantine_flagged, 0u);
  EXPECT_EQ(run.driver.num_evicted(), 0u);
  EXPECT_EQ(run.driver.num_segments(), 1u);
  EXPECT_DOUBLE_EQ(stats.last_query_s, stats.first_round_s)
      << "no recovery latency without faults";
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure);
}

TEST(FaultTolerantProtocol, RecoversFromCrashFault) {
  Rig rig(16, 5, 8, 31);
  FaultSchedule faults;
  // Crash the physical device serving scheme block 1 before any query.
  const size_t victim = rig.deployment.plan.participating[1];
  faults.AddCrash(victim, 0.0);
  net::SimTransportOptions options;
  options.faults = &faults;
  SimDriver run = Serve(rig, options);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  const net::NetCoordinatorStats& stats = run.driver.stats();
  EXPECT_EQ(run.driver.num_evicted(), 1u);
  EXPECT_TRUE(run.driver.evicted(victim));
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.evictions_corrupt, 0u);
  EXPECT_GE(stats.recovery_rounds, 1u);
  EXPECT_GE(stats.replanned_rows, 1u);
  EXPECT_EQ(run.driver.num_segments(), 1u + stats.recovery_rounds);
  EXPECT_GT(stats.last_query_s, stats.first_round_s);
  EXPECT_GT(faults.stats().crash_drops, 0u);
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure)
      << run.driver.VerifyCumulativeSecurity().Summary();
}

TEST(FaultTolerantProtocol, RecoversFromOmissionFault) {
  Rig rig(16, 5, 8, 32);
  FaultSchedule faults;
  const size_t victim = rig.deployment.plan.participating.back();
  faults.AddOmission(victim);
  net::SimTransportOptions options;
  options.faults = &faults;
  SimDriver run = Serve(rig, options);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  EXPECT_EQ(run.driver.num_evicted(), 1u);
  EXPECT_EQ(run.driver.stats().evictions, 1u);
  EXPECT_EQ(run.driver.stats().evictions_corrupt, 0u);
  EXPECT_GE(run.driver.stats().recovery_rounds, 1u);
  // The silent device accepted and computed every retried query.
  EXPECT_GT(faults.stats().omission_drops, 0u);
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure);
}

TEST(FaultTolerantProtocol, EvictsCorruptDeviceOnFirstBadDigest) {
  Rig rig(16, 5, 8, 33);
  FaultSchedule faults;
  const size_t victim = rig.deployment.plan.participating[2];
  faults.AddCorruption(victim, /*from_s=*/0.0, /*element=*/0, /*delta=*/1.0);
  net::SimTransportOptions options;
  options.faults = &faults;
  SimDriver run = Serve(rig, options);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  const net::NetCoordinatorStats& stats = run.driver.stats();
  EXPECT_EQ(run.driver.num_evicted(), 1u);
  EXPECT_GE(stats.byzantine_flagged, 1u);
  EXPECT_EQ(stats.evictions_corrupt, 1u);
  EXPECT_EQ(stats.evictions, stats.evictions_corrupt)
      << "corruption is detected by the digest, not by a timeout";
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_GE(stats.recovery_rounds, 1u);
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure);
}

TEST(FaultTolerantProtocol, TransientOutageIsRecoveredByRetryNotEviction) {
  Rig rig(16, 5, 8, 34);
  FaultSchedule faults;
  net::SimTransportOptions options;
  options.faults = &faults;
  net::NetCoordinatorOptions driver = recovery::SimDriverOptions();
  driver.retry.max_attempts = 6;
  driver.retry.initial_backoff_s = 0.06;
  SimDriver run = Serve(rig, options, driver);
  // Offline from before the query until shortly after it is dispatched; the
  // backoff carries the retry past the window.
  const size_t victim = rig.deployment.plan.participating[1];
  faults.AddTransient(victim, 0.0, run.transport.Now() + 0.05);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  const net::NetCoordinatorStats& stats = run.driver.stats();
  EXPECT_EQ(run.driver.num_evicted(), 0u);
  EXPECT_EQ(stats.recovery_rounds, 0u);
  EXPECT_GE(stats.retries, 1u);
  // Every slot answered, the victim's through a retry.
  EXPECT_EQ(stats.responses_used, rig.deployment.plan.participating.size());
  EXPECT_GT(faults.stats().transient_drops, 0u);
}

TEST(FaultTolerantProtocol, KeepsServingQueriesAfterEviction) {
  Rig rig(16, 5, 8, 35);
  FaultSchedule faults;
  const size_t victim = rig.deployment.plan.participating[0];
  faults.AddCrash(victim, 0.0);
  net::SimTransportOptions options;
  options.faults = &faults;
  SimDriver run = Serve(rig, options);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  const uint64_t rounds_after_first = run.driver.stats().recovery_rounds;
  EXPECT_GE(rounds_after_first, 1u);

  // The next query must use the recovery segment for the lost rows without
  // re-planning again (the evicted device is simply skipped).
  Xoshiro256StarStar drng(36);
  const auto x2 = RandomVector<double>(rig.problem.l, drng);
  const auto expected2 = MatVec(rig.a, std::span<const double>(x2));
  const auto result2 = run.driver.Query(x2);
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*result2),
                       std::span<const double>(expected2)),
            1e-9);
  EXPECT_EQ(run.driver.stats().recovery_rounds, rounds_after_first)
      << "no new re-plan needed on the second query";
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure);
}

TEST(FaultTolerantProtocol, MultipleSimultaneousFaultsStillDecode) {
  Rig rig(20, 5, 10, 37);
  FaultSchedule faults;
  faults.AddCrash(rig.deployment.plan.participating[1], 0.0);
  faults.AddCorruption(rig.deployment.plan.participating[2], 0.0, 0, 2.0);
  net::SimTransportOptions options;
  options.faults = &faults;
  SimDriver run = Serve(rig, options);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  EXPECT_EQ(run.driver.num_evicted(), 2u);
  EXPECT_GE(run.driver.stats().recovery_rounds, 1u);
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure)
      << run.driver.VerifyCumulativeSecurity().Summary();
}

TEST(FaultTolerantProtocol, InfeasibleWhenFleetCollapses) {
  // k = 2: evicting one device leaves a single survivor, below MCSCEC's
  // k >= 2 floor — recovery must report kInfeasible, not hang or abort.
  Rig rig(6, 3, 2, 38);
  FaultSchedule faults;
  faults.AddCrash(rig.deployment.plan.participating[0], 0.0);
  net::SimTransportOptions options;
  options.faults = &faults;
  SimDriver run = Serve(rig, options);
  const auto result = run.driver.Query(rig.x);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInfeasible);
}

TEST(FaultTolerantProtocol, FaultFreeCostMatchesPlainProtocol) {
  // Without faults the driver stages every planned row once and does the
  // planned per-device work once: its Eq. (1) bill, rebuilt from the op
  // ledger, is the planner's objective — detection is free when nothing
  // fails.
  Rig rig(16, 5, 8, 39);
  SimDriver run(rig.deployment, rig.a, rig.problem.fleet);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  const net::NetCoordinatorStats& stats = run.driver.stats();
  const Plan& plan = rig.deployment.plan;

  EXPECT_EQ(stats.base_plan_cost, plan.allocation.total_cost);
  const double bill =
      OpLedgerCost(run.transport.stats(), rig.problem.fleet, rig.problem.l);
  EXPECT_NEAR(bill, PlannedBill(plan, rig.problem.fleet, rig.problem.l),
              1e-9 * (1.0 + bill));
  uint64_t share_values = 0;
  for (const auto& share : rig.deployment.shares) {
    share_values += share.coded_rows.size();
  }
  EXPECT_EQ(stats.staged_value_bytes, 8.0 * share_values);
  // One sub-query per participating device, each answer used once.
  EXPECT_EQ(stats.dispatches, plan.participating.size());
  EXPECT_EQ(stats.responses_used, plan.participating.size());
  EXPECT_EQ(stats.retries + stats.timeouts + stats.recovery_rounds, 0u);
  EXPECT_EQ(run.transport.stats().queries_sent, stats.dispatches);
  EXPECT_EQ(net::ReconcileLedgers(stats, run.transport.stats(),
                                  rig.problem.l),
            "");
}

// --- Hedged queries -----------------------------------------------------

TEST(HedgedQueries, FireAndResolveUnderExponentialStragglers) {
  Rig rig(MakeComputeBoundProblem(48, 256, 10, 60), 60);
  net::SimTransportOptions options;
  options.straggler.kind = StragglerKind::kExponentialSlowdown;
  options.straggler.rate = 0.8;
  options.straggler_seed = 61;
  net::NetCoordinatorOptions driver = recovery::SimDriverOptions();
  driver.hedging = true;
  driver.hedge_quantile = 0.5;
  driver.hedge_margin = 1.25;
  SimDriver run = Serve(rig, options, driver);
  const double base_staged = run.driver.stats().staged_value_bytes;
  Xoshiro256StarStar drng(62);
  for (size_t q = 0; q < 8; ++q) {
    const auto xq = RandomVector<double>(rig.problem.l, drng);
    const auto expected = MatVec(rig.a, std::span<const double>(xq));
    const auto result = run.driver.Query(xq);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                         std::span<const double>(expected)),
              1e-9)
        << "query " << q;
  }
  const net::NetCoordinatorStats& stats = run.driver.stats();
  EXPECT_GE(stats.hedges_launched, 1u) << "stragglers must trigger hedges";
  EXPECT_GE(stats.hedge_wins + stats.hedges_cancelled, 1u)
      << "every dispatched hedge race resolves one way or the other";
  EXPECT_GT(stats.hedged_rows, 0u);
  EXPECT_GT(stats.staged_value_bytes, base_staged);
  const double hedge_rate = static_cast<double>(stats.hedges_launched) /
                            static_cast<double>(stats.dispatches);
  EXPECT_GT(hedge_rate, 0.0);
  EXPECT_LT(hedge_rate, 1.0);
  EXPECT_GT(stats.last_query_s, 0.0);
  // The one property hedging must never trade away: fresh-pad re-encodes
  // keep every device's cumulative view Def. 2 ITS-secure.
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure)
      << run.driver.VerifyCumulativeSecurity().Summary();
}

TEST(HedgedQueries, FreeWhenNobodyStraggles) {
  // With no stragglers or faults no hedge threshold is ever crossed, so the
  // hedging knob must cost nothing: same bytes, same dispatches, same time.
  Rig rig_off(16, 5, 8, 63);
  Rig rig_on(16, 5, 8, 63);
  net::NetCoordinatorOptions hedged = recovery::SimDriverOptions();
  hedged.hedging = true;
  SimDriver off = Serve(rig_off);
  SimDriver on = Serve(rig_on, {}, hedged);
  ExpectDecodes(rig_off, off.driver.Query(rig_off.x));
  ExpectDecodes(rig_on, on.driver.Query(rig_on.x));

  const net::NetCoordinatorStats& on_stats = on.driver.stats();
  const net::NetCoordinatorStats& off_stats = off.driver.stats();
  EXPECT_EQ(on_stats.hedges_launched, 0u);
  EXPECT_EQ(on_stats.hedged_rows, 0u);
  EXPECT_EQ(on_stats.staged_value_bytes, off_stats.staged_value_bytes);
  EXPECT_EQ(on_stats.query_value_bytes, off_stats.query_value_bytes);
  EXPECT_EQ(on_stats.response_value_bytes, off_stats.response_value_bytes);
  EXPECT_EQ(on_stats.dispatches, off_stats.dispatches);
  EXPECT_DOUBLE_EQ(on_stats.last_query_s, off_stats.last_query_s);
}

// --- Adaptive timeouts --------------------------------------------------

TEST(AdaptiveTimeouts, UseEstimatorAfterWarmup) {
  Rig rig(16, 5, 8, 64);
  net::NetCoordinatorOptions driver = recovery::SimDriverOptions();
  driver.adaptive_timeouts = true;
  driver.estimator.min_samples = 2;
  SimDriver run = Serve(rig, {}, driver);
  Xoshiro256StarStar drng(65);
  for (size_t q = 0; q < 4; ++q) {
    const auto xq = RandomVector<double>(rig.problem.l, drng);
    const auto expected = MatVec(rig.a, std::span<const double>(xq));
    const auto result = run.driver.Query(xq);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                         std::span<const double>(expected)),
              1e-9);
  }
  EXPECT_GT(run.driver.stats().adaptive_deadlines, 0u)
      << "after warm-up, deadlines must come from the estimator";
  EXPECT_EQ(run.driver.stats().timeouts, 0u)
      << "a steady fleet must not be timed out by its own history";
  for (const size_t device : rig.deployment.plan.participating) {
    EXPECT_TRUE(run.driver.latency_estimator(device).HasEstimate())
        << "device " << device;
    EXPECT_GE(run.driver.latency_estimator(device).count(), 4u);
  }
}

TEST(AdaptiveTimeouts, ColdStartFallsBackToModelDeadline) {
  Rig rig(16, 5, 8, 66);
  net::NetCoordinatorOptions driver = recovery::SimDriverOptions();
  driver.adaptive_timeouts = true;
  driver.estimator.min_samples = 1000;  // never warm within this test
  SimDriver run = Serve(rig, {}, driver);
  ExpectDecodes(rig, run.driver.Query(rig.x));
  EXPECT_EQ(run.driver.stats().adaptive_deadlines, 0u)
      << "below min_samples every deadline is model-based";
  EXPECT_EQ(run.driver.stats().timeouts, 0u);
}

// --- Seeded backoff jitter ----------------------------------------------

TEST(BackoffJitter, SameSeedReplaysTheExactTrace) {
  // Two drivers, same scenario, same jitter seed: the full decision trace —
  // and therefore every exported ledger field — must be bit-identical.
  auto run = [](uint64_t jitter_seed) {
    Rig rig(16, 5, 8, 67);
    FaultSchedule faults;
    net::SimTransportOptions options;
    options.faults = &faults;
    net::NetCoordinatorOptions driver = recovery::SimDriverOptions();
    driver.retry.max_attempts = 6;
    driver.retry.initial_backoff_s = 0.06;
    driver.backoff_jitter = 0.3;
    driver.jitter_seed = jitter_seed;
    driver.record_trace = true;
    SimDriver sim = Serve(rig, options, driver);
    const size_t victim = rig.deployment.plan.participating[1];
    faults.AddTransient(victim, 0.0, sim.transport.Now() + 0.05);
    const auto result = sim.driver.Query(rig.x);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_GE(sim.driver.stats().retries, 1u)
        << "the scenario must actually exercise the jittered backoff";
    std::string trace;
    for (const std::string& line : sim.driver.trace()) trace += line + "\n";
    return net::ToJson(sim.driver.stats()) + trace;
  };
  const std::string first = run(12345);
  const std::string second = run(12345);
  EXPECT_EQ(first, second);
  // A different jitter seed perturbs the retry schedule, which shows up in
  // the completion timing — seeds decorrelate, they don't relabel.
  EXPECT_NE(run(99999), first);
}

TEST(BackoffJitter, ZeroJitterMatchesDefaultOptionsBitForBit) {
  // backoff_jitter = 0 (the default) must reproduce the unjittered schedule
  // exactly, whatever the jitter seed — the knob is fully inert when off.
  auto run = [](bool explicit_zero) {
    Rig rig(16, 5, 8, 68);
    FaultSchedule faults;
    const size_t victim = rig.deployment.plan.participating[0];
    faults.AddCrash(victim, 0.0);
    net::SimTransportOptions options;
    options.faults = &faults;
    net::NetCoordinatorOptions driver = recovery::SimDriverOptions();
    if (explicit_zero) {
      driver.backoff_jitter = 0.0;
      driver.jitter_seed = 42;  // unused when jitter is off
      driver.hedging = false;
      driver.adaptive_timeouts = false;
    }
    SimDriver sim = Serve(rig, options, driver);
    const auto result = sim.driver.Query(rig.x);
    EXPECT_TRUE(result.ok()) << result.status();
    return net::ToJson(sim.driver.stats());
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace scec::sim
