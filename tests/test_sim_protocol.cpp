// SPDX-License-Identifier: MIT
//
// SCEC over the simulated fleet: sequential runs through the protocol
// driver (net/driver.h over net/sim_transport.h), and the pipelined
// ScecProtocol that still keeps several queries in flight.

#include "sim/protocol.h"

#include <gtest/gtest.h>

#include "net/driver.h"
#include "net/sim_transport.h"
#include "recovery/coordinator.h"
#include "workload/distributions.h"

namespace scec::sim {
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
    device.costs.storage = 0.01;
    device.costs.mul = 0.002;
    device.costs.add = 0.001;
    device.compute_rate_flops = rng.NextDouble(1e8, 1e9);
    device.uplink_bps = rng.NextDouble(1e7, 1e8);
    device.downlink_bps = rng.NextDouble(1e7, 1e8);
    device.link_latency_s = rng.NextDouble(1e-4, 5e-3);
    problem.fleet.Add(device);
  }
  return problem;
}

// Plans and encodes `problem` (TA1/TA2 via kAuto).
Deployment<double> Planned(const McscecProblem& problem,
                           const Matrix<double>& a, uint64_t seed) {
  ChaCha20Rng coding_rng(seed);
  auto deployment = Deploy(problem, a, coding_rng);
  SCEC_CHECK(deployment.ok()) << deployment.status();
  return *std::move(deployment);
}

void ExpectProduct(const Matrix<double>& a, const std::vector<double>& x,
                   const Result<std::vector<double>>& decoded) {
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto expected = MatVec(a, std::span<const double>(x));
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*decoded),
                       std::span<const double>(expected)),
            1e-9);
}

TEST(SimProtocol, DecodesCorrectly) {
  const McscecProblem problem = MakeProblem(24, 8, 10, 1);
  Xoshiro256StarStar drng(11);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  recovery::SimDriver run(Planned(problem, a, 10), a, problem.fleet);
  ExpectProduct(a, x, run.driver.Query(x));
}

TEST(SimProtocol, AccountingMatchesEquationOne) {
  // The transport's per-device op ledger must reproduce Eq. (1)'s units:
  // V·l values staged, V·l multiplications, V·(l−1) additions, V sent.
  const McscecProblem problem = MakeProblem(30, 6, 8, 2);
  Xoshiro256StarStar drng(21);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const Deployment<double> deployment = Planned(problem, a, 20);
  recovery::SimDriver run(deployment, a, problem.fleet);
  ASSERT_TRUE(run.driver.Query(x).ok());

  const std::vector<net::DeviceOps>& ops = run.transport.stats().device_ops;
  ASSERT_EQ(ops.size(), problem.fleet.size());
  const uint64_t l = problem.l;
  uint64_t total_rows = 0;
  std::vector<bool> serving(problem.fleet.size(), false);
  for (size_t d = 0; d < deployment.plan.participating.size(); ++d) {
    const size_t device = deployment.plan.participating[d];
    serving[device] = true;
    const uint64_t v = deployment.plan.scheme.row_counts[d];
    EXPECT_GE(v, 1u);
    EXPECT_EQ(ops[device].staged_values, v * l);
    EXPECT_EQ(ops[device].mults, v * l);
    EXPECT_EQ(ops[device].adds, v * (l - 1));
    EXPECT_EQ(ops[device].values_returned, v);
    total_rows += v;
  }
  for (size_t device = 0; device < ops.size(); ++device) {
    if (serving[device]) continue;
    EXPECT_EQ(ops[device].staged_values + ops[device].mults, 0u)
        << "device " << device << " holds no share";
  }
  // Total coded rows must be m + r.
  EXPECT_EQ(total_rows, problem.m + deployment.code.r());
}

TEST(SimProtocol, CompletionTimeIsPositiveAndBounded) {
  const McscecProblem problem = MakeProblem(16, 4, 6, 3);
  Xoshiro256StarStar drng(31);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  recovery::SimDriver run(Planned(problem, a, 30), a, problem.fleet);
  EXPECT_GT(run.transport.Now(), 0.0) << "staging takes simulated time";
  ASSERT_TRUE(run.driver.Query(x).ok());
  EXPECT_GT(run.driver.stats().last_query_s, 0.0);
  EXPECT_LT(run.driver.stats().last_query_s, 10.0)
      << "sanity ceiling for these link rates";
}

TEST(SimProtocol, StragglersOnlySlowThingsDown) {
  const McscecProblem problem = MakeProblem(16, 4, 6, 4);
  Xoshiro256StarStar drng(41);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const Deployment<double> deployment = Planned(problem, a, 50);

  recovery::SimDriver fast(deployment, a, problem.fleet);
  ASSERT_TRUE(fast.driver.Query(x).ok());

  net::SimTransportOptions slow;
  slow.straggler.kind = StragglerKind::kExponentialSlowdown;
  slow.straggler.rate = 0.5;  // heavy stragglers
  recovery::SimDriver straggly(deployment, a, problem.fleet, slow);
  ExpectProduct(a, x, straggly.driver.Query(x));
  EXPECT_GE(straggly.driver.stats().last_query_s,
            fast.driver.stats().last_query_s);
}

TEST(SimProtocol, BytesMatchValueCounts) {
  const McscecProblem problem = MakeProblem(20, 5, 7, 5);
  Xoshiro256StarStar drng(61);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l, drng);
  const Deployment<double> deployment = Planned(problem, a, 60);
  recovery::SimDriver run(deployment, a, problem.fleet);
  ASSERT_TRUE(run.driver.Query(x).ok());
  const net::NetTransportStats& stats = run.transport.stats();
  uint64_t values_returned = 0;
  for (const net::DeviceOps& ops : stats.device_ops) {
    values_returned += ops.values_returned;
  }
  // Response bytes = (m + r) values * 8 bytes.
  EXPECT_EQ(values_returned, problem.m + deployment.code.r());
  EXPECT_EQ(stats.response_value_bytes_delivered, values_returned * 8);
  // Broadcast bytes = one x per participating device.
  EXPECT_EQ(stats.query_value_bytes_sent,
            deployment.shares.size() * problem.l * 8);
  // Staging moved every coded value exactly once.
  uint64_t share_values = 0;
  for (const auto& share : deployment.shares) {
    share_values += share.coded_rows.size();
  }
  EXPECT_EQ(stats.staged_value_bytes, share_values * 8);
}

TEST(SimProtocol, LowerLevelApiRunsAgainstExistingDeployment) {
  // A hand-held deployment enters the driver through DeploymentSession.
  const McscecProblem problem = MakeProblem(10, 3, 5, 6);
  Xoshiro256StarStar drng(71);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto session =
      DeploymentSession<double>::Adopt(Planned(problem, a, 70));
  net::SimTransport transport(problem.fleet.devices(), {});
  net::NetCoordinator driver(session, a, problem.fleet,
                             recovery::SimDriverOptions());
  ASSERT_TRUE(driver.Setup(&transport).ok());
  const auto x = RandomVector<double>(problem.l, drng);
  ExpectProduct(a, x, driver.Query(x));
}

TEST(SimProtocol, SingleCoreDeviceSerialisesConcurrentQueries) {
  // Two queries arriving back-to-back at one device must finish at least
  // one compute-duration apart (the device is single-core).
  const McscecProblem problem = MakeProblem(16, 64, 4, 12);
  ChaCha20Rng coding_rng(120);
  Xoshiro256StarStar drng(121);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  std::vector<EdgeDevice> specs;
  for (size_t idx : deployment->plan.participating) {
    specs.push_back(problem.fleet[idx]);
  }
  std::vector<std::vector<double>> xs = {
      RandomVector<double>(problem.l, drng),
      RandomVector<double>(problem.l, drng)};

  ScecProtocol protocol(&*deployment, specs, {});
  protocol.Stage();
  const auto stream = protocol.RunQueryStream(xs);
  // The slowest device's compute time per query:
  double max_compute = 0.0;
  for (size_t d = 0; d < specs.size(); ++d) {
    const double v =
        static_cast<double>(deployment->plan.scheme.row_counts[d]);
    const double flops = v * (2.0 * problem.l - 1.0);
    max_compute = std::max(max_compute, flops / specs[d].compute_rate_flops);
  }
  EXPECT_GE(stream.completion_times[1] - stream.completion_times[0],
            max_compute * 0.5)
      << "second query must queue behind the first somewhere";
}

TEST(SimProtocol, StreamedQueriesDecodeLikeSequentialOnes) {
  const McscecProblem problem = MakeProblem(14, 5, 6, 10);
  ChaCha20Rng coding_rng(100);
  Xoshiro256StarStar drng(101);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  std::vector<EdgeDevice> specs;
  for (size_t idx : deployment->plan.participating) {
    specs.push_back(problem.fleet[idx]);
  }

  std::vector<std::vector<double>> xs;
  for (int q = 0; q < 6; ++q) {
    xs.push_back(RandomVector<double>(problem.l, drng));
  }

  ScecProtocol protocol(&*deployment, specs, {});
  protocol.Stage();
  const auto stream = protocol.RunQueryStream(xs);
  ASSERT_EQ(stream.decoded.size(), xs.size());
  for (size_t q = 0; q < xs.size(); ++q) {
    const auto expected = MatVec(a, std::span<const double>(xs[q]));
    EXPECT_LT(MaxAbsDiff(std::span<const double>(stream.decoded[q]),
                         std::span<const double>(expected)),
              1e-9)
        << "query " << q;
  }
  // Completion times are per-query and ordered (FIFO service).
  for (size_t q = 1; q < xs.size(); ++q) {
    EXPECT_GE(stream.completion_times[q],
              stream.completion_times[q - 1] - 1e-12);
  }
  EXPECT_GE(stream.makespan, stream.completion_times.back() - 1e-12);
}

TEST(SimProtocol, PipeliningBeatsSequentialMakespan) {
  const McscecProblem problem = MakeProblem(20, 8, 7, 11);
  ChaCha20Rng coding_rng(110);
  Xoshiro256StarStar drng(111);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok());
  std::vector<EdgeDevice> specs;
  for (size_t idx : deployment->plan.participating) {
    specs.push_back(problem.fleet[idx]);
  }
  std::vector<std::vector<double>> xs;
  for (int q = 0; q < 10; ++q) {
    xs.push_back(RandomVector<double>(problem.l, drng));
  }

  // Sequential: fresh protocol so both start from identical state.
  ScecProtocol sequential(&*deployment, specs, {});
  sequential.Stage();
  double sequential_total = 0.0;
  for (const auto& x : xs) {
    const double before = sequential.queue().now();
    (void)sequential.RunQuery(x);
    sequential_total += sequential.queue().now() - before;
  }

  ScecProtocol pipelined(&*deployment, specs, {});
  pipelined.Stage();
  const auto stream = pipelined.RunQueryStream(xs);
  EXPECT_LT(stream.makespan, sequential_total)
      << "overlapping transfer+compute must beat stop-and-wait";
}

TEST(StragglerModel, ShiftedExponentialRespectsShiftAndCap) {
  StragglerModel model;
  model.kind = StragglerKind::kShiftedExponential;
  model.rate = 0.5;
  model.shift = 1.0;
  model.multiplier_cap = 3.0;
  Xoshiro256StarStar rng(90);
  for (int i = 0; i < 2000; ++i) {
    const double slowed = model.Apply(2.0, rng);
    EXPECT_GE(slowed, 2.0 * model.shift) << "shift is the floor";
    EXPECT_LE(slowed, 2.0 * model.multiplier_cap) << "cap is the ceiling";
  }
  // Same seed, cap removed: the heavy tail must actually exceed the cap
  // sometimes (otherwise the cap tests nothing).
  StragglerModel uncapped = model;
  uncapped.multiplier_cap = 0.0;
  Xoshiro256StarStar rng2(90);
  bool exceeded = false;
  for (int i = 0; i < 2000; ++i) {
    exceeded |= uncapped.Apply(2.0, rng2) > 2.0 * model.multiplier_cap;
  }
  EXPECT_TRUE(exceeded);
}

TEST(StragglerModel, ExistingKindsStayBitIdentical) {
  // kNone consumes no randomness at all, and kExponentialSlowdown draws
  // exactly one exponential — seeded runs from before kShiftedExponential
  // existed must replay unchanged.
  StragglerModel none;
  Xoshiro256StarStar rng_a(91);
  Xoshiro256StarStar rng_b(91);
  EXPECT_DOUBLE_EQ(none.Apply(1.5, rng_a), 1.5);
  EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64())
      << "kNone must leave the RNG stream untouched";

  StragglerModel slowdown;
  slowdown.kind = StragglerKind::kExponentialSlowdown;
  slowdown.rate = 2.0;
  Xoshiro256StarStar rng_c(92);
  Xoshiro256StarStar rng_d(92);
  EXPECT_DOUBLE_EQ(slowdown.Apply(1.5, rng_c),
                   1.5 * (1.0 + rng_d.NextExponential(2.0)));
}

TEST(SimProtocol, WrongQueryWidthIsError) {
  const McscecProblem problem = MakeProblem(10, 3, 5, 7);
  Xoshiro256StarStar drng(81);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const auto x = RandomVector<double>(problem.l + 1, drng);  // too wide
  recovery::SimDriver run(Planned(problem, a, 80), a, problem.fleet);
  const auto result = run.driver.Query(x);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace scec::sim
