// SPDX-License-Identifier: MIT
//
// SCEC over the simulated fleet: the protocol driver (net/driver.h) over
// net/sim_transport.h, one query at a time or several in flight, each
// flight over its own tables.

#include <gtest/gtest.h>

#include <sstream>

#include "net/driver.h"
#include "net/sim_transport.h"
#include "recovery/coordinator.h"
#include "recovery/journal.h"
#include "sim/faults.h"
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

// Several queries in flight: begins every x as its own flight, polls until
// each settles, and reads each flight's decode time from the flight.
struct Stream {
  std::vector<std::vector<double>> decoded;  // one A·x per query
  std::vector<double> completion_times;      // per query, since dispatch
  double makespan = 0.0;                     // until the last decode
};

Stream RunStream(recovery::SimDriver& run,
                 const std::vector<std::vector<double>>& xs) {
  const double start = run.transport.Now();
  std::vector<net::NetCoordinator::FlightId> ids;
  for (const auto& x : xs) {
    Result<net::NetCoordinator::FlightId> id = run.driver.Begin(x);
    SCEC_CHECK(id.ok()) << id.status();
    ids.push_back(*id);
  }
  for (const auto id : ids) {
    while (!run.driver.flight(id).settled()) run.driver.Poll();
  }
  Stream stream;
  for (const auto id : ids) {
    stream.completion_times.push_back(run.driver.flight(id).decoded_s -
                                      start);
    Result<std::vector<double>> decoded = run.driver.Take(id);
    SCEC_CHECK(decoded.ok()) << decoded.status();
    stream.decoded.push_back(*std::move(decoded));
  }
  stream.makespan = run.transport.Now() - start;
  return stream;
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
  Xoshiro256StarStar drng(121);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const Deployment<double> deployment = Planned(problem, a, 120);
  std::vector<std::vector<double>> xs = {
      RandomVector<double>(problem.l, drng),
      RandomVector<double>(problem.l, drng)};

  recovery::SimDriver run(deployment, a, problem.fleet);
  const Stream stream = RunStream(run, xs);
  // The slowest device's compute time per query:
  double max_compute = 0.0;
  for (size_t d = 0; d < deployment.plan.participating.size(); ++d) {
    const EdgeDevice& spec = problem.fleet[deployment.plan.participating[d]];
    const double v = static_cast<double>(deployment.plan.scheme.row_counts[d]);
    const double flops = v * (2.0 * problem.l - 1.0);
    max_compute = std::max(max_compute, flops / spec.compute_rate_flops);
  }
  EXPECT_GE(stream.completion_times[1] - stream.completion_times[0],
            max_compute * 0.5)
      << "second query must queue behind the first somewhere";
}

TEST(SimProtocol, StreamedQueriesDecodeLikeSequentialOnes) {
  const McscecProblem problem = MakeProblem(14, 5, 6, 10);
  Xoshiro256StarStar drng(101);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const Deployment<double> deployment = Planned(problem, a, 100);

  std::vector<std::vector<double>> xs;
  for (int q = 0; q < 6; ++q) {
    xs.push_back(RandomVector<double>(problem.l, drng));
  }

  recovery::SimDriver run(deployment, a, problem.fleet);
  const Stream stream = RunStream(run, xs);
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
  Xoshiro256StarStar drng(111);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const Deployment<double> deployment = Planned(problem, a, 110);
  std::vector<std::vector<double>> xs;
  for (int q = 0; q < 10; ++q) {
    xs.push_back(RandomVector<double>(problem.l, drng));
  }

  // Sequential: a fresh driver so both start from identical state.
  recovery::SimDriver sequential(deployment, a, problem.fleet);
  double sequential_total = 0.0;
  for (const auto& x : xs) {
    ASSERT_TRUE(sequential.driver.Query(x).ok());
    sequential_total += sequential.driver.stats().last_query_s;
  }

  recovery::SimDriver pipelined(deployment, a, problem.fleet);
  const Stream stream = RunStream(pipelined, xs);
  EXPECT_LT(stream.makespan, sequential_total)
      << "overlapping transfer+compute must beat stop-and-wait";
}

TEST(QueryFlights, TwoFlightsInterleavedDecodeExactly) {
  const McscecProblem problem = MakeProblem(18, 6, 7, 13);
  Xoshiro256StarStar drng(131);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const Deployment<double> deployment = Planned(problem, a, 130);
  const auto x0 = RandomVector<double>(problem.l, drng);
  const auto x1 = RandomVector<double>(problem.l, drng);

  // One query at a time decodes the reference answers.
  recovery::SimDriver one(deployment, a, problem.fleet);
  const Result<std::vector<double>> want0 = one.driver.Query(x0);
  const Result<std::vector<double>> want1 = one.driver.Query(x1);
  ASSERT_TRUE(want0.ok() && want1.ok());

  recovery::SimDriver run(deployment, a, problem.fleet);
  const auto id0 = run.driver.Begin(x0);
  const auto id1 = run.driver.Begin(x1);
  ASSERT_TRUE(id0.ok() && id1.ok());
  // Each poll hands both flights their completions as they arrive.
  while (!run.driver.flight(*id0).settled() ||
         !run.driver.flight(*id1).settled()) {
    run.driver.Poll();
  }
  const Result<std::vector<double>> got1 = run.driver.Take(*id1);
  const Result<std::vector<double>> got0 = run.driver.Take(*id0);
  ASSERT_TRUE(got0.ok()) << got0.status();
  ASSERT_TRUE(got1.ok()) << got1.status();
  EXPECT_EQ(*got0, *want0);
  EXPECT_EQ(*got1, *want1);
  ExpectProduct(a, x0, got0);
  ExpectProduct(a, x1, got1);
  EXPECT_EQ(run.driver.stats().queries, 2u);
  EXPECT_EQ(net::ReconcileLedgers(run.driver.stats(), run.transport.stats(),
                                  problem.l),
            "");
}

TEST(QueryFlights, CrashWithTwoFlightsOpenDecodesBoth) {
  const McscecProblem problem = MakeProblem(18, 6, 9, 14);
  Xoshiro256StarStar drng(141);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  const Deployment<double> deployment = Planned(problem, a, 140);
  const auto x0 = RandomVector<double>(problem.l, drng);
  const auto x1 = RandomVector<double>(problem.l, drng);

  FaultSchedule faults;
  net::SimTransportOptions sim;
  sim.faults = &faults;
  recovery::SimDriver run(deployment, a, problem.fleet, sim);
  // Both flights are dispatched; the first participant dies before any
  // of their sub-queries reaches it.
  const auto id0 = run.driver.Begin(x0);
  const auto id1 = run.driver.Begin(x1);
  ASSERT_TRUE(id0.ok() && id1.ok());
  faults.AddCrash(deployment.plan.participating[0], run.transport.Now());

  const Result<std::vector<double>> got0 = run.driver.Take(*id0);
  const Result<std::vector<double>> got1 = run.driver.Take(*id1);
  ExpectProduct(a, x0, got0);
  ExpectProduct(a, x1, got1);
  EXPECT_GE(faults.stats().crash_drops, 2u) << "both flights hit the crash";
  EXPECT_EQ(run.driver.stats().evictions, 1u);
  EXPECT_GE(run.driver.stats().recovery_rounds, 1u);
  EXPECT_TRUE(run.driver.VerifyCumulativeSecurity().all_secure);
  EXPECT_EQ(net::ReconcileLedgers(run.driver.stats(), run.transport.stats(),
                                  problem.l),
            "");
}

TEST(QueryFlights, JournaledCoordinatorKeepsOneFlightOpen) {
  const McscecProblem problem = MakeProblem(12, 4, 6, 15);
  Xoshiro256StarStar drng(151);
  const auto a = RandomMatrix<double>(problem.m, problem.l, drng);
  auto session = DeploymentSession<double>::Adopt(Planned(problem, a, 150));
  std::ostringstream journal_os;
  recovery::QueryJournal journal(&journal_os, /*snapshot_crc=*/0);
  session.AttachJournal(&journal);
  net::SimTransport transport(problem.fleet.devices(), {});
  net::NetCoordinator driver(session, a, problem.fleet,
                             recovery::SimDriverOptions());
  ASSERT_TRUE(driver.Setup(&transport).ok());

  const auto x = RandomVector<double>(problem.l, drng);
  const auto first = driver.Begin(x);
  ASSERT_TRUE(first.ok()) << first.status();
  const auto second = driver.Begin(x);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kFailedPrecondition);
  ExpectProduct(a, x, driver.Take(*first));
  // Once the open flight is taken, the next query may begin.
  ExpectProduct(a, x, driver.Query(x));
  EXPECT_EQ(driver.stats().queries, 2u);
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
