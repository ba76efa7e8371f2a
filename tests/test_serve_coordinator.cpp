// SPDX-License-Identifier: MIT
//
// Serving-tier end-to-end tests: coalesced panel answers are bit-identical
// to the per-query scalar path for every thread count, admission bounds
// reject (not drop) overload, completions honor the virtual decision clock,
// and reputation scores steer replica placement.

#include "serve/coordinator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "workload/distributions.h"

namespace scec::serve {
namespace {

struct World {
  McscecProblem problem;
  Matrix<double> a;

  explicit World(uint64_t tenant) {
    Xoshiro256StarStar cost_rng(300 + tenant);
    const auto costs =
        SampleSortedCosts(CostDistribution::Uniform(5.0), 6, cost_rng);
    problem = MakeAbstractProblem(16, 6, costs);
    ChaCha20Rng rng(400 + tenant);
    a = RandomMatrix<double>(16, 6, rng);
  }

  DeploymentSession<double> Deploy() const {
    ChaCha20Rng rng(500);
    auto session = DeploymentSession<double>::Open(problem, a, rng);
    SCEC_CHECK(session.ok()) << session.status();
    return std::move(*session);
  }
};

ServeCoordinator<double>::DeployFn DeployFnFor(
    const std::map<uint64_t, World>& worlds) {
  return [&worlds](uint64_t tenant) {
    return worlds.at(tenant).Deploy();
  };
}

std::vector<double> Column(const Matrix<double>& a, size_t l, uint64_t seed) {
  ChaCha20Rng rng(seed);
  return RandomVector<double>(l, rng);
}

TEST(ServeCoordinator, CoalescedAnswersBitIdenticalToPerQueryPath) {
  std::map<uint64_t, World> worlds;
  worlds.emplace(0, World(0));
  worlds.emplace(1, World(1));

  // Reference answers straight off the session's scalar path.
  std::map<uint64_t, DeploymentSession<double>> reference;
  reference.emplace(0, worlds.at(0).Deploy());
  reference.emplace(1, worlds.at(1).Deploy());

  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    obs::MetricsRegistry metrics;
    ServeOptions options;
    options.batching.max_batch = 8;
    options.pool = &pool;
    options.metrics = &metrics;
    ServeCoordinator<double> coordinator(2, DeployFnFor(worlds), options);

    std::map<uint64_t, std::vector<double>> queries;  // ticket -> expected
    double now = 0.0;
    for (int i = 0; i < 40; ++i) {
      const uint64_t tenant = static_cast<uint64_t>(i % 2);
      const auto x =
          Column(worlds.at(tenant).a, worlds.at(tenant).problem.l,
                 1000 + static_cast<uint64_t>(i));
      const auto result = coordinator.Submit(
          tenant, static_cast<DeadlineClass>(i % 3), x, now);
      ASSERT_TRUE(result.admitted());
      queries[result.ticket] = reference.at(tenant).Serve(x);
      now += 0.0005;
    }
    const auto completions = coordinator.Pump(now, /*flush=*/true);
    ASSERT_EQ(completions.size(), queries.size());
    for (const auto& done : completions) {
      const auto& expected = queries.at(done.ticket);
      ASSERT_EQ(done.result.size(), expected.size());
      for (size_t row = 0; row < expected.size(); ++row) {
        ASSERT_EQ(done.result[row], expected[row])
            << "ticket " << done.ticket << " row " << row << " threads "
            << threads;
      }
      EXPECT_GE(done.batch_size, 1u);
    }
    EXPECT_EQ(coordinator.completed(), queries.size());
    EXPECT_EQ(coordinator.cache().misses(), 2u);  // one deploy per tenant
    EXPECT_GT(metrics.GetHistogram("scec_serve_batch_size").count(), 0u);
  }
}

TEST(ServeCoordinator, BatchGroupingsIdenticalAcrossThreadCounts) {
  std::map<uint64_t, World> worlds;
  worlds.emplace(0, World(0));
  worlds.emplace(1, World(1));
  worlds.emplace(2, World(2));

  std::string reference;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    obs::MetricsRegistry metrics;
    ServeOptions options;
    options.batching.max_batch = 4;
    // Batch-close timeouts learn from observed service time; a virtual
    // model keeps that decision input independent of the wall clock (and
    // so of the thread count and machine load).
    options.service_model = [](size_t width) {
      return 1e-3 + 1e-4 * static_cast<double>(width);
    };
    options.pool = &pool;
    options.metrics = &metrics;
    ServeCoordinator<double> coordinator(3, DeployFnFor(worlds), options);

    std::string fp;
    double now = 0.0;
    for (int i = 0; i < 60; ++i) {
      const uint64_t tenant = static_cast<uint64_t>((i * 5 + i / 4) % 3);
      const auto x = Column(worlds.at(tenant).a, worlds.at(tenant).problem.l,
                            2000 + static_cast<uint64_t>(i));
      ASSERT_TRUE(coordinator
                      .Submit(tenant, static_cast<DeadlineClass>(i % 3), x,
                              now)
                      .admitted());
      now += 0.002;
      if (i % 8 == 7) {
        for (const auto& done : coordinator.Pump(now)) {
          fp += std::to_string(done.ticket) + "@" +
                std::to_string(done.tenant) + "x" +
                std::to_string(done.batch_size) + ";";
        }
      }
    }
    for (const auto& done : coordinator.Pump(now, /*flush=*/true)) {
      fp += std::to_string(done.ticket) + "@" + std::to_string(done.tenant) +
            "x" + std::to_string(done.batch_size) + ";";
    }
    if (reference.empty()) {
      reference = fp;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(fp, reference) << "threads=" << threads;
    }
  }
}

TEST(ServeCoordinator, AdmissionRejectsBeyondQueueLimit) {
  std::map<uint64_t, World> worlds;
  worlds.emplace(0, World(0));
  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.batching.max_batch = 4;
  options.batching.per_tenant_queue_limit = 4;
  options.metrics = &metrics;
  ServeCoordinator<double> coordinator(1, DeployFnFor(worlds), options);

  const auto x = Column(worlds.at(0).a, worlds.at(0).problem.l, 3000);
  for (int i = 0; i < 4; ++i) {
    // Bulk queries never hit max_batch=4's FULL close between submissions.
    ASSERT_TRUE(
        coordinator.Submit(0, DeadlineClass::kBulk, x, 0.0).admitted());
  }
  EXPECT_FALSE(coordinator.Submit(0, DeadlineClass::kBulk, x, 0.0).admitted());
  EXPECT_EQ(coordinator.rejected(), 1u);
  EXPECT_EQ(metrics.GetCounter("scec_serve_rejected_total").value(), 1u);

  // Serving drains the queue and admission reopens.
  EXPECT_EQ(coordinator.Pump(0.0, /*flush=*/true).size(), 4u);
  EXPECT_TRUE(coordinator.Submit(0, DeadlineClass::kBulk, x, 0.1).admitted());
}

TEST(ServeCoordinator, TypedRejectReasonsSurfaceStatusAndMetrics) {
  std::map<uint64_t, World> worlds;
  worlds.emplace(0, World(0));
  const auto x = Column(worlds.at(0).a, worlds.at(0).problem.l, 5000);

  // Quota: one-token bucket, two submissions at the same instant.
  {
    obs::MetricsRegistry metrics;
    ServeOptions options;
    options.admission.tenant_rate_qps = 1.0;
    options.admission.tenant_burst = 1.0;
    options.metrics = &metrics;
    ServeCoordinator<double> coordinator(1, DeployFnFor(worlds), options);
    ASSERT_TRUE(
        coordinator.Submit(0, DeadlineClass::kStandard, x, 0.0).admitted());
    const auto rejected = coordinator.Submit(0, DeadlineClass::kStandard, x,
                                             0.0);
    EXPECT_EQ(rejected.reason, RejectReason::kQuotaExceeded);
    EXPECT_EQ(rejected.status.code(), ErrorCode::kResourceExhausted);
    EXPECT_EQ(coordinator.rejected_for(RejectReason::kQuotaExceeded), 1u);
    EXPECT_EQ(metrics
                  .GetCounter("scec_serve_reject_total",
                              {{"reason", "quota_exceeded"}})
                  .value(),
              1u);
  }

  // Global queue limit: typed kQueueFull before the per-tenant FIFO fills.
  {
    obs::MetricsRegistry metrics;
    ServeOptions options;
    options.admission.global_queue_limit = 2;
    options.metrics = &metrics;
    ServeCoordinator<double> coordinator(1, DeployFnFor(worlds), options);
    ASSERT_TRUE(coordinator.Submit(0, DeadlineClass::kBulk, x, 0.0).admitted());
    ASSERT_TRUE(coordinator.Submit(0, DeadlineClass::kBulk, x, 0.0).admitted());
    const auto rejected = coordinator.Submit(0, DeadlineClass::kBulk, x, 0.0);
    EXPECT_EQ(rejected.reason, RejectReason::kQueueFull);
    EXPECT_EQ(rejected.status.code(), ErrorCode::kResourceExhausted);
    EXPECT_EQ(metrics
                  .GetCounter("scec_serve_reject_total",
                              {{"reason", "queue_full"}})
                  .value(),
              1u);
  }

  // Deadline gate: a virtual 100ms panel service makes interactive (5ms)
  // infeasible once the estimator warms, while bulk (500ms) still fits.
  {
    obs::MetricsRegistry metrics;
    ServeOptions options;
    options.batching.max_batch = 1;
    options.admission.shed_infeasible = true;
    options.service_model = [](size_t) { return 0.1; };
    options.metrics = &metrics;
    ServeCoordinator<double> coordinator(1, DeployFnFor(worlds), options);
    double now = 0.0;
    for (int i = 0; i < 8; ++i) {  // warm the estimator past min_samples
      ASSERT_TRUE(
          coordinator.Submit(0, DeadlineClass::kBulk, x, now).admitted());
      coordinator.Pump(now, /*flush=*/true);
      now += 1.0;
    }
    const auto rejected =
        coordinator.Submit(0, DeadlineClass::kInteractive, x, now);
    EXPECT_EQ(rejected.reason, RejectReason::kDeadlineInfeasible);
    EXPECT_EQ(rejected.status.code(), ErrorCode::kInfeasible);
    EXPECT_TRUE(
        coordinator.Submit(0, DeadlineClass::kBulk, x, now).admitted());
    EXPECT_EQ(metrics
                  .GetCounter("scec_serve_reject_total",
                              {{"reason", "deadline_infeasible"}})
                  .value(),
              1u);
  }

  // Brownout: virtual panels blow every budget, the breaker trips, and the
  // front door rejects kBrownout/kUnavailable.
  {
    obs::MetricsRegistry metrics;
    ServeOptions options;
    options.batching.max_batch = 1;
    options.breaker.enabled = true;
    options.breaker.window = 4;
    options.breaker.min_samples = 2;
    options.breaker.open_cooldown_s = 100.0;
    options.service_model = [](size_t) { return 10.0; };
    options.metrics = &metrics;
    ServeCoordinator<double> coordinator(1, DeployFnFor(worlds), options);
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          coordinator.Submit(0, DeadlineClass::kBulk, x, 0.0).admitted());
    }
    coordinator.Pump(0.0, /*flush=*/true);  // two blown budgets: trips
    EXPECT_EQ(coordinator.breaker().state(), BreakerState::kOpen);
    const auto rejected = coordinator.Submit(0, DeadlineClass::kBulk, x, 1.0);
    EXPECT_EQ(rejected.reason, RejectReason::kBrownout);
    EXPECT_EQ(rejected.status.code(), ErrorCode::kUnavailable);
    EXPECT_EQ(metrics
                  .GetCounter("scec_serve_reject_total",
                              {{"reason", "brownout"}})
                  .value(),
              1u);
  }
}

TEST(ServeCoordinator, LadderShedsQueuedBallastAsExplicitCompletions) {
  std::map<uint64_t, World> worlds;
  worlds.emplace(0, World(0));
  std::map<uint64_t, DeploymentSession<double>> reference;
  reference.emplace(0, worlds.at(0).Deploy());

  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.batching.max_batch = 16;  // nothing closes FULL in this test
  options.admission.global_queue_limit = 4;  // pressure = depth / 4
  options.overload.enabled = true;
  options.overload.dwell_s = 0.01;
  options.metrics = &metrics;
  ServeCoordinator<double> coordinator(1, DeployFnFor(worlds), options);

  // Two bulk queries queue at low pressure (depth 2/4 crosses enter[0]=0.5
  // only on the NEXT submission's update), then two standard fill the queue.
  std::map<uint64_t, std::vector<double>> expected;
  const auto submit = [&](DeadlineClass cls, uint64_t seed, double now) {
    const auto x = Column(worlds.at(0).a, worlds.at(0).problem.l, seed);
    const auto result = coordinator.Submit(0, cls, x, now);
    if (result.admitted()) expected[result.ticket] = reference.at(0).Serve(x);
    return result;
  };
  ASSERT_TRUE(submit(DeadlineClass::kBulk, 6000, 0.0).admitted());
  ASSERT_TRUE(submit(DeadlineClass::kBulk, 6001, 0.0).admitted());
  ASSERT_TRUE(submit(DeadlineClass::kStandard, 6002, 0.0).admitted());
  ASSERT_TRUE(submit(DeadlineClass::kStandard, 6003, 0.0).admitted());

  // Depth 4/4 = full pressure: the ladder tops out and a bulk submission is
  // refused at the door...
  EXPECT_EQ(submit(DeadlineClass::kBulk, 6004, 0.0).reason,
            RejectReason::kOverloadShed);
  EXPECT_EQ(coordinator.governor().level(), OverloadLevel::kRejectStandard);

  // ...and the next Pump converts the queued bulk AND standard ballast into
  // explicit shed completions. Nothing is silently dropped.
  const auto completions = coordinator.Pump(0.0);
  size_t shed_count = 0;
  for (const auto& done : completions) {
    EXPECT_TRUE(done.shed);
    EXPECT_EQ(done.shed_reason, RejectReason::kOverloadShed);
    EXPECT_TRUE(done.result.empty());
    ++shed_count;
  }
  EXPECT_EQ(shed_count, 4u);
  EXPECT_EQ(coordinator.shed(), 4u);
  EXPECT_EQ(coordinator.QueueDepth(), 0u);
  EXPECT_EQ(metrics
                .GetCounter("scec_overload_shed_total", {{"class", "bulk"}})
                .value(),
            2u);
  EXPECT_EQ(metrics
                .GetCounter("scec_overload_shed_total",
                            {{"class", "standard"}})
                .value(),
            2u);
  EXPECT_EQ(metrics.GetCounter("scec_serve_shed_total").value(), 4u);

  // After the drain the ladder walks home and serving resumes; served
  // results are still bit-identical to the scalar path — rung churn must
  // never perturb the coded panel answers.
  double now = 0.0;
  while (coordinator.governor().level() != OverloadLevel::kNormal) {
    now += 0.011;
    coordinator.Pump(now);
    ASSERT_LT(now, 10.0) << "ladder never de-escalated";
  }
  expected.clear();
  const auto result = submit(DeadlineClass::kInteractive, 6005, now);
  ASSERT_TRUE(result.admitted());
  const auto served = coordinator.Pump(now + 1.0, /*flush=*/true);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_FALSE(served[0].shed);
  const auto& want = expected.at(served[0].ticket);
  ASSERT_EQ(served[0].result.size(), want.size());
  for (size_t row = 0; row < want.size(); ++row) {
    EXPECT_EQ(served[0].result[row], want[row]);
  }
}

TEST(ServeCoordinator, ReputationSteersPlacementAwayFromQuarantined) {
  std::map<uint64_t, World> worlds;
  worlds.emplace(0, World(0));

  sim::ReputationOptions rep_options;
  rep_options.enabled = true;
  sim::ReputationTracker tracker(3, rep_options);
  // Lane 1 is caught lying: quarantined, must receive no batches.
  tracker.RecordCorrupt(1);
  ASSERT_FALSE(tracker.Usable(1));

  obs::MetricsRegistry metrics;
  ServeOptions options;
  options.batching.max_batch = 1;
  options.num_replicas = 3;
  options.reputation = &tracker;
  options.metrics = &metrics;
  ServeCoordinator<double> coordinator(1, DeployFnFor(worlds), options);

  const auto x = Column(worlds.at(0).a, worlds.at(0).problem.l, 4000);
  std::vector<size_t> lanes;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        coordinator.Submit(0, DeadlineClass::kStandard, x, 0.0).admitted());
    for (const auto& done : coordinator.Pump(0.0, /*flush=*/true)) {
      lanes.push_back(done.replica);
    }
  }
  ASSERT_EQ(lanes.size(), 12u);
  for (const size_t lane : lanes) {
    EXPECT_NE(lane, 1u) << "batch placed on a quarantined replica";
  }
}

}  // namespace
}  // namespace scec::serve
