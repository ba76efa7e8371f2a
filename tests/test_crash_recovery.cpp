// SPDX-License-Identifier: MIT
//
// DurableCoordinator end-to-end: kill the coordinator at every named
// protocol point, restart it from the sealed snapshot + surviving journal
// bytes, and prove the restarted incarnation (a) answers every query
// exactly, (b) never double-serves a committed result, (c) never re-pays
// for a journaled response, and (d) keeps the cumulative Def. 2 view
// ITS-secure — no pad stream is replayed across the restart.

#include "recovery/coordinator.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix_ops.h"
#include "obs/metrics.h"
#include "recovery/crash.h"
#include "replay_differential.h"
#include "workload/device_profiles.h"

namespace scec::recovery {
namespace {

struct Fixture {
  McscecProblem problem;
  Matrix<double> a;
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> expected;
  Deployment<double> deployment;
};

Fixture MakeFixture(uint64_t seed, size_t queries = 3) {
  Fixture f;
  Xoshiro256StarStar rng(seed);
  f.problem.m = 8;
  f.problem.l = 6;
  f.problem.fleet = MakeCampusFleet(8, rng);
  f.a = RandomMatrix<double>(f.problem.m, f.problem.l, rng);
  for (size_t q = 0; q < queries; ++q) {
    f.xs.push_back(RandomVector<double>(f.problem.l, rng));
    f.expected.push_back(MatVec(f.a, std::span<const double>(f.xs.back())));
  }
  ChaCha20Rng coding_rng(seed ^ 0xC0DEull);
  auto deployment = Deploy(f.problem, f.a, coding_rng);
  EXPECT_TRUE(deployment.ok());
  f.deployment = *std::move(deployment);
  return f;
}

bool CloseEnough(const std::vector<double>& got,
                 const std::vector<double>& want) {
  return MaxAbsDiff(std::span<const double>(got),
                    std::span<const double>(want)) < 1e-9;
}

// Runs the full kill/restart drill for one crash spec and returns the
// answers actually delivered (from the live run, the journal, or the
// resumed query). Also exposes the combined journal for ledger checks.
struct DrillResult {
  bool crashed = false;
  std::vector<std::optional<std::vector<double>>> answers;
  std::string snapshot;
  std::string journal;
  std::string journal_at_crash;  // what the restart replayed
  uint64_t resumed_responses = 0;
  uint64_t restored_segments = 0;
  bool all_secure = false;
  uint32_t generation = 0;
};

DrillResult RunDrill(const Fixture& f, const CrashSpec& spec,
                     size_t byzantine_tolerance = 0) {
  DrillResult out;
  out.answers.assign(f.xs.size(), std::nullopt);

  CrashInjector injector(spec);
  DurableCoordinatorOptions options;
  options.sealing_key = 0x5EA1ull;
  options.seal_salt = 0x7A17ull;
  options.driver.byzantine_tolerance = byzantine_tolerance;
  options.crash_probe = [&injector](const JournalEvent& event) {
    return injector.Decide(event);
  };

  std::ostringstream journal_gen0;
  std::ostringstream journal_gen1;
  std::unique_ptr<DurableCoordinator> coordinator;
  size_t next = 0;
  try {
    auto started =
        DurableCoordinator::Start(f.deployment, &f.a,
                                  f.problem.fleet.devices(), &out.snapshot,
                                  &journal_gen0, options);
    EXPECT_TRUE(started.ok()) << started.status();
    if (started.ok()) {
      coordinator = std::move(*started);
      for (; next < f.xs.size(); ++next) {
        auto result = coordinator->Query(f.xs[next]);
        EXPECT_TRUE(result.ok()) << result.status();
        if (result.ok()) out.answers[next] = *std::move(result);
      }
    }
  } catch (const CoordinatorCrash&) {
    out.crashed = true;
  }
  EXPECT_EQ(out.crashed, injector.fired());

  if (out.crashed) {
    coordinator.reset();  // the dead incarnation's callbacks must not outlive it
    out.journal_at_crash = journal_gen0.str();
    auto restarted = DurableCoordinator::Restart(
        out.snapshot, journal_gen0.str(), &f.a, f.problem.fleet.devices(),
        &journal_gen1, options);
    EXPECT_TRUE(restarted.ok()) << restarted.status();
    if (!restarted.ok()) return out;
    coordinator = std::move(*restarted);
    for (const auto& [id, result] : coordinator->replay().completed) {
      EXPECT_LT(id, out.answers.size());
      if (id >= out.answers.size()) continue;
      if (out.answers[id].has_value()) {
        // Both the live run and the journal know this answer (crash landed
        // after the result commit but before the caller saw it elsewhere);
        // they must agree.
        EXPECT_EQ(*out.answers[id], result);
      }
      out.answers[id] = result;
    }
    next = coordinator->replay().next_query_id;
    if (coordinator->has_in_flight()) {
      const uint64_t id = coordinator->replay().in_flight_id;
      auto result = coordinator->ResumeInFlight();
      EXPECT_TRUE(result.ok()) << result.status();
      EXPECT_LT(id, out.answers.size());
      if (result.ok() && id < out.answers.size()) {
        out.answers[id] = *std::move(result);
      }
    }
    for (; next < f.xs.size(); ++next) {
      auto result = coordinator->Query(f.xs[next]);
      EXPECT_TRUE(result.ok()) << result.status();
      if (result.ok()) out.answers[next] = *std::move(result);
    }
  }

  out.resumed_responses =
      coordinator->driver().stats().resumed_responses;
  out.restored_segments =
      coordinator->driver().stats().restored_segments;
  out.all_secure = coordinator->driver().VerifyCumulativeSecurity().all_secure;
  out.generation = coordinator->generation();
  out.journal = journal_gen0.str() + journal_gen1.str();
  return out;
}

TEST(CrashRecovery, EveryCrashPointRecoversEveryAnswerExactly) {
  const Fixture f = MakeFixture(21);
  const CrashPoint points[] = {
      CrashPoint::kAfterStage,         CrashPoint::kOnQueryBegin,
      CrashPoint::kOnDispatch,         CrashPoint::kOnResponse,
      CrashPoint::kOnSegmentAdded,     CrashPoint::kOnEvict,
      CrashPoint::kBeforeResultCommit, CrashPoint::kAfterResultCommit,
  };
  for (const CrashPoint point : points) {
    for (const bool lose_tail : {false, true}) {
      SCOPED_TRACE(std::string(CrashPointName(point)) +
                   (lose_tail ? " lose_tail" : ""));
      CrashSpec spec;
      spec.point = point;
      spec.occurrence = 1;
      spec.lose_tail = lose_tail;
      // byzantine_tolerance = 1 provisions a guard segment so
      // kOnSegmentAdded is actually reachable on this healthy fleet.
      const DrillResult drill = RunDrill(f, spec, /*byzantine_tolerance=*/1);
      // kOnEvict never fires on a healthy fleet — the episode then runs
      // un-crashed, which must ALSO produce every answer.
      for (size_t q = 0; q < f.xs.size(); ++q) {
        ASSERT_TRUE(drill.answers[q].has_value()) << "query " << q;
        EXPECT_TRUE(CloseEnough(*drill.answers[q], f.expected[q]))
            << "query " << q;
      }
      EXPECT_TRUE(drill.all_secure);
      if (drill.crashed) {
        EXPECT_EQ(drill.generation, 1u);
      }
    }
  }
}

// The restart's single-pass replay against LoadJournal + BuildReplayState
// on the journal each crash point leaves, and on the combined journal after
// the restarted incarnation finished the run.
TEST(CrashRecovery, SinglePassReplayMatchesTheTwoStepReplayAtEveryCrashPoint) {
  const Fixture f = MakeFixture(27);
  const CrashPoint points[] = {
      CrashPoint::kAfterStage,         CrashPoint::kOnQueryBegin,
      CrashPoint::kOnDispatch,         CrashPoint::kOnResponse,
      CrashPoint::kOnSegmentAdded,     CrashPoint::kOnEvict,
      CrashPoint::kBeforeResultCommit, CrashPoint::kAfterResultCommit,
  };
  for (const CrashPoint point : points) {
    for (const bool lose_tail : {false, true}) {
      SCOPED_TRACE(std::string(CrashPointName(point)) +
                   (lose_tail ? " lose_tail" : ""));
      CrashSpec spec;
      spec.point = point;
      spec.occurrence = 1;
      spec.lose_tail = lose_tail;
      const DrillResult drill = RunDrill(f, spec, /*byzantine_tolerance=*/1);
      // kOnEvict never fires on a healthy fleet; every other point does.
      EXPECT_EQ(drill.crashed, point != CrashPoint::kOnEvict);
      if (drill.crashed) {
        testutil::ExpectSinglePassMatchesTwoStep(drill.journal_at_crash);
      }
      testutil::ExpectSinglePassMatchesTwoStep(drill.journal);
    }
  }
}

TEST(CrashRecovery, CommittedResultSurvivesTheCrashExactlyOnce) {
  const Fixture f = MakeFixture(22);
  CrashSpec spec;
  spec.point = CrashPoint::kAfterResultCommit;
  spec.occurrence = 1;  // die the instant query 0's result is durable
  const DrillResult drill = RunDrill(f, spec);
  ASSERT_TRUE(drill.crashed);

  const auto replay = LoadJournal(drill.journal);
  ASSERT_TRUE(replay.ok()) << replay.status();
  const auto state = BuildReplayState(*replay);
  ASSERT_TRUE(state.ok()) << state.status();
  // Query 0's answer came from the journal, not a re-run...
  bool found = false;
  for (const auto& [id, result] : state->completed) {
    if (id == 0) {
      found = true;
      EXPECT_TRUE(CloseEnough(result, f.expected[0]));
    }
  }
  EXPECT_TRUE(found);
  // ...and exactly one result record exists per query across the combined
  // journal: the restart never re-ran an already-committed query.
  std::map<uint64_t, size_t> results_per_query;
  for (const JournalEvent& event : replay->events) {
    if (event.kind == JournalEventKind::kQueryResult) {
      ++results_per_query[event.query_id];
    }
  }
  EXPECT_EQ(results_per_query.size(), f.xs.size());
  for (const auto& [id, count] : results_per_query) {
    EXPECT_EQ(count, 1u) << "query " << id;
  }
}

TEST(CrashRecovery, ResumedQueryNeverRedispatchesPaidShares) {
  const Fixture f = MakeFixture(23);
  CrashSpec spec;
  spec.point = CrashPoint::kOnResponse;
  spec.occurrence = 2;  // die with query 0 in flight, 2 responses durable
  const DrillResult drill = RunDrill(f, spec);
  ASSERT_TRUE(drill.crashed);
  EXPECT_GE(drill.resumed_responses, 1u);

  const auto replay = LoadJournal(drill.journal);
  ASSERT_TRUE(replay.ok()) << replay.status();

  // Walk the combined journal: collect the base-segment shares paid for
  // before the restart marker, then demand generation 1 never dispatched
  // any of them again for the resumed query.
  std::set<uint64_t> paid_locals;
  uint64_t in_flight = 0;
  bool have_in_flight = false;
  for (const JournalEvent& event : replay->events) {
    if (event.generation == 0) {
      if (event.kind == JournalEventKind::kQueryBegin) {
        in_flight = event.query_id;
        have_in_flight = true;
      }
      if (event.kind == JournalEventKind::kResponse && event.segment == 0) {
        paid_locals.insert(event.local);
      }
    } else if (event.kind == JournalEventKind::kDispatch &&
               event.attempt >= 1 && event.segment == 0 && have_in_flight &&
               event.query_id == in_flight) {
      EXPECT_EQ(paid_locals.count(event.local), 0u)
          << "share " << event.local << " was billed twice";
    }
  }
  EXPECT_TRUE(have_in_flight);
  EXPECT_EQ(drill.resumed_responses, paid_locals.size());
}

TEST(CrashRecovery, PriorGenerationPadsStayInTheSecurityLedger) {
  const Fixture f = MakeFixture(24);
  CrashSpec spec;
  spec.point = CrashPoint::kOnQueryBegin;
  spec.occurrence = 1;  // die after staging journaled the guard segment
  const DrillResult drill = RunDrill(f, spec, /*byzantine_tolerance=*/1);
  ASSERT_TRUE(drill.crashed);
  // The restarted coordinator re-accounted the dead generation's guard pads
  // and its cumulative view — old pad columns plus its own fresh ones —
  // still verifies Def. 2 exactly.
  EXPECT_GE(drill.restored_segments, 1u);
  EXPECT_TRUE(drill.all_secure);
}

TEST(CrashRecovery, JournalFromAnotherSnapshotRejected) {
  const Fixture f = MakeFixture(25);
  DurableCoordinatorOptions options;
  options.sealing_key = 0x5EA1ull;
  options.seal_salt = 1;

  std::string snapshot_a;
  std::ostringstream journal_a;
  auto a = DurableCoordinator::Start(f.deployment, &f.a,
                                     f.problem.fleet.devices(), &snapshot_a,
                                     &journal_a, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*a)->Query(f.xs[0]).ok());

  options.seal_salt = 2;  // different salt -> different sealed bytes + CRC
  std::string snapshot_b;
  std::ostringstream journal_b;
  auto b = DurableCoordinator::Start(f.deployment, &f.a,
                                     f.problem.fleet.devices(), &snapshot_b,
                                     &journal_b, options);
  ASSERT_TRUE(b.ok());

  std::ostringstream tail;
  const auto restarted = DurableCoordinator::Restart(
      snapshot_b, journal_a.str(), &f.a, f.problem.fleet.devices(), &tail,
      options);
  EXPECT_FALSE(restarted.ok());
  EXPECT_EQ(restarted.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(CrashRecovery, TornTailIsCountedWhenTheSnapshotBindingFails) {
  const Fixture f = MakeFixture(28);
  DurableCoordinatorOptions options;
  options.sealing_key = 0x5EA1ull;
  std::string snapshot;
  std::ostringstream journal;
  auto started = DurableCoordinator::Start(f.deployment, &f.a,
                                           f.problem.fleet.devices(),
                                           &snapshot, &journal, options);
  ASSERT_TRUE(started.ok());
  ASSERT_TRUE((*started)->Query(f.xs[0]).ok());
  started->reset();

  // The binding check fails before any record is folded; the torn tail is
  // still counted, as when the whole journal was loaded first.
  std::string other_snapshot = snapshot;
  other_snapshot.back() = static_cast<char>(other_snapshot.back() ^ 1);
  const obs::Counter& torn_tails =
      obs::MetricsRegistry::Global().GetCounter("scec_recovery_torn_tails_total");
  const uint64_t before = torn_tails.value();
  std::ostringstream tail;
  const auto restarted = DurableCoordinator::Restart(
      other_snapshot, journal.str() + "torn", &f.a, f.problem.fleet.devices(),
      &tail, options);
  EXPECT_EQ(restarted.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(torn_tails.value(), before + 1);
}

TEST(CrashRecovery, TornJournalTailStillRestarts) {
  const Fixture f = MakeFixture(26);
  DurableCoordinatorOptions options;
  options.sealing_key = 0x5EA1ull;

  std::string snapshot;
  std::ostringstream journal;
  auto started = DurableCoordinator::Start(f.deployment, &f.a,
                                           f.problem.fleet.devices(),
                                           &snapshot, &journal, options);
  ASSERT_TRUE(started.ok());
  ASSERT_TRUE((*started)->Query(f.xs[0]).ok());
  ASSERT_TRUE((*started)->Query(f.xs[1]).ok());
  started->reset();

  // A real kill can leave a half-written record at the end of the file; the
  // restart must recover the committed prefix, not reject the journal.
  std::string torn = journal.str() + std::string("\x13\x37garbage");
  std::ostringstream tail;
  const auto restarted = DurableCoordinator::Restart(
      snapshot, torn, &f.a, f.problem.fleet.devices(), &tail, options);
  ASSERT_TRUE(restarted.ok()) << restarted.status();
  EXPECT_EQ((*restarted)->replay().completed.size(), 2u);
  const auto result = (*restarted)->Query(f.xs[2]);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(CloseEnough(*result, f.expected[2]));
}

}  // namespace
}  // namespace scec::recovery
