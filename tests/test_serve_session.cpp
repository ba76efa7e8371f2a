// SPDX-License-Identifier: MIT
//
// Session-layer tests (core/pipeline.h): DeploymentSession::Open draws the
// identical rng stream as the free Deploy() (so PR 6's seeded artifacts and
// every chaos seed stay bit-identical through the refactor), Serve /
// ServeBatch / QuerySession agree with the free-function paths, pad
// generations advance monotonically into protocol options, and the
// session-based protocol driver constructor adopts generation and journal.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "linalg/matrix_ops.h"
#include "recovery/journal.h"
#include "recovery/coordinator.h"
#include "workload/distributions.h"

namespace scec {
namespace {

struct Rig {
  McscecProblem problem;
  Matrix<double> a;

  Rig(size_t m, size_t l, size_t k, uint64_t seed) {
    Xoshiro256StarStar rng(seed);
    McscecProblem p;
    p.m = m;
    p.l = l;
    for (size_t j = 0; j < k; ++j) {
      EdgeDevice device;
      device.name = "edge-" + std::to_string(j);
      device.costs.comm = rng.NextDouble(1.0, 5.0);
      device.compute_rate_flops = 1e9;
      device.uplink_bps = 1e8;
      device.downlink_bps = 1e8;
      device.link_latency_s = 1e-3;
      p.fleet.Add(device);
    }
    problem = std::move(p);
    ChaCha20Rng arng(seed + 1);
    a = RandomMatrix<double>(m, l, arng);
  }
};

TEST(DeploymentSession, OpenDrawsTheSameRngStreamAsFreeDeploy) {
  const Rig rig(20, 6, 7, 11);

  ChaCha20Rng free_rng(99);
  const auto free_deploy = Deploy(rig.problem, rig.a, free_rng);
  ASSERT_TRUE(free_deploy.ok()) << free_deploy.status();

  ChaCha20Rng session_rng(99);
  auto session =
      DeploymentSession<double>::Open(rig.problem, rig.a, session_rng);
  ASSERT_TRUE(session.ok()) << session.status();

  // Bit-identical shares AND bit-identical post-deploy rng position: the
  // session layer must be invisible to every downstream seed derivation.
  ASSERT_EQ(session->deployment().shares.size(), free_deploy->shares.size());
  for (size_t d = 0; d < free_deploy->shares.size(); ++d) {
    const auto& lhs = session->deployment().shares[d].coded_rows;
    const auto& rhs = free_deploy->shares[d].coded_rows;
    ASSERT_EQ(lhs.rows(), rhs.rows());
    ASSERT_EQ(lhs.cols(), rhs.cols());
    for (size_t i = 0; i < lhs.rows(); ++i) {
      for (size_t j = 0; j < lhs.cols(); ++j) {
        ASSERT_EQ(lhs(i, j), rhs(i, j)) << "device " << d;
      }
    }
  }
  EXPECT_EQ(session_rng.NextUint64(), free_rng.NextUint64());
}

TEST(DeploymentSession, ServePathsAgreeWithFreeFunctions) {
  const Rig rig(24, 8, 8, 12);
  ChaCha20Rng rng(7);
  auto session =
      DeploymentSession<double>::Open(rig.problem, rig.a, rng);
  ASSERT_TRUE(session.ok()) << session.status();

  ChaCha20Rng xrng(8);
  const auto x = RandomVector<double>(rig.problem.l, xrng);
  const auto expected = Query(session->deployment(), x);
  EXPECT_EQ(session->Serve(x), expected);

  QuerySession<double> stream = session->OpenQuery();
  const auto streamed = stream.Serve(x);
  EXPECT_EQ(std::vector<double>(streamed.begin(), streamed.end()), expected);

  Matrix<double> panel(rig.problem.l, 5);
  for (size_t c = 0; c < 5; ++c) {
    for (size_t i = 0; i < rig.problem.l; ++i) panel(i, c) = x[i];
  }
  const auto batched = session->ServeBatch(panel);
  ASSERT_EQ(batched.rows(), expected.size());
  for (size_t c = 0; c < 5; ++c) {
    for (size_t row = 0; row < expected.size(); ++row) {
      ASSERT_EQ(batched(row, c), expected[row]) << "col " << c;
    }
  }

  EXPECT_EQ(session->queries_served(), 1u + 1u + 5u);
  EXPECT_EQ(session->batches_served(), 1u);
  EXPECT_EQ(stream.served(), 1u);
}

TEST(DeploymentSession, PadGenerationsAdvanceMonotonically) {
  const Rig rig(16, 5, 6, 13);
  ChaCha20Rng rng(21);
  auto session =
      DeploymentSession<double>::Open(rig.problem, rig.a, rng);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ(session->pad_generation(), 0u);
  EXPECT_EQ(session->AdvancePadGeneration(), 1u);
  EXPECT_EQ(session->AdvancePadGeneration(), 2u);
  session->set_pad_generation(7);
  EXPECT_EQ(session->pad_generation(), 7u);

  // Move transfers generation and counters.
  session->Serve(RandomVector<double>(rig.problem.l, rng));
  DeploymentSession<double> moved = std::move(*session);
  EXPECT_EQ(moved.pad_generation(), 7u);
  EXPECT_EQ(moved.queries_served(), 1u);
}

TEST(DeploymentSession, ProtocolCtorAdoptsGenerationAndJournal) {
  const Rig rig(20, 6, 7, 14);
  ChaCha20Rng rng(31);
  auto session =
      DeploymentSession<double>::Open(rig.problem, rig.a, rng);
  ASSERT_TRUE(session.ok()) << session.status();
  session->set_pad_generation(3);

  std::ostringstream journal_stream;
  recovery::QueryJournal journal(&journal_stream, /*snapshot_crc=*/0);
  session->AttachJournal(&journal);
  EXPECT_EQ(session->journal(), &journal);

  net::SimTransport transport(rig.problem.fleet.devices(), {});
  net::NetCoordinator driver(*session, rig.a, rig.problem.fleet,
                             recovery::SimDriverOptions());
  EXPECT_EQ(driver.stats().generation, 3u);
  ASSERT_TRUE(driver.Setup(&transport).ok());
  ChaCha20Rng xrng(32);
  const auto x = RandomVector<double>(rig.problem.l, xrng);
  const auto expected = MatVec(rig.a, std::span<const double>(x));
  const auto decoded = driver.Query(x);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*decoded),
                       std::span<const double>(expected)),
            1e-9);
  // The session's journal came along: staging + query events were recorded.
  EXPECT_GT(journal.events_appended(), 0u);
}

TEST(QuerySession, NullSessionIsRejected) {
  EXPECT_DEATH(QuerySession<double>(nullptr), "");
}

}  // namespace
}  // namespace scec
