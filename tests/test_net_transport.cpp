// SPDX-License-Identifier: MIT
//
// Transport-layer and driver tests: the SimTransport's deterministic
// behaviors, end-to-end queries over real sockets, the invariant that on a
// fault-free run the NetCoordinator's protocol decision sequence is
// IDENTICAL over the simulator and over a live loopback scecd cluster, and
// the driver's masking and journaled resume over real sockets.

#include "net/transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "linalg/matrix_ops.h"
#include "net/chaos_proxy.h"
#include "net/driver.h"
#include "net/scecd.h"
#include "net/sim_transport.h"
#include "net/socket_transport.h"
#include "op_ledger_cost.h"
#include "recovery/crash.h"
#include "recovery/journal.h"
#include "sim/faults.h"

namespace scec::net {
namespace {

std::vector<EdgeDevice> MakeSpecs(size_t k) {
  std::vector<EdgeDevice> specs;
  for (size_t d = 0; d < k; ++d) {
    EdgeDevice device;
    device.name = "dev-" + std::to_string(d);
    device.costs.comm = 1.0 + 0.2 * static_cast<double>(d);
    device.compute_rate_flops = 1e9;
    device.uplink_bps = 1e8;
    device.downlink_bps = 1e8;
    device.link_latency_s = 1e-3;
    specs.push_back(device);
  }
  return specs;
}

Matrix<double> MakeMatrix(size_t m, size_t l) {
  Matrix<double> a(m, l);
  Xoshiro256StarStar rng(99);
  for (double& value : a.Data()) value = 2.0 * rng.NextDouble() - 1.0;
  return a;
}

Matrix<double> MakeShare(size_t rows, size_t cols, double scale) {
  Matrix<double> share(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      share(r, c) = scale * static_cast<double>(r + 1) +
                    static_cast<double>(c);
    }
  }
  return share;
}

// Polls until `count` completions arrive (or a generous poll budget runs
// out — failure then shows as a count mismatch, not a hang).
std::vector<Completion> PollN(Transport* transport, size_t count) {
  std::vector<Completion> out;
  for (int i = 0; i < 2000 && out.size() < count; ++i) {
    transport->PollInto(&out, 0.05);
  }
  return out;
}

TEST(SimTransport, QueryComputesShareTimesX) {
  SimTransport transport(MakeSpecs(2), SimTransportOptions{});
  Matrix<double> share = MakeShare(3, 4, 2.0);
  ASSERT_TRUE(transport.StageShare(0, 1, share).ok());
  std::vector<double> x = {1.0, -1.0, 0.5, 2.0};
  transport.SubmitQuery(0, 1, x, 1.0, 0.0);
  std::vector<Completion> done = PollN(&transport, 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].kind, Completion::Kind::kResponse);
  std::vector<double> expected(3);
  MatVecInto(share, std::span<const double>(x), std::span<double>(expected));
  ASSERT_EQ(done[0].values.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(done[0].values[i], expected[i]);
  }
  EXPECT_EQ(transport.stats().responses_delivered, 1u);
}

TEST(SimTransport, SilentDeviceTimesOutAndCorruptDeviceLies) {
  sim::FaultSchedule faults;
  faults.AddOmission(0);
  faults.AddCorruption(1, 0.0, /*element=*/0, /*delta=*/1.0);
  SimTransportOptions options;
  options.faults = &faults;
  SimTransport transport(MakeSpecs(2), options);
  ASSERT_TRUE(transport.StageShare(0, 1, MakeShare(2, 2, 1.0)).ok());
  ASSERT_TRUE(transport.StageShare(1, 2, MakeShare(2, 2, 1.0)).ok());
  std::vector<double> x = {1.0, 1.0};
  const uint64_t silent = transport.SubmitQuery(0, 1, x, 0.05, 0.0);
  const uint64_t lying = transport.SubmitQuery(1, 2, x, 0.05, 0.0);
  std::vector<Completion> done = PollN(&transport, 2);
  ASSERT_EQ(done.size(), 2u);
  for (const Completion& completion : done) {
    if (completion.id == silent) {
      EXPECT_EQ(completion.kind, Completion::Kind::kError);
      EXPECT_EQ(completion.error, NetError::kTimeout);
    } else {
      ASSERT_EQ(completion.id, lying);
      EXPECT_EQ(completion.kind, Completion::Kind::kResponse);
      // Element 0 perturbed by +1.0 (the Byzantine lie).
      Matrix<double> share = MakeShare(2, 2, 1.0);
      std::vector<double> expected(2);
      MatVecInto(share, std::span<const double>(x),
                 std::span<double>(expected));
      EXPECT_DOUBLE_EQ(completion.values[0], expected[0] + 1.0);
    }
  }
  EXPECT_EQ(transport.stats().timeouts, 1u);
}

TEST(SimTransport, StartDelayDefersDispatchAndCancelWorks) {
  SimTransport transport(MakeSpecs(1), SimTransportOptions{});
  ASSERT_TRUE(transport.StageShare(0, 1, MakeShare(1, 1, 1.0)).ok());
  // Alarm at 0.01s, delayed query dispatching at 0.05s: the alarm must
  // complete first even though it was submitted second.
  const uint64_t rpc = transport.SubmitQuery(0, 1, {1.0}, 1.0, 0.05);
  const uint64_t alarm = transport.AddAlarm(0.01);
  std::vector<Completion> first = PollN(&transport, 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].kind, Completion::Kind::kAlarm);
  EXPECT_EQ(first[0].id, alarm);
  // Cancel the still-delayed RPC: no completion must ever surface for it.
  EXPECT_TRUE(transport.Cancel(rpc));
  std::vector<Completion> rest;
  transport.PollInto(&rest, 0.0);
  for (const Completion& completion : rest) {
    EXPECT_NE(completion.id, rpc);
  }
  EXPECT_EQ(transport.stats().cancelled, 1u);
}

TEST(SimTransport, TimedOutRpcDeliversLateAnswerUntilCancelled) {
  std::vector<EdgeDevice> specs = MakeSpecs(1);
  specs[0].compute_rate_flops = 1e2;  // 6 flops per query: 60 ms
  SimTransport transport(specs, SimTransportOptions{});
  ASSERT_TRUE(transport.StageShare(0, 1, MakeShare(2, 2, 1.0)).ok());
  const std::vector<double> x = {1.0, 1.0};

  // The deadline fires first, yet the RPC stays open: its answer arrives.
  const uint64_t late = transport.SubmitQuery(0, 1, x, 0.01, 0.0);
  std::vector<Completion> done = PollN(&transport, 2);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, late);
  EXPECT_EQ(done[0].error, NetError::kTimeout);
  EXPECT_EQ(done[1].id, late);
  EXPECT_EQ(done[1].kind, Completion::Kind::kResponse);
  EXPECT_EQ(done[1].values.size(), 2u);

  // Cancelled after its timeout: the late answer is stale and dropped.
  const uint64_t dropped = transport.SubmitQuery(0, 1, x, 0.01, 0.0);
  std::vector<Completion> timeout = PollN(&transport, 1);
  ASSERT_EQ(timeout.size(), 1u);
  EXPECT_EQ(timeout[0].error, NetError::kTimeout);
  EXPECT_TRUE(transport.Cancel(dropped));
  std::vector<Completion> rest;
  transport.PollInto(&rest, 0.0);
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(transport.stats().timeouts, 2u);
  EXPECT_EQ(transport.stats().responses_delivered, 1u);
  EXPECT_EQ(transport.stats().stale_responses, 1u);
  EXPECT_EQ(transport.stats().staged_value_bytes, 4u * sizeof(double));
}

TEST(SocketTransport, StagesAndQueriesOverRealSockets) {
  ScecDaemon daemon(ScecdOptions{0, 0});
  ASSERT_TRUE(daemon.Start().ok());
  {
    SocketTransport transport({daemon.port()}, SocketTransportOptions{});
    Matrix<double> share = MakeShare(3, 4, 1.5);
    ASSERT_TRUE(transport.StageShare(0, 42, share).ok());
    EXPECT_EQ(daemon.shares_held(), 1u);
    std::vector<double> x = {0.5, 1.0, -1.0, 2.0};
    transport.SubmitQuery(0, 42, x, 2.0, 0.0);
    std::vector<Completion> done = PollN(&transport, 1);
    ASSERT_EQ(done.size(), 1u);
    ASSERT_EQ(done[0].kind, Completion::Kind::kResponse)
        << NetErrorName(done[0].error);
    std::vector<double> expected(3);
    MatVecInto(share, std::span<const double>(x), std::span<double>(expected));
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(done[0].values[i], expected[i]);
    }
    EXPECT_TRUE(transport.Drain(1.0).ok());
  }
  daemon.Stop();
}

TEST(SocketTransport, UnknownShareSurfacesTypedProtocolError) {
  ScecDaemon daemon(ScecdOptions{0, 0});
  ASSERT_TRUE(daemon.Start().ok());
  {
    SocketTransport transport({daemon.port()}, SocketTransportOptions{});
    transport.SubmitQuery(0, 999, {1.0}, 2.0, 0.0);
    std::vector<Completion> done = PollN(&transport, 1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].kind, Completion::Kind::kError);
    EXPECT_EQ(done[0].error, NetError::kProtocol);
  }
  daemon.Stop();
}

TEST(SocketTransport, SilentDaemonHitsDeadline) {
  // An omission event in the daemon's script: it computes, never answers.
  ScecDaemon daemon(ScecdOptions{
      .faults = {sim::FaultEvent{.kind = sim::FaultKind::kOmission}}});
  ASSERT_TRUE(daemon.Start().ok());
  {
    SocketTransport transport({daemon.port()}, SocketTransportOptions{});
    Matrix<double> share = MakeShare(1, 1, 1.0);
    ASSERT_TRUE(transport.StageShare(0, 1, share).ok());
    transport.SubmitQuery(0, 1, {1.0}, 0.2, 0.0);
    std::vector<Completion> done = PollN(&transport, 1);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].kind, Completion::Kind::kError);
    EXPECT_EQ(done[0].error, NetError::kTimeout);
    EXPECT_EQ(transport.stats().timeouts, 1u);
    EXPECT_EQ(transport.stats().responses_delivered, 0u);
  }
  EXPECT_EQ(daemon.ops().mults, 1u) << "an omitting device still computes";
  EXPECT_EQ(daemon.ops().values_returned, 0u);
  daemon.Stop();
}

TEST(SocketTransport, TimedOutRpcStillDeliversLateAnswer) {
  // A slow link, not a slow device: the proxy holds every data frame 0.3 s
  // each way. Heartbeats are held too, so the channel's miss threshold
  // (3 × 0.5 s) must outlast the 0.6 s round trip.
  ScecDaemon daemon(ScecdOptions{0, 0});
  ASSERT_TRUE(daemon.Start().ok());
  ChaosProxy proxy(ChaosProxyOptions{.upstream_port = daemon.port(),
                                     .delay_prob = 1.0,
                                     .delay_s = 0.3});
  ASSERT_TRUE(proxy.Start().ok());
  {
    SocketTransportOptions options;
    options.channel.heartbeat_interval_s = 0.5;
    SocketTransport transport({proxy.port()}, options);
    Matrix<double> share = MakeShare(2, 3, 1.0);
    ASSERT_TRUE(transport.StageShare(0, 1, share).ok());
    const uint64_t rpc = transport.SubmitQuery(0, 1, {1.0, 2.0, 3.0}, 0.05,
                                               0.0);
    std::vector<Completion> done = PollN(&transport, 2);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].id, rpc);
    EXPECT_EQ(done[0].error, NetError::kTimeout);
    EXPECT_EQ(done[1].id, rpc);
    EXPECT_EQ(done[1].kind, Completion::Kind::kResponse);
    EXPECT_EQ(transport.stats().timeouts, 1u);
    EXPECT_EQ(transport.stats().responses_delivered, 1u);
    EXPECT_EQ(transport.stats().staged_value_bytes, 6u * sizeof(double));
  }
  proxy.Stop();
  daemon.Stop();
}

// --- The acceptance invariant: sim-vs-socket decision identity -------------

NetCoordinatorOptions IdentityDriverOptions() {
  NetCoordinatorOptions options;
  options.rpc_deadline_s = 5.0;  // generous: fault-free must not time out
  options.record_trace = true;
  return options;
}

TEST(NetCoordinator, FaultFreeDecisionTraceIdenticalAcrossTransports) {
  const size_t k = 4, m = 10, l = 6, queries = 3;
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  DeviceFleet fleet{specs};
  Matrix<double> a = MakeMatrix(m, l);

  std::vector<double> expected_first(m);

  // Run 1: deterministic simulator.
  std::vector<std::string> sim_trace;
  {
    SimTransport transport(specs, SimTransportOptions{});
    NetCoordinator coordinator(a, fleet, IdentityDriverOptions());
    ASSERT_TRUE(coordinator.Setup(&transport).ok());
    for (size_t q = 0; q < queries; ++q) {
      std::vector<double> x(l);
      for (size_t i = 0; i < l; ++i) x[i] = static_cast<double>(q + i) - 2.0;
      Result<std::vector<double>> answer = coordinator.Query(x);
      ASSERT_TRUE(answer.ok()) << answer.status().message();
      if (q == 0) {
        MatVecInto(a, std::span<const double>(x),
                   std::span<double>(expected_first));
        for (size_t p = 0; p < m; ++p) {
          EXPECT_NEAR((*answer)[p], expected_first[p], 1e-9);
        }
      }
    }
    EXPECT_EQ(coordinator.stats().retries, 0u);
    EXPECT_EQ(coordinator.stats().evictions, 0u);
    sim_trace = coordinator.trace();
  }

  // Run 2: live loopback cluster of scecd daemons.
  std::vector<std::string> socket_trace;
  {
    std::vector<std::unique_ptr<ScecDaemon>> daemons;
    std::vector<uint16_t> ports;
    for (size_t d = 0; d < k; ++d) {
      daemons.push_back(std::make_unique<ScecDaemon>(ScecdOptions{d, 0}));
      ASSERT_TRUE(daemons.back()->Start().ok());
      ports.push_back(daemons.back()->port());
    }
    {
      SocketTransport transport(ports, SocketTransportOptions{});
      NetCoordinator coordinator(a, fleet, IdentityDriverOptions());
      ASSERT_TRUE(coordinator.Setup(&transport).ok());
      for (size_t q = 0; q < queries; ++q) {
        std::vector<double> x(l);
        for (size_t i = 0; i < l; ++i) {
          x[i] = static_cast<double>(q + i) - 2.0;
        }
        Result<std::vector<double>> answer = coordinator.Query(x);
        ASSERT_TRUE(answer.ok()) << answer.status().message();
        if (q == 0) {
          for (size_t p = 0; p < m; ++p) {
            EXPECT_NEAR((*answer)[p], expected_first[p], 1e-9);
          }
        }
      }
      socket_trace = coordinator.trace();
    }
    for (auto& daemon : daemons) daemon->Stop();
  }

  // The tentpole invariant: byte-identical protocol decisions.
  ASSERT_EQ(sim_trace.size(), socket_trace.size());
  for (size_t i = 0; i < sim_trace.size(); ++i) {
    EXPECT_EQ(sim_trace[i], socket_trace[i]) << "decision " << i;
  }
}

TEST(NetCoordinator, MasksByzantineDeviceAndRecovers) {
  const size_t k = 4, m = 8, l = 5;
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  DeviceFleet fleet{specs};
  Matrix<double> a = MakeMatrix(m, l);

  // Fleet device 1 lies on every response.
  sim::FaultSchedule faults;
  faults.AddCorruption(1);
  SimTransportOptions sim_options;
  sim_options.faults = &faults;
  SimTransport transport(specs, sim_options);
  NetCoordinatorOptions options = IdentityDriverOptions();
  options.reputation.enabled = true;
  NetCoordinator coordinator(a, fleet, options);
  ASSERT_TRUE(coordinator.Setup(&transport).ok());

  std::vector<double> x(l, 1.0);
  Result<std::vector<double>> answer = coordinator.Query(x);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  std::vector<double> expected(m);
  MatVecInto(a, std::span<const double>(x), std::span<double>(expected));
  for (size_t p = 0; p < m; ++p) {
    EXPECT_NEAR((*answer)[p], expected[p], 1e-9);
  }
  EXPECT_GE(coordinator.stats().byzantine_flagged, 1u);
  EXPECT_GE(coordinator.stats().recovery_rounds, 1u);
  EXPECT_TRUE(coordinator.VerifyCumulativeSecurity().all_secure);
  EXPECT_EQ(coordinator.reputation().standing(1),
            sim::DeviceStanding::kQuarantined);
}

TEST(NetCoordinator, EvictsSilentDeviceAfterRetryBudget) {
  const size_t k = 4, m = 8, l = 5;
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  DeviceFleet fleet{specs};
  Matrix<double> a = MakeMatrix(m, l);

  sim::FaultSchedule faults;
  faults.AddOmission(2);
  SimTransportOptions sim_options;
  sim_options.faults = &faults;
  SimTransport transport(specs, sim_options);
  NetCoordinatorOptions options = IdentityDriverOptions();
  options.rpc_deadline_s = 0.05;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_s = 0.01;
  NetCoordinator coordinator(a, fleet, options);
  ASSERT_TRUE(coordinator.Setup(&transport).ok());

  std::vector<double> x(l, 0.5);
  Result<std::vector<double>> answer = coordinator.Query(x);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  std::vector<double> expected(m);
  MatVecInto(a, std::span<const double>(x), std::span<double>(expected));
  for (size_t p = 0; p < m; ++p) {
    EXPECT_NEAR((*answer)[p], expected[p], 1e-9);
  }
  EXPECT_GE(coordinator.stats().retries, 1u);
  EXPECT_TRUE(coordinator.evicted(2));
  EXPECT_GE(coordinator.stats().recovery_rounds, 1u);
  EXPECT_TRUE(coordinator.VerifyCumulativeSecurity().all_secure);

  // Next query runs without device 2 from the start and still decodes.
  Result<std::vector<double>> again = coordinator.Query(x);
  ASSERT_TRUE(again.ok()) << again.status().message();
  for (size_t p = 0; p < m; ++p) {
    EXPECT_NEAR((*again)[p], expected[p], 1e-9);
  }
}

TEST(NetCoordinator, HedgeDuplicatesStragglerWithoutDoubleCount) {
  const size_t k = 6, m = 6, l = 4;
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  DeviceFleet fleet{specs};
  // The simulated device 0 (the cheapest, so in the plan) is
  // pathologically slow, while the driver's fleet model says it is fast:
  // its hedge fires at half its 20 ms model deadline, long before its
  // response, and the fresh-pad pair on two idle spares wins the race.
  specs[0].compute_rate_flops = 1e2;
  Matrix<double> a = MakeMatrix(m, l);

  SimTransport transport(specs, SimTransportOptions{});
  NetCoordinatorOptions options = IdentityDriverOptions();
  options.hedging = true;
  options.rpc_deadline_s = 0.02;
  NetCoordinator coordinator(a, fleet, options);
  ASSERT_TRUE(coordinator.Setup(&transport).ok());

  std::vector<double> x(l, 1.0);
  Result<std::vector<double>> answer = coordinator.Query(x);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  std::vector<double> expected(m);
  MatVecInto(a, std::span<const double>(x), std::span<double>(expected));
  for (size_t p = 0; p < m; ++p) {
    EXPECT_NEAR((*answer)[p], expected[p], 1e-9);
  }
  EXPECT_GE(coordinator.stats().hedges_launched, 1u);
  EXPECT_EQ(coordinator.stats().hedge_wins,
            coordinator.stats().hedges_launched);
  // Each slot's value entered the decode exactly once: every dispatch was
  // either a used answer or the cancelled straggler a hedge beat.
  EXPECT_EQ(coordinator.stats().responses_used,
            coordinator.stats().dispatches - coordinator.stats().hedge_wins);
  EXPECT_EQ(coordinator.stats().evictions, 0u);
  EXPECT_EQ(coordinator.stats().timeouts, 0u);
  EXPECT_TRUE(coordinator.VerifyCumulativeSecurity().all_secure);
}

TEST(NetCoordinator, LateAnswerOfTimedOutAttemptSettlesTheSlot) {
  const size_t k = 6, m = 6, l = 4;
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  DeviceFleet fleet{specs};
  // The simulated device 0 (in the plan) answers after 70 ms or more, while
  // the driver's fleet model gives it a 20 ms deadline: every attempt
  // times out, and its retries queue behind the first on the single-core
  // device. Only the first attempt's late answer can settle the slot.
  specs[0].compute_rate_flops = 1e2;
  Matrix<double> a = MakeMatrix(m, l);

  SimTransport transport(specs, SimTransportOptions{});
  NetCoordinatorOptions options = IdentityDriverOptions();
  options.rpc_deadline_s = 0.02;
  options.retry.max_attempts = 6;
  NetCoordinator coordinator(a, fleet, options);
  ASSERT_TRUE(coordinator.Setup(&transport).ok());

  std::vector<double> x(l, 1.0);
  Result<std::vector<double>> answer = coordinator.Query(x);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  std::vector<double> expected(m);
  MatVecInto(a, std::span<const double>(x), std::span<double>(expected));
  for (size_t p = 0; p < m; ++p) {
    EXPECT_NEAR((*answer)[p], expected[p], 1e-9);
  }
  const NetCoordinatorStats& stats = coordinator.stats();
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_FALSE(coordinator.evicted(0));
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.recovery_rounds, 0u);
  EXPECT_EQ(ReconcileLedgers(stats, transport.stats(), l), "");
}

TEST(NetCoordinator, LedgerReconcilesStagedAndResponseBytesExactly) {
  const size_t k = 4, m = 8, l = 5;
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  DeviceFleet fleet{specs};
  SimTransport transport(specs, SimTransportOptions{});
  NetCoordinator coordinator(MakeMatrix(m, l), fleet,
                             IdentityDriverOptions());
  ASSERT_TRUE(coordinator.Setup(&transport).ok());
  ASSERT_TRUE(coordinator.Query(std::vector<double>(l, 1.0)).ok());
  const NetCoordinatorStats& driver = coordinator.stats();
  EXPECT_EQ(ReconcileLedgers(driver, transport.stats(), l), "");

  // Each sub-check trips on its own forged entry.
  NetTransportStats forged = transport.stats();
  forged.staged_value_bytes += 8;
  EXPECT_NE(ReconcileLedgers(driver, forged, l).find("staged bytes"),
            std::string::npos);
  forged = transport.stats();
  forged.response_value_bytes_delivered += 8;
  EXPECT_NE(ReconcileLedgers(driver, forged, l).find("response bytes"),
            std::string::npos);
  // A one-value response drained after the driver stopped polling balances
  // the books, once its device's op ledger bills it too.
  forged.responses_delivered += 1;
  EXPECT_NE(ReconcileLedgers(driver, forged, l, 1, 8).find("returned values"),
            std::string::npos);
  DeviceOps& swept_ops = forged.device_ops[2];
  swept_ops.values_returned += 1;
  swept_ops.mults += l;
  swept_ops.adds += l - 1;
  EXPECT_EQ(ReconcileLedgers(driver, forged, l, 1, 8), "");
  NetCoordinatorStats overused = driver;
  overused.response_value_bytes += 8;
  EXPECT_NE(ReconcileLedgers(overused, transport.stats(), l), "");

  // The op ledger: a forged value count breaks its byte total, and a forged
  // op count breaks the device's Eq. (1) identity, naming the device.
  forged = transport.stats();
  forged.device_ops[1].staged_values += 1;
  EXPECT_NE(ReconcileLedgers(driver, forged, l).find("staged values"),
            std::string::npos);
  for (uint64_t DeviceOps::*count : {&DeviceOps::mults, &DeviceOps::adds}) {
    forged = transport.stats();
    forged.device_ops[3].*count += 1;
    EXPECT_NE(ReconcileLedgers(driver, forged, l).find("device 3 ops"),
              std::string::npos);
  }
}

// Forwards everything to a SimTransport, except that StageShare call number
// `fail_call` (0-based, counted over the transport's lifetime) fails without
// reaching the device. Tallies the rows every successful staging shipped to
// each device: what that device now holds.
class FailingStageTransport : public Transport {
 public:
  explicit FailingStageTransport(SimTransport* inner)
      : inner_(inner), staged_rows_(inner->num_devices(), 0) {}

  void FailStageCall(size_t call) { fail_call_ = call; }
  size_t stage_calls() const { return stage_calls_; }
  size_t staged_rows(size_t device) const { return staged_rows_[device]; }

  size_t num_devices() const override { return inner_->num_devices(); }
  double Now() const override { return inner_->Now(); }
  Status StageShare(size_t device, uint64_t share_id,
                    const Matrix<double>& rows) override {
    if (stage_calls_++ == fail_call_) {
      return Unavailable("injected staging failure");
    }
    Status status = inner_->StageShare(device, share_id, rows);
    if (status.ok()) staged_rows_[device] += rows.rows();
    return status;
  }
  uint64_t SubmitQuery(size_t device, uint64_t share_id,
                       const std::vector<double>& x, double deadline_s,
                       double start_delay_s) override {
    return inner_->SubmitQuery(device, share_id, x, deadline_s,
                               start_delay_s);
  }
  uint64_t AddAlarm(double delay_s) override {
    return inner_->AddAlarm(delay_s);
  }
  bool Cancel(uint64_t id) override { return inner_->Cancel(id); }
  size_t PollInto(std::vector<Completion>* out, double max_wait_s) override {
    return inner_->PollInto(out, max_wait_s);
  }
  const NetTransportStats& stats() const override { return inner_->stats(); }
  Status Drain(double timeout_s) override { return inner_->Drain(timeout_s); }

 private:
  SimTransport* inner_;
  size_t fail_call_ = SIZE_MAX;
  size_t stage_calls_ = 0;
  std::vector<size_t> staged_rows_;
};

TEST(NetCoordinator, FailedRecoveryStagingKeepsStagedRowsInCumulativeViews) {
  const size_t k = 4, m = 8, l = 5;
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  DeviceFleet fleet{specs};
  Matrix<double> a = MakeMatrix(m, l);

  sim::FaultSchedule faults;
  SimTransportOptions sim_options;
  sim_options.faults = &faults;
  SimTransport sim(specs, sim_options);
  FailingStageTransport transport(&sim);
  NetCoordinatorOptions options = IdentityDriverOptions();
  options.rpc_deadline_s = 0.05;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_s = 0.01;
  NetCoordinator coordinator(a, fleet, options);
  ASSERT_TRUE(coordinator.Setup(&transport).ok());

  // Device 2 goes silent, so the query replans its rows; staging slot 1 of
  // that recovery segment fails after slot 0 already holds its share.
  faults.AddOmission(2);
  transport.FailStageCall(transport.stage_calls() + 1);

  std::vector<double> x(l, 0.5);
  Result<std::vector<double>> answer = coordinator.Query(x);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  std::vector<double> expected(m);
  MatVecInto(a, std::span<const double>(x), std::span<double>(expected));
  for (size_t p = 0; p < m; ++p) {
    EXPECT_NEAR((*answer)[p], expected[p], 1e-9);
  }
  EXPECT_EQ(coordinator.stats().evictions, 2u);
  const std::vector<std::string>& trace = coordinator.trace();
  EXPECT_EQ(std::count_if(trace.begin(), trace.end(),
                          [](const std::string& line) {
                            return line.find("error=stage_failed") !=
                                   std::string::npos;
                          }),
            1);

  // Every row a device holds, including the rows of the half-staged
  // segment, is in its cumulative view.
  const SchemeSecurityReport report = coordinator.VerifyCumulativeSecurity();
  EXPECT_TRUE(report.all_secure);
  ASSERT_EQ(report.devices.size(), k);
  for (size_t d = 0; d < k; ++d) {
    EXPECT_EQ(report.devices[d].rows, transport.staged_rows(d))
        << "device " << d;
  }
}

TEST(NetCoordinator, DefaultOptionsRecordNoTrace) {
  const size_t k = 4, m = 8, l = 5;
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  SimTransport transport(specs, SimTransportOptions{});
  NetCoordinator coordinator(MakeMatrix(m, l), DeviceFleet{specs},
                             NetCoordinatorOptions{});
  ASSERT_TRUE(coordinator.Setup(&transport).ok());
  std::vector<double> x(l, 0.25);
  for (int q = 0; q < 100; ++q) ASSERT_TRUE(coordinator.Query(x).ok());
  EXPECT_TRUE(coordinator.trace().empty());
}

// Forwards everything to `inner`, except that every query for `device` names
// a share the device never received: the driver's view of a daemon that
// lost its shares.
class UnknownShareTransport : public Transport {
 public:
  UnknownShareTransport(Transport* inner, size_t device)
      : inner_(inner), device_(device) {}

  size_t num_devices() const override { return inner_->num_devices(); }
  double Now() const override { return inner_->Now(); }
  Status StageShare(size_t device, uint64_t share_id,
                    const Matrix<double>& rows) override {
    return inner_->StageShare(device, share_id, rows);
  }
  uint64_t SubmitQuery(size_t device, uint64_t share_id,
                       const std::vector<double>& x, double deadline_s,
                       double start_delay_s) override {
    if (device == device_) share_id += 1000000;
    return inner_->SubmitQuery(device, share_id, x, deadline_s,
                               start_delay_s);
  }
  uint64_t AddAlarm(double delay_s) override {
    return inner_->AddAlarm(delay_s);
  }
  bool Cancel(uint64_t id) override { return inner_->Cancel(id); }
  size_t PollInto(std::vector<Completion>* out, double max_wait_s) override {
    return inner_->PollInto(out, max_wait_s);
  }
  const NetTransportStats& stats() const override { return inner_->stats(); }
  Status Drain(double timeout_s) override { return inner_->Drain(timeout_s); }

 private:
  Transport* inner_;
  size_t device_;
};

// scecd answers a query for an unknown share with a kProtocol error at once;
// the simulator must do the same, so the driver evicts the device on the
// first error (no retries of an honest device) on either transport.
TEST(NetCoordinator, BadQueryHandledAlikeOnBothTransports) {
  const size_t k = 4, m = 8, l = 5, bad = 0;
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  DeviceFleet fleet{specs};
  Matrix<double> a = MakeMatrix(m, l);
  std::vector<double> x(l, 0.5);
  std::vector<double> expected(m);
  MatVecInto(a, std::span<const double>(x), std::span<double>(expected));

  auto run = [&](Transport* inner, std::vector<std::string>* trace,
                 uint64_t* evictions) {
    UnknownShareTransport transport(inner, bad);
    NetCoordinator coordinator(a, fleet, IdentityDriverOptions());
    ASSERT_TRUE(coordinator.Setup(&transport).ok());
    Result<std::vector<double>> answer = coordinator.Query(x);
    ASSERT_TRUE(answer.ok()) << answer.status().message();
    for (size_t p = 0; p < m; ++p) EXPECT_NEAR((*answer)[p], expected[p], 1e-9);
    EXPECT_EQ(coordinator.stats().retries, 0u);
    EXPECT_EQ(coordinator.stats().timeouts, 0u);
    EXPECT_TRUE(coordinator.evicted(bad));
    *trace = coordinator.trace();
    *evictions = coordinator.stats().evictions;
  };

  std::vector<std::string> sim_trace;
  uint64_t sim_evictions = 0;
  {
    SimTransport sim(specs, SimTransportOptions{});
    run(&sim, &sim_trace, &sim_evictions);
  }
  std::vector<std::string> socket_trace;
  uint64_t socket_evictions = 0;
  {
    std::vector<std::unique_ptr<ScecDaemon>> daemons;
    std::vector<uint16_t> ports;
    for (size_t d = 0; d < k; ++d) {
      daemons.push_back(std::make_unique<ScecDaemon>(ScecdOptions{d, 0}));
      ASSERT_TRUE(daemons.back()->Start().ok());
      ports.push_back(daemons.back()->port());
    }
    {
      SocketTransport socket(ports, SocketTransportOptions{});
      run(&socket, &socket_trace, &socket_evictions);
    }
    for (auto& daemon : daemons) daemon->Stop();
  }
  EXPECT_EQ(sim_evictions, 1u);
  EXPECT_EQ(sim_evictions, socket_evictions);
  EXPECT_EQ(sim_trace, socket_trace);
}

// A loopback cluster of scecd daemons serving `session`'s deployment; each
// daemon plays its device's events of `faults`.
struct Cluster {
  explicit Cluster(size_t k, const sim::FaultSchedule& faults = {}) {
    for (size_t d = 0; d < k; ++d) {
      const std::span<const sim::FaultEvent> script = faults.EventsFor(d);
      daemons.push_back(std::make_unique<ScecDaemon>(
          ScecdOptions{.daemon_id = d,
                       .faults = {script.begin(), script.end()},
                       .fault_seed = faults.seed()}));
      EXPECT_TRUE(daemons.back()->Start().ok());
      ports.push_back(daemons.back()->port());
    }
  }
  ~Cluster() {
    for (auto& daemon : daemons) daemon->Stop();
  }
  std::vector<std::unique_ptr<ScecDaemon>> daemons;
  std::vector<uint16_t> ports;
};

McscecProblem MakeProblem(size_t k, size_t m, size_t l) {
  McscecProblem problem;
  problem.m = m;
  problem.l = l;
  problem.fleet = DeviceFleet{MakeSpecs(k)};
  return problem;
}

TEST(NetCoordinator, MasksLyingScecdInOneRoundWithOneGuard) {
  const size_t k = 8, m = 8, l = 5;
  const McscecProblem problem = MakeProblem(k, m, l);
  const Matrix<double> a = MakeMatrix(m, l);
  ChaCha20Rng coding_rng(7);
  auto session = DeploymentSession<double>::Open(problem, a, coding_rng);
  ASSERT_TRUE(session.ok()) << session.status();
  const size_t liar = session->plan().participating[0];

  sim::FaultSchedule faults;
  faults.AddCorruption(liar);  // +1 on element 0 of every answer
  Cluster cluster(k, faults);
  {
    SocketTransport transport(cluster.ports, SocketTransportOptions{});
    NetCoordinatorOptions options = IdentityDriverOptions();
    options.byzantine_tolerance = 1;
    NetCoordinator coordinator(*session, a, problem.fleet, options);
    ASSERT_TRUE(coordinator.Setup(&transport).ok());
    ASSERT_EQ(coordinator.byzantine_tolerance_effective(), 1u);

    std::vector<double> x(l, 0.75);
    Result<std::vector<double>> answer = coordinator.Query(x);
    ASSERT_TRUE(answer.ok()) << answer.status().message();
    std::vector<double> expected(m);
    MatVecInto(a, std::span<const double>(x), std::span<double>(expected));
    for (size_t p = 0; p < m; ++p) EXPECT_NEAR((*answer)[p], expected[p], 1e-9);
    EXPECT_EQ(coordinator.stats().recovery_rounds, 0u);
    EXPECT_EQ(coordinator.stats().byzantine_masked_queries, 1u);
    EXPECT_EQ(coordinator.reputation().standing(liar),
              sim::DeviceStanding::kQuarantined);
    EXPECT_TRUE(coordinator.VerifyCumulativeSecurity().all_secure);
    (void)transport.Drain(1.0);
  }
}

// --- The Eq. (1) bill of a fault-free query, from the op ledger -----------

// A problem whose devices price every Eq. (1) resource, so each op class
// moves the bill.
McscecProblem PricedProblem(size_t k, size_t m, size_t l) {
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  for (size_t d = 0; d < k; ++d) {
    specs[d].costs.storage = 0.01 + 0.002 * static_cast<double>(d);
    specs[d].costs.add = 0.001;
    specs[d].costs.mul = 0.002 + 0.0005 * static_cast<double>(d % 3);
  }
  McscecProblem problem;
  problem.m = m;
  problem.l = l;
  problem.fleet = DeviceFleet{std::move(specs)};
  return problem;
}

// Serves one fault-free query of a planned deployment over `transport` and
// checks the bill rebuilt from the transport's op ledger.
void ExpectPlannedBill(const McscecProblem& problem, Transport* transport) {
  const Matrix<double> a = MakeMatrix(problem.m, problem.l);
  ChaCha20Rng coding_rng(13);
  auto session = DeploymentSession<double>::Open(problem, a, coding_rng);
  ASSERT_TRUE(session.ok()) << session.status();
  NetCoordinator coordinator(*session, a, problem.fleet,
                             IdentityDriverOptions());
  ASSERT_TRUE(coordinator.Setup(transport).ok());
  ASSERT_TRUE(coordinator.Query(std::vector<double>(problem.l, 0.5)).ok());
  (void)transport->Drain(1.0);
  EXPECT_EQ(coordinator.stats().retries, 0u);
  EXPECT_EQ(ReconcileLedgers(coordinator.stats(), transport->stats(),
                             problem.l),
            "");
  const double bill =
      OpLedgerCost(transport->stats(), problem.fleet, problem.l);
  EXPECT_NEAR(bill, PlannedBill(session->plan(), problem.fleet, problem.l),
              1e-9 * (1.0 + bill));
}

TEST(NetCoordinator, FaultFreeOpLedgerBillsThePlannedCostInSim) {
  const McscecProblem problem = PricedProblem(6, 12, 7);
  SimTransport transport(problem.fleet.devices(), SimTransportOptions{});
  ExpectPlannedBill(problem, &transport);
}

TEST(NetCoordinator, FaultFreeOpLedgerBillsThePlannedCostOverScecd) {
  const McscecProblem problem = PricedProblem(6, 12, 7);
  Cluster cluster(problem.fleet.size());
  SocketTransport transport(cluster.ports, SocketTransportOptions{});
  ExpectPlannedBill(problem, &transport);
  // The transport bills no more than each daemon computed.
  for (size_t d = 0; d < cluster.daemons.size(); ++d) {
    const DeviceOps computed = cluster.daemons[d]->ops();
    const DeviceOps& billed = transport.stats().device_ops[d];
    EXPECT_EQ(billed.staged_values, computed.staged_values) << d;
    EXPECT_EQ(billed.mults, computed.mults) << d;
    EXPECT_EQ(billed.adds, computed.adds) << d;
    EXPECT_EQ(billed.values_returned, computed.values_returned) << d;
  }
}

TEST(NetCoordinator, JournaledQueryKilledAndResumedOverSockets) {
  const size_t k = 5, m = 10, l = 6;
  const McscecProblem problem = MakeProblem(k, m, l);
  const Matrix<double> a = MakeMatrix(m, l);
  ChaCha20Rng coding_rng(11);
  auto opened = DeploymentSession<double>::Open(problem, a, coding_rng);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DeploymentSession<double> session = std::move(opened).value();
  const size_t slots = session.plan().participating.size();
  const uint64_t crc = 0x5CECu;
  std::vector<double> x(l, -0.5);
  std::vector<double> expected(m);
  MatVecInto(a, std::span<const double>(x), std::span<double>(expected));

  Cluster cluster(k);
  // Generation 0 dies once its second verified response is durable.
  std::ostringstream durable;
  {
    recovery::QueryJournal journal(&durable, crc, 16, /*write_header=*/true);
    recovery::CrashInjector injector(
        recovery::CrashSpec{recovery::CrashPoint::kOnResponse, 2, false});
    journal.set_crash_probe([&injector](const recovery::JournalEvent& e) {
      return injector.Decide(e);
    });
    session.AttachJournal(&journal);
    SocketTransport transport(cluster.ports, SocketTransportOptions{});
    NetCoordinator coordinator(session, a, problem.fleet,
                               IdentityDriverOptions());
    ASSERT_TRUE(coordinator.Setup(&transport).ok());
    EXPECT_THROW((void)coordinator.Query(x), recovery::CoordinatorCrash);
    EXPECT_TRUE(injector.fired());
  }

  auto replay = recovery::LoadJournal(durable.str());
  ASSERT_TRUE(replay.ok()) << replay.status();
  auto state = recovery::BuildReplayState(*replay);
  ASSERT_TRUE(state.ok()) << state.status();
  ASSERT_TRUE(state->has_in_flight);
  ASSERT_GE(state->in_flight_responses.size(), 1u);

  // Generation 1 restages, restores and finishes the query exactly once.
  std::ostringstream tail;
  recovery::QueryJournal journal(&tail, crc, 16, /*write_header=*/false);
  DeploymentSession<double> restarted =
      DeploymentSession<double>::Adopt(session.deployment());
  restarted.set_pad_generation(state->last_generation + 1);
  restarted.AttachJournal(&journal);
  SocketTransport transport(cluster.ports, SocketTransportOptions{});
  NetCoordinator coordinator(restarted, a, problem.fleet,
                             IdentityDriverOptions());
  ASSERT_TRUE(coordinator.Setup(&transport).ok());
  coordinator.RestoreFromReplay(*state);
  Result<std::vector<double>> answer = coordinator.Query(state->in_flight_x);
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  for (size_t p = 0; p < m; ++p) EXPECT_NEAR((*answer)[p], expected[p], 1e-9);
  // Paid shares were injected, never re-dispatched.
  EXPECT_EQ(coordinator.stats().resumed_responses,
            state->in_flight_responses.size());
  EXPECT_EQ(coordinator.stats().dispatches,
            slots - state->in_flight_responses.size());
  EXPECT_TRUE(coordinator.VerifyCumulativeSecurity().all_secure);
  (void)transport.Drain(1.0);
}

}  // namespace
}  // namespace scec::net
