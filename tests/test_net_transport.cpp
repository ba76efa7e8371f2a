// SPDX-License-Identifier: MIT
//
// Transport-layer and driver tests: the SimTransport's deterministic
// behaviors, end-to-end queries over real sockets, and the ISSUE 10
// acceptance invariant — on a fault-free trace the NetCoordinator's
// protocol decision sequence is IDENTICAL over the simulator and over a
// live loopback scecd cluster.

#include "net/transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix_ops.h"
#include "net/driver.h"
#include "net/scecd.h"
#include "net/sim_transport.h"
#include "net/socket_transport.h"

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
  SimTransport transport(MakeSpecs(2), SimTransportOptions{});
  transport.SetFaultHook([](size_t device, uint64_t) {
    return device == 0 ? SimFault::kSilent : SimFault::kCorrupt;
  });
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
  ScecDaemon daemon(ScecdOptions{0, 0});
  ASSERT_TRUE(daemon.Start().ok());
  daemon.SetBehavior(ScecDaemon::Behavior::kSilent);
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
  }
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

  SimTransport transport(specs, SimTransportOptions{});
  // Whichever fleet device holds scheme slot 1 lies on every response.
  NetCoordinatorOptions options = IdentityDriverOptions();
  options.reputation.enabled = true;
  NetCoordinator coordinator(a, fleet, options);
  ASSERT_TRUE(coordinator.Setup(&transport).ok());
  transport.SetFaultHook([](size_t device, uint64_t) {
    return device == 1 ? SimFault::kCorrupt : SimFault::kHonest;
  });

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

  SimTransport transport(specs, SimTransportOptions{});
  NetCoordinatorOptions options = IdentityDriverOptions();
  options.rpc_deadline_s = 0.05;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_s = 0.01;
  NetCoordinator coordinator(a, fleet, options);
  ASSERT_TRUE(coordinator.Setup(&transport).ok());
  transport.SetFaultHook([](size_t device, uint64_t) {
    return device == 2 ? SimFault::kSilent : SimFault::kHonest;
  });

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
  const size_t k = 3, m = 6, l = 4;
  std::vector<EdgeDevice> specs = MakeSpecs(k);
  // Device 0 is pathologically slow (tiny compute rate): the hedge alarm
  // fires long before its response.
  specs[0].compute_rate_flops = 1e3;
  DeviceFleet fleet{specs};
  Matrix<double> a = MakeMatrix(m, l);

  SimTransport transport(specs, SimTransportOptions{});
  NetCoordinatorOptions options = IdentityDriverOptions();
  options.hedge_after_s = 0.01;
  options.rpc_deadline_s = 60.0;  // deadline never fires; the hedge races
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
  // Each slot's value entered the decode exactly once: every dispatch was
  // either the winning copy or a cancelled loser, never double-used.
  EXPECT_EQ(coordinator.stats().responses_used,
            coordinator.stats().dispatches -
                coordinator.stats().hedges_launched);
  EXPECT_EQ(coordinator.stats().evictions, 0u);
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

  SimTransport sim(specs, SimTransportOptions{});
  FailingStageTransport transport(&sim);
  NetCoordinatorOptions options = IdentityDriverOptions();
  options.rpc_deadline_s = 0.05;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_s = 0.01;
  NetCoordinator coordinator(a, fleet, options);
  ASSERT_TRUE(coordinator.Setup(&transport).ok());

  // Device 2 goes silent, so the query replans its rows; staging slot 1 of
  // that recovery segment fails after slot 0 already holds its share.
  sim.SetFaultHook([](size_t device, uint64_t) {
    return device == 2 ? SimFault::kSilent : SimFault::kHonest;
  });
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

}  // namespace
}  // namespace scec::net
