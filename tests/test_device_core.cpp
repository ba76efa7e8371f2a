// SPDX-License-Identifier: MIT
//
// net::DeviceCore, the one device implementation behind both transports:
// its own contract (refusals, the two instants a fault script is consulted,
// the op ledger), and the differential check that a device behind
// SimTransport and the same device behind a loopback scecd answer a query
// sequence bit for bit, lies included, under every Byzantine mix's script.

#include "net/device_core.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix_ops.h"
#include "net/scecd.h"
#include "net/sim_transport.h"
#include "net/socket_transport.h"
#include "sim/faults.h"

namespace scec::net {
namespace {

using sim::FaultEvent;
using sim::FaultKind;
using sim::FaultSchedule;

Matrix<double> MakeShare(size_t rows, size_t cols) {
  Matrix<double> share(rows, cols);
  Xoshiro256StarStar rng(41);
  for (double& value : share.Data()) value = rng.NextDouble(-1.0, 1.0);
  return share;
}

std::vector<double> Answer(DeviceCore& core, uint64_t share_id,
                           const std::vector<double>& x, double now) {
  std::vector<double> values;
  EXPECT_EQ(core.Compute(share_id, x, now, &values),
            DeviceCore::Arrival::kComputed);
  EXPECT_TRUE(core.Release(now, &values));
  return values;
}

TEST(DeviceCore, RefusesUnknownShareAndWrongLengthBeforeTheScript) {
  FaultSchedule faults;
  faults.AddCrash(0, 0.0);
  DeviceCore core(0, &faults);
  const Matrix<double> share = MakeShare(3, 4);
  std::ranges::copy(share.Data(), core.Stage(7, 3, 4).begin());
  std::vector<double> values;
  EXPECT_EQ(core.Compute(8, std::vector<double>(4, 1.0), 1.0, &values),
            DeviceCore::Arrival::kUnknownShare);
  EXPECT_EQ(core.Compute(7, std::vector<double>(3, 1.0), 1.0, &values),
            DeviceCore::Arrival::kWrongLength);
  EXPECT_EQ(faults.stats().crash_drops, 0u) << "refused before the script";
  EXPECT_EQ(core.Compute(7, std::vector<double>(4, 1.0), 1.0, &values),
            DeviceCore::Arrival::kMissed);
  EXPECT_EQ(faults.stats().crash_drops, 1u);
  EXPECT_EQ(core.ops().mults, 0u) << "a missed query computes nothing";
  EXPECT_EQ(core.ops().staged_values, 12u);
}

TEST(DeviceCore, AnswersAndBillsTheEq1Ops) {
  DeviceCore core(0, nullptr);
  const Matrix<double> share = MakeShare(3, 4);
  std::ranges::copy(share.Data(), core.Stage(1, 3, 4).begin());
  const std::vector<double> x = {0.5, -1.0, 2.0, 0.25};
  EXPECT_EQ(Answer(core, 1, x, 0.0), MatVec(share, std::span(x)));
  EXPECT_EQ(core.shares_held(), 1u);
  EXPECT_EQ(core.ops().mults, 12u);
  EXPECT_EQ(core.ops().adds, 9u);
  EXPECT_EQ(core.ops().values_returned, 3u);
}

TEST(DeviceCore, ScriptStrikesInsideItsWindowAtComputeDone) {
  // An omission from t = 2 withholds what was computed; a corruption over
  // [0, 1) lies only in answers finished before t = 1.
  FaultSchedule faults;
  faults.AddOmission(0, 2.0);
  faults.Add(0, FaultEvent{.kind = FaultKind::kCorruption,
                           .end_s = 1.0,
                           .element = 1,
                           .delta = 0.5});
  DeviceCore core(0, &faults);
  const Matrix<double> share = MakeShare(2, 2);
  std::ranges::copy(share.Data(), core.Stage(1, 2, 2).begin());
  const std::vector<double> x = {1.0, 1.0};
  const std::vector<double> honest = MatVec(share, std::span(x));

  std::vector<double> lie = Answer(core, 1, x, 0.5);
  EXPECT_EQ(lie[0], honest[0]);
  EXPECT_EQ(lie[1], honest[1] + 0.5);
  EXPECT_EQ(Answer(core, 1, x, 1.5), honest);

  std::vector<double> values;
  ASSERT_EQ(core.Compute(1, x, 1.9, &values), DeviceCore::Arrival::kComputed);
  EXPECT_FALSE(core.Release(2.1, &values));
  EXPECT_EQ(core.ops().mults, 12u) << "the withheld answer was computed";
  EXPECT_EQ(core.ops().values_returned, 4u);
  EXPECT_EQ(faults.stats().corruptions, 1u);
  EXPECT_EQ(faults.stats().omission_drops, 1u);
}

// One Byzantine mix's script: the events every liar runs.
struct LieScript {
  std::string name;
  FaultEvent event;
  std::vector<size_t> liars;
};

std::vector<LieScript> ByzantineScripts() {
  const FaultEvent lie{.kind = FaultKind::kCorruption, .delta = 1.25};
  FaultEvent intermittent = lie;
  intermittent.probability = 0.5;
  FaultEvent relative = lie;
  relative.delta = -4e-4;
  relative.relative = true;
  FaultEvent equivocating = lie;
  equivocating.equivocate = true;
  FaultEvent coordinated = lie;
  coordinated.element = 2;
  coordinated.delta = -0.75;
  return {
      {"always-on", lie, {1}},
      {"intermittent", intermittent, {1}},
      {"relative", relative, {1}},
      {"equivocating", equivocating, {1}},
      {"coordinated", coordinated, {0, 2}},
  };
}

constexpr size_t kDevices = 3;
constexpr uint64_t kShareId = 5;

// Stages `share` on every device of `transport`, then queries every device
// with each x in turn, one RPC at a time. answers[q][d] is device d's
// answer to xs[q].
std::vector<std::vector<std::vector<double>>> RunSequence(
    Transport* transport, const Matrix<double>& share,
    const std::vector<std::vector<double>>& xs) {
  for (size_t d = 0; d < kDevices; ++d) {
    EXPECT_TRUE(transport->StageShare(d, kShareId, share).ok());
  }
  std::vector<std::vector<std::vector<double>>> answers(xs.size());
  std::vector<Completion> done;
  for (size_t q = 0; q < xs.size(); ++q) {
    for (size_t d = 0; d < kDevices; ++d) {
      transport->SubmitQuery(d, kShareId, xs[q], 5.0, 0.0);
      done.clear();
      for (int i = 0; i < 400 && done.empty(); ++i) {
        transport->PollInto(&done, 0.05);
      }
      EXPECT_EQ(done.size(), 1u);
      if (done.empty()) return answers;
      EXPECT_EQ(done[0].kind, Completion::Kind::kResponse)
          << NetErrorName(done[0].error);
      answers[q].push_back(std::move(done[0].values));
    }
  }
  return answers;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(DeviceCore, SimAndScecdAnswerBitIdentically) {
  const Matrix<double> share = MakeShare(4, 6);
  Xoshiro256StarStar rng(43);
  std::vector<std::vector<double>> xs(12);
  for (std::vector<double>& x : xs) {
    x.resize(share.cols());
    for (double& value : x) value = rng.NextDouble(-2.0, 2.0);
  }
  std::vector<EdgeDevice> fleet(kDevices);
  for (EdgeDevice& device : fleet) {
    device.compute_rate_flops = 1e9;
    device.uplink_bps = 1e8;
    device.downlink_bps = 1e8;
    device.link_latency_s = 1e-3;
  }

  for (const LieScript& script : ByzantineScripts()) {
    SCOPED_TRACE(script.name);
    FaultSchedule faults;
    faults.SetSeed(0xD1FFull);
    for (const size_t liar : script.liars) faults.Add(liar, script.event);

    SimTransportOptions sim_options;
    sim_options.faults = &faults;
    SimTransport sim(fleet, sim_options);
    const auto sim_answers = RunSequence(&sim, share, xs);

    std::vector<std::unique_ptr<ScecDaemon>> daemons;
    std::vector<uint16_t> ports;
    for (size_t d = 0; d < kDevices; ++d) {
      const std::span<const FaultEvent> events = faults.EventsFor(d);
      daemons.push_back(std::make_unique<ScecDaemon>(
          ScecdOptions{.daemon_id = d,
                       .faults = {events.begin(), events.end()},
                       .fault_seed = faults.seed()}));
      ASSERT_TRUE(daemons.back()->Start().ok());
      ports.push_back(daemons.back()->port());
    }
    std::vector<std::vector<std::vector<double>>> socket_answers;
    {
      SocketTransport socket(ports, SocketTransportOptions{});
      socket_answers = RunSequence(&socket, share, xs);
      (void)socket.Drain(1.0);
    }

    ASSERT_EQ(sim_answers.size(), xs.size());
    ASSERT_EQ(socket_answers.size(), xs.size());
    size_t lies = 0;
    size_t honest = 0;
    for (size_t q = 0; q < xs.size(); ++q) {
      ASSERT_EQ(sim_answers[q].size(), kDevices);
      ASSERT_EQ(socket_answers[q].size(), kDevices);
      const std::vector<double> truth =
          MatVec(share, std::span<const double>(xs[q]));
      for (size_t d = 0; d < kDevices; ++d) {
        EXPECT_TRUE(BitIdentical(sim_answers[q][d], socket_answers[q][d]))
            << "query " << q << " device " << d;
        const bool lied = !BitIdentical(sim_answers[q][d], truth);
        const bool liar = faults.EventsFor(d).size() > 0;
        EXPECT_TRUE(liar || !lied) << "query " << q << " device " << d;
        if (liar) (lied ? lies : honest) += 1;
      }
      if (script.liars.size() == 2) {
        EXPECT_TRUE(BitIdentical(sim_answers[q][script.liars[0]],
                                 sim_answers[q][script.liars[1]]))
            << "coordinated liars corroborate each other";
      }
    }
    EXPECT_EQ(lies, faults.stats().corruptions);
    EXPECT_GT(lies, 0u);
    if (script.event.probability < 1.0) {
      EXPECT_GT(honest, 0u) << "an intermittent liar also tells the truth";
    } else {
      EXPECT_EQ(honest, 0u);
    }
    for (size_t d = 0; d < kDevices; ++d) {
      EXPECT_EQ(sim.stats().device_ops[d].mults, daemons[d]->ops().mults);
      EXPECT_EQ(sim.stats().device_ops[d].adds, daemons[d]->ops().adds);
    }
    for (auto& daemon : daemons) daemon->Stop();
  }
}

}  // namespace
}  // namespace scec::net
