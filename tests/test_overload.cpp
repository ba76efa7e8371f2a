// SPDX-License-Identifier: MIT
//
// Degradation-ladder tests: escalation/de-escalation with hysteresis bands
// and dwell time, the per-rung policy surface (class admission, hedging,
// verification sampling), and the non-negotiable — one-time-pad ITS stays
// intact at EVERY rung, including the rungs that suppress hedging.

#include "serve/overload.h"

#include <gtest/gtest.h>

#include "linalg/matrix_ops.h"
#include "recovery/coordinator.h"
#include "workload/distributions.h"

namespace scec::serve {
namespace {

using recovery::SimDriver;

OverloadOptions On() {
  OverloadOptions options;
  options.enabled = true;
  options.dwell_s = 0.1;
  return options;
}

TEST(OverloadGovernor, DisabledStaysAtNormalUnderAnyPressure) {
  OverloadGovernor governor;  // enabled = false
  EXPECT_EQ(governor.Update(0.0, 1.0), OverloadLevel::kNormal);
  EXPECT_EQ(governor.transitions(), 0u);
  EXPECT_TRUE(governor.AdmitClass(DeadlineClass::kBulk));
  EXPECT_TRUE(governor.HedgingAllowed());
}

TEST(OverloadGovernor, EscalatesImmediatelyToTheReachedRung) {
  OverloadGovernor governor(On());
  // 0.72 crosses enter[0]=0.50 and enter[1]=0.70 but not enter[2]=0.85:
  // a flash crowd jumps straight to kNoHedge, not one rung per sample.
  EXPECT_EQ(governor.Update(0.0, 0.72), OverloadLevel::kNoHedge);
  EXPECT_EQ(governor.transitions(), 1u);
  // Full saturation tops the ladder in one step.
  EXPECT_EQ(governor.Update(0.0, 1.0), OverloadLevel::kRejectStandard);
}

TEST(OverloadGovernor, DeEscalatesOneRungPerDwellWithHysteresis) {
  OverloadGovernor governor(On());
  ASSERT_EQ(governor.Update(0.0, 0.55), OverloadLevel::kShedBulk);

  // Pressure in the hysteresis band (exit[0]=0.35 <= p < enter[0]=0.50):
  // neither escalates nor starts the de-escalation dwell.
  EXPECT_EQ(governor.Update(0.1, 0.40), OverloadLevel::kShedBulk);
  EXPECT_EQ(governor.Update(10.0, 0.40), OverloadLevel::kShedBulk);

  // Below exit: the dwell starts, but one early sample is not enough...
  EXPECT_EQ(governor.Update(10.1, 0.10), OverloadLevel::kShedBulk);
  // ...a bounce above exit re-arms the dwell...
  EXPECT_EQ(governor.Update(10.15, 0.40), OverloadLevel::kShedBulk);
  EXPECT_EQ(governor.Update(10.2, 0.10), OverloadLevel::kShedBulk);
  // ...and only a full dwell_s=0.1 below exit steps ONE rung down.
  EXPECT_EQ(governor.Update(10.3, 0.10), OverloadLevel::kNormal);
}

TEST(OverloadGovernor, DeEscalationFromTheTopWalksEveryRung) {
  OverloadGovernor governor(On());
  ASSERT_EQ(governor.Update(0.0, 1.0), OverloadLevel::kRejectStandard);
  double now = 0.0;
  std::vector<OverloadLevel> seen;
  for (int i = 0; i < 12; ++i) {
    now += 0.11;  // > dwell_s each sample
    seen.push_back(governor.Update(now, 0.0));
  }
  // One rung at a time, two samples per rung (the first below-exit sample
  // arms the dwell, the next one steps): 4,3,3,2,2,1,1,0 — never skipping.
  ASSERT_GE(seen.size(), 8u);
  EXPECT_EQ(seen[0], OverloadLevel::kRejectStandard);
  EXPECT_EQ(seen[1], OverloadLevel::kSampleVerify);
  EXPECT_EQ(seen[2], OverloadLevel::kSampleVerify);
  EXPECT_EQ(seen[3], OverloadLevel::kNoHedge);
  EXPECT_EQ(seen[4], OverloadLevel::kNoHedge);
  EXPECT_EQ(seen[5], OverloadLevel::kShedBulk);
  EXPECT_EQ(seen[6], OverloadLevel::kShedBulk);
  EXPECT_EQ(seen[7], OverloadLevel::kNormal);
  EXPECT_EQ(governor.transitions(), 5u);  // 1 up + 4 down
}

TEST(OverloadGovernor, PerRungPolicySurface) {
  OverloadGovernor governor(On());

  auto set_level = [&](double pressure) {
    OverloadGovernor fresh(On());
    fresh.Update(0.0, pressure);
    return fresh;
  };

  {
    OverloadGovernor g = set_level(0.0);  // kNormal
    EXPECT_TRUE(g.AdmitClass(DeadlineClass::kInteractive));
    EXPECT_TRUE(g.AdmitClass(DeadlineClass::kStandard));
    EXPECT_TRUE(g.AdmitClass(DeadlineClass::kBulk));
    EXPECT_TRUE(g.HedgingAllowed());
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(g.ShouldVerifyBatch());
  }
  {
    OverloadGovernor g = set_level(0.55);  // kShedBulk
    EXPECT_TRUE(g.AdmitClass(DeadlineClass::kStandard));
    EXPECT_FALSE(g.AdmitClass(DeadlineClass::kBulk));
    EXPECT_TRUE(g.HedgingAllowed());
  }
  {
    OverloadGovernor g = set_level(0.75);  // kNoHedge
    EXPECT_FALSE(g.HedgingAllowed());
    EXPECT_FALSE(g.AdmitClass(DeadlineClass::kBulk));
    EXPECT_TRUE(g.AdmitClass(DeadlineClass::kStandard));
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(g.ShouldVerifyBatch());
  }
  {
    OverloadGovernor g = set_level(0.90);  // kSampleVerify
    // 1 in verify_sample_every=8 batches is spot-checked, deterministically.
    int verified = 0;
    for (int i = 0; i < 16; ++i) verified += g.ShouldVerifyBatch() ? 1 : 0;
    EXPECT_EQ(verified, 2);
  }
  {
    OverloadGovernor g = set_level(1.0);  // kRejectStandard
    EXPECT_TRUE(g.AdmitClass(DeadlineClass::kInteractive))
        << "interactive traffic is never shed, even at the top rung";
    EXPECT_FALSE(g.AdmitClass(DeadlineClass::kStandard));
    EXPECT_FALSE(g.AdmitClass(DeadlineClass::kBulk));
    EXPECT_FALSE(g.HedgingAllowed());
  }
}

TEST(OverloadGovernor, ExitBelowEnterIsEnforced) {
  OverloadOptions options;
  options.enabled = true;
  options.exit[0] = options.enter[0];  // degenerate band: flapping forever
  EXPECT_DEATH(OverloadGovernor{options}, "");
}

// --- ITS is never on the ladder -----------------------------------------
//
// Run the straggler-heavy hedging scenario once per ladder rung, with the
// rung's HedgingAllowed() wired into the driver exactly the way the
// coordinator wires it (NetCoordinatorOptions::hedging_gate). At every rung
// every query decodes and every device's cumulative view stays Def. 2
// ITS-secure; at the hedge-suppressing rungs the suppression shows up in
// the metrics instead of as weakened padding.

TEST(OverloadLadder, CumulativeItsHoldsAtEveryRung) {
  const double pressures[] = {0.0, 0.55, 0.75, 0.90, 1.0};
  for (const double pressure : pressures) {
    OverloadGovernor governor(On());
    governor.Update(0.0, pressure);
    const OverloadLevel rung = governor.level();

    // Compute-bound fleet + exponential stragglers: hedges WANT to fire.
    Xoshiro256StarStar prng(60);
    McscecProblem problem;
    problem.m = 48;
    problem.l = 256;
    for (size_t j = 0; j < 10; ++j) {
      EdgeDevice device;
      device.name = "edge-" + std::to_string(j);
      device.costs.comm = prng.NextDouble(1.0, 5.0);
      device.compute_rate_flops = prng.NextDouble(1e6, 2e6);
      device.uplink_bps = 2e8;
      device.downlink_bps = 2e8;
      device.link_latency_s = 2e-4;
      problem.fleet.Add(device);
    }
    Xoshiro256StarStar drng(61);
    const Matrix<double> a =
        RandomMatrix<double>(problem.m, problem.l, drng);
    ChaCha20Rng coding_rng(62);
    auto deployed = Deploy(problem, a, coding_rng);
    ASSERT_TRUE(deployed.ok()) << deployed.status();
    Deployment<double> deployment = *std::move(deployed);

    net::SimTransportOptions options;
    options.straggler.kind = sim::StragglerKind::kExponentialSlowdown;
    options.straggler.rate = 0.8;
    options.straggler_seed = 63;
    net::NetCoordinatorOptions ft = recovery::SimDriverOptions();
    ft.hedging = true;
    ft.hedge_quantile = 0.5;
    ft.hedge_margin = 1.25;
    ft.hedging_gate = [&governor]() { return governor.HedgingAllowed(); };
    SimDriver run(deployment, a, problem.fleet, options, ft);

    Xoshiro256StarStar qrng(64);
    for (size_t q = 0; q < 4; ++q) {
      const auto x = RandomVector<double>(problem.l, qrng);
      const auto expected = MatVec(a, std::span<const double>(x));
      const auto result = run.driver.Query(x);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                           std::span<const double>(expected)),
                1e-9)
          << "rung " << OverloadLevelName(rung) << " query " << q;
    }

    const net::NetCoordinatorStats& rec = run.driver.stats();
    if (governor.HedgingAllowed()) {
      EXPECT_GE(rec.hedges_launched, 1u)
          << "rung " << OverloadLevelName(rung)
          << ": stragglers must trigger hedges when the gate is open";
      EXPECT_EQ(rec.hedges_suppressed, 0u);
    } else {
      EXPECT_EQ(rec.hedges_launched, 0u)
          << "rung " << OverloadLevelName(rung)
          << ": the gate must veto every hedge";
      EXPECT_GE(rec.hedges_suppressed, 1u);
    }

    // The contract the ladder must never touch: Def. 2 cumulative ITS.
    const auto security = run.driver.VerifyCumulativeSecurity();
    EXPECT_TRUE(security.all_secure)
        << "rung " << OverloadLevelName(rung) << ": " << security.Summary();
  }
}

}  // namespace
}  // namespace scec::serve
