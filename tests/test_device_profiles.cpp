// SPDX-License-Identifier: MIT

#include "workload/device_profiles.h"

#include <gtest/gtest.h>

#include "allocation/cost_model.h"
#include "core/pipeline.h"
#include "linalg/matrix_ops.h"
#include "recovery/coordinator.h"

namespace scec {
namespace {

TEST(DeviceProfiles, AllProfilesProduceValidDevices) {
  Xoshiro256StarStar rng(1);
  for (DeviceProfile profile :
       {DeviceProfile::kMicrocontroller, DeviceProfile::kPhone,
        DeviceProfile::kSingleBoard, DeviceProfile::kEdgeGateway,
        DeviceProfile::kEdgeServer}) {
    for (int i = 0; i < 50; ++i) {
      const EdgeDevice device = MakeDevice(profile, "d", rng);
      EXPECT_TRUE(device.costs.Valid()) << DeviceProfileName(profile);
      EXPECT_GT(device.compute_rate_flops, 0.0);
      EXPECT_GT(device.uplink_bps, 0.0);
      EXPECT_GT(device.downlink_bps, 0.0);
      EXPECT_GE(device.link_latency_s, 0.0);
    }
  }
}

TEST(DeviceProfiles, JitterZeroIsDeterministicAcrossDevices) {
  Xoshiro256StarStar rng_a(2), rng_b(3);
  const EdgeDevice a = MakeDevice(DeviceProfile::kPhone, "a", rng_a, 0.0);
  const EdgeDevice b = MakeDevice(DeviceProfile::kPhone, "b", rng_b, 0.0);
  EXPECT_DOUBLE_EQ(a.costs.comm, b.costs.comm);
  EXPECT_DOUBLE_EQ(a.compute_rate_flops, b.compute_rate_flops);
}

TEST(DeviceProfiles, JitterStaysWithinBounds) {
  Xoshiro256StarStar rng(4);
  const EdgeDevice base = MakeDevice(DeviceProfile::kSingleBoard, "x",
                                     rng, 0.0);
  for (int i = 0; i < 200; ++i) {
    const EdgeDevice jittered =
        MakeDevice(DeviceProfile::kSingleBoard, "x", rng, 0.2);
    EXPECT_GE(jittered.costs.comm, base.costs.comm * 0.8 - 1e-12);
    EXPECT_LE(jittered.costs.comm, base.costs.comm * 1.2 + 1e-12);
  }
}

TEST(DeviceProfiles, ServersBeatMicrocontrollersOnCompute) {
  Xoshiro256StarStar rng(5);
  const EdgeDevice server =
      MakeDevice(DeviceProfile::kEdgeServer, "s", rng, 0.0);
  const EdgeDevice mcu =
      MakeDevice(DeviceProfile::kMicrocontroller, "m", rng, 0.0);
  EXPECT_GT(server.compute_rate_flops, 100 * mcu.compute_rate_flops);
}

TEST(MakeFleet, RespectsSpecCountsAndNames) {
  Xoshiro256StarStar rng(6);
  const DeviceFleet fleet = MakeFleet(
      {{DeviceProfile::kPhone, 3}, {DeviceProfile::kEdgeGateway, 2}}, rng);
  ASSERT_EQ(fleet.size(), 5u);
  EXPECT_EQ(fleet[0].name, "phone-0");
  EXPECT_EQ(fleet[2].name, "phone-2");
  EXPECT_EQ(fleet[3].name, "gateway-0");
}

TEST(MakeCampusFleet, ReasonableSizeAndMix) {
  Xoshiro256StarStar rng(7);
  const DeviceFleet fleet = MakeCampusFleet(20, rng);
  EXPECT_GE(fleet.size(), 15u);
  EXPECT_LE(fleet.size(), 25u);
}

TEST(DeviceProfiles, CampusFleetRunsTheFullPipeline) {
  Xoshiro256StarStar rng(8);
  McscecProblem problem;
  problem.m = 12;
  problem.l = 6;
  problem.fleet = MakeCampusFleet(12, rng);

  ChaCha20Rng coding_rng(9);
  const auto a = RandomMatrix<double>(problem.m, problem.l, rng);
  const auto x = RandomVector<double>(problem.l, rng);
  const auto deployment = Deploy(problem, a, coding_rng);
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  recovery::SimDriver run(*deployment, a, problem.fleet);
  const auto result = run.driver.Query(x);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = MatVec(a, std::span<const double>(x));
  EXPECT_LT(MaxAbsDiff(std::span<const double>(*result),
                       std::span<const double>(expected)),
            1e-9);
}

TEST(DeviceProfiles, UnitCostOrderingMatchesIntuition) {
  // At moderate row width the gateway should be the cheapest per coded row
  // and the edge server the dearest (it is fast but premium-priced).
  Xoshiro256StarStar rng(10);
  const size_t l = 64;
  const double gateway =
      UnitCost(MakeDevice(DeviceProfile::kEdgeGateway, "g", rng, 0.0).costs,
               l);
  const double server =
      UnitCost(MakeDevice(DeviceProfile::kEdgeServer, "s", rng, 0.0).costs,
               l);
  const double phone =
      UnitCost(MakeDevice(DeviceProfile::kPhone, "p", rng, 0.0).costs, l);
  EXPECT_LT(gateway, phone);
  EXPECT_LT(phone, server);
}

}  // namespace
}  // namespace scec
