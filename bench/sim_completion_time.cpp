// SPDX-License-Identifier: MIT
//
// Remark 1 of the paper: because Lemma 1 caps every device's load at r rows,
// the per-device work — and hence the completion-time distribution — is
// bounded. This harness serves one query through the protocol driver over
// the simulated fleet (net::SimTransport) across the feasible range of r
// (few big shares ↔ many small shares), with and without stragglers, and
// reports staging and query completion times. Staging ships the shares one
// at a time, so its time is the sum of the share transfers.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "common/cli.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "core/pipeline.h"
#include "linalg/matrix_ops.h"
#include "recovery/coordinator.h"
#include "telemetry.h"
#include "workload/distributions.h"

namespace {

// True when `decoded` is A·x to within 1e-9 of each value's magnitude: the
// structured decode is one subtraction per value.
bool DecodesProduct(const scec::Result<std::vector<double>>& decoded,
                    const std::vector<double>& expected) {
  if (!decoded.ok() || decoded->size() != expected.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    const double scale =
        std::max({1.0, std::fabs((*decoded)[i]), std::fabs(expected[i])});
    if (std::fabs((*decoded)[i] - expected[i]) > 1e-9 * scale) return false;
  }
  return true;
}

scec::McscecProblem MakeProblem(size_t m, size_t l, size_t k, uint64_t seed) {
  scec::Xoshiro256StarStar rng(seed);
  scec::McscecProblem problem;
  problem.m = m;
  problem.l = l;
  for (size_t j = 0; j < k; ++j) {
    scec::EdgeDevice device;
    device.name = "edge-" + std::to_string(j);
    device.costs.comm = rng.NextDouble(1.0, 5.0);
    device.costs.storage = 0.01;
    device.costs.mul = 0.002;
    device.costs.add = 0.001;
    device.compute_rate_flops = 2e8;
    device.uplink_bps = 5e7;
    device.downlink_bps = 5e7;
    device.link_latency_s = 2e-3;
    problem.fleet.Add(device);
  }
  return problem;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t m = 512;
  int64_t l = 256;
  int64_t k = 17;
  int64_t seed = 11;
  scec::bench::TelemetryFlags telemetry;
  scec::CliParser cli("sim_completion_time",
                      "simulated completion time across r (Remark 1)");
  cli.AddInt("m", &m, "rows of A");
  cli.AddInt("l", &l, "row width");
  cli.AddInt("k", &k, "edge devices");
  cli.AddInt("seed", &seed, "RNG seed");
  scec::bench::AddTelemetryFlags(&cli, &telemetry);
  if (!cli.Parse(argc, argv)) return 1;
  scec::bench::StartTelemetry(telemetry);

  const scec::McscecProblem problem =
      MakeProblem(static_cast<size_t>(m), static_cast<size_t>(l),
                  static_cast<size_t>(k), static_cast<uint64_t>(seed));
  scec::Xoshiro256StarStar data_rng(static_cast<uint64_t>(seed) + 1);
  const auto a =
      scec::RandomMatrix<double>(problem.m, problem.l, data_rng);
  const auto x = scec::RandomVector<double>(problem.l, data_rng);
  const std::vector<double> expected =
      scec::MatVec(a, std::span<const double>(x));

  const std::vector<double> fleet_costs = problem.FleetUnitCosts();
  const auto sorted = scec::SortCosts(fleet_costs);

  scec::TablePrinter table({"r", "devices", "max-rows/device", "staging(s)",
                            "query(s)", "query+stragglers(s)"});

  const size_t r_min =
      scec::CeilDiv(problem.m, problem.fleet.size() - 1);
  int failures = 0;
  for (size_t r = r_min; r <= problem.m;
       r = (r < 4 * r_min ? r + std::max<size_t>(1, r_min / 2) : r * 2)) {
    const auto alloc =
        scec::Allocation::FromShape(problem.m, r, sorted.costs, "sweep");
    scec::Plan plan;
    plan.allocation = alloc;
    plan.scheme = scec::SchemeFromRowCounts(problem.m, r,
                                            alloc.rows_per_device);
    plan.participating.clear();
    for (size_t j = 0; j < alloc.rows_per_device.size(); ++j) {
      if (alloc.rows_per_device[j] > 0) {
        plan.participating.push_back(sorted.original[j]);
      }
    }

    scec::Deployment<double> deployment;
    deployment.plan = plan;
    deployment.code = scec::StructuredCode(problem.m, r);
    deployment.l = problem.l;
    scec::ChaCha20Rng coding_rng(42);
    auto encoded = scec::EncodeDeployment(deployment.code, plan.scheme, a,
                                          coding_rng);
    deployment.shares = std::move(encoded.shares);

    scec::recovery::SimDriver clean(deployment, a, problem.fleet);
    const double staging_s = clean.transport.Now();
    const bool clean_ok = DecodesProduct(clean.driver.Query(x), expected);

    scec::net::SimTransportOptions straggly;
    straggly.straggler.kind = scec::sim::StragglerKind::kExponentialSlowdown;
    straggly.straggler.rate = 2.0;
    scec::recovery::SimDriver slow(deployment, a, problem.fleet, straggly);
    const bool slow_ok = DecodesProduct(slow.driver.Query(x), expected);

    size_t max_rows = 0;
    for (size_t rows : plan.scheme.row_counts) {
      max_rows = std::max(max_rows, rows);
    }
    table.AddRow({std::to_string(r),
                  std::to_string(plan.scheme.num_devices()),
                  std::to_string(max_rows),
                  scec::FormatDouble(staging_s, 5),
                  scec::FormatDouble(clean.driver.stats().last_query_s, 5),
                  scec::FormatDouble(slow.driver.stats().last_query_s, 5)});
    if (!clean_ok || !slow_ok) ++failures;
  }
  table.Print(std::cout);
  scec::bench::ExportTelemetry(telemetry);

  std::cout << (failures == 0 ? "  [PASS] " : "  [FAIL] ")
            << "all simulated runs decoded A*x correctly\n"
            << "  Shape note: larger r concentrates load on fewer devices —\n"
            << "  per-device work scales with r (Remark 1's bound V <= r).\n";
  return failures;
}
