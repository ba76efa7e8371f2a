// SPDX-License-Identifier: MIT
//
// Query throughput under pipelining, on the protocol driver over the
// simulated fleet: begin a stream of queries back-to-back (each its own
// flight; links and single-core devices queue work) and compare the
// makespan with stop-and-wait sequential queries. Expected shape: the
// pipelined makespan approaches the bottleneck-resource bound (the slowest
// device's compute or link), so speedup grows with stream depth and
// saturates. At the default sizes the driver's 0.25 s deadline floor stays
// above every queued flight's wait, so no RPC times out.

#include <algorithm>
#include <iostream>

#include "common/cli.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "core/pipeline.h"
#include "recovery/coordinator.h"
#include "telemetry.h"
#include "workload/device_profiles.h"

int main(int argc, char** argv) {
  int64_t m = 128;
  int64_t l = 256;
  int64_t fleet_size = 12;
  int64_t max_depth = 64;
  int64_t seed = 3;
  scec::bench::TelemetryFlags telemetry;
  scec::CliParser cli("sim_throughput",
                      "pipelined query throughput vs stop-and-wait");
  cli.AddInt("m", &m, "rows of A");
  cli.AddInt("l", &l, "row width");
  cli.AddInt("fleet", &fleet_size, "campus fleet size");
  cli.AddInt("max-depth", &max_depth, "largest stream depth");
  cli.AddInt("seed", &seed, "RNG seed");
  scec::bench::AddTelemetryFlags(&cli, &telemetry);
  if (!cli.Parse(argc, argv)) return 1;
  scec::bench::StartTelemetry(telemetry);

  scec::Xoshiro256StarStar rng(static_cast<uint64_t>(seed));
  scec::McscecProblem problem;
  problem.m = static_cast<size_t>(m);
  problem.l = static_cast<size_t>(l);
  problem.fleet = scec::MakeCampusFleet(static_cast<size_t>(fleet_size), rng);

  const auto a = scec::RandomMatrix<double>(problem.m, problem.l, rng);
  scec::ChaCha20Rng coding_rng(static_cast<uint64_t>(seed) + 1);
  const auto deployment = scec::Deploy(problem, a, coding_rng);
  if (!deployment.ok()) {
    std::cerr << deployment.status() << "\n";
    return 1;
  }

  scec::TablePrinter table({"depth", "sequential(ms)", "pipelined(ms)",
                            "speedup", "queries/s (pipelined)"});
  int failures = 0;
  int undecoded = 0;
  double prev_speedup = 0.0;
  for (int64_t depth = 1; depth <= max_depth; depth *= 4) {
    std::vector<std::vector<double>> xs;
    for (int64_t q = 0; q < depth; ++q) {
      xs.push_back(scec::RandomVector<double>(problem.l, rng));
    }

    // One driver per column, so both start from an idle fleet.
    scec::recovery::SimDriver sequential(*deployment, a, problem.fleet, {},
                                         scec::net::NetCoordinatorOptions{});
    double sequential_total = 0.0;
    for (const auto& x : xs) {
      if (!sequential.driver.Query(x).ok()) ++undecoded;
      sequential_total += sequential.driver.stats().last_query_s;
    }

    scec::recovery::SimDriver pipelined(*deployment, a, problem.fleet, {},
                                        scec::net::NetCoordinatorOptions{});
    const double start = pipelined.transport.Now();
    std::vector<scec::net::NetCoordinator::FlightId> flights;
    for (const auto& x : xs) flights.push_back(*pipelined.driver.Begin(x));
    for (const auto id : flights) {
      if (!pipelined.driver.Take(id).ok()) ++undecoded;
    }
    const double makespan = pipelined.transport.Now() - start;

    const double speedup = sequential_total / makespan;
    if (depth > 1 && speedup < 1.0) ++failures;
    table.AddRow(
        {std::to_string(depth),
         scec::FormatDouble(sequential_total * 1e3, 6),
         scec::FormatDouble(makespan * 1e3, 6),
         scec::FormatDouble(speedup, 5),
         scec::FormatDouble(static_cast<double>(depth) / makespan,
                            6)});
    prev_speedup = speedup;
  }
  (void)prev_speedup;
  table.Print(std::cout);
  scec::bench::ExportTelemetry(telemetry);
  if (undecoded > 0) {
    std::cout << "  [FAIL] " << undecoded << " queries did not decode\n";
  }
  std::cout << (failures == 0 ? "  [PASS] " : "  [FAIL] ")
            << "pipelining never loses to stop-and-wait at depth > 1\n";
  return failures == 0 && undecoded == 0 ? 0 : 1;
}
