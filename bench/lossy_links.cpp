// SPDX-License-Identifier: MIT
//
// Robustness bench: SCEC over lossy links. Sweeps the per-message loss
// probability of the simulated fleet's query path and serves one query
// through the protocol driver at each rate. A lost query or response
// surfaces as its RPC's deadline firing, and the driver retries it on its
// RetryPolicy schedule with a raised attempt budget; staging stays
// reliable. Expected shape: query latency grows with the timeouts and
// backoffs that loss forces, each retry re-bills the device's work, and
// correctness is never affected (the decode is exact at every loss rate).

#include <fstream>
#include <iostream>

#include "common/cli.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "linalg/matrix_ops.h"
#include "net/driver.h"
#include "recovery/coordinator.h"
#include "telemetry.h"
#include "workload/device_profiles.h"

int main(int argc, char** argv) {
  int64_t m = 64;
  int64_t l = 128;
  int64_t fleet_size = 12;
  int64_t seed = 9;
  std::string metrics_csv;
  scec::bench::TelemetryFlags telemetry;
  scec::CliParser cli("lossy_links",
                      "SCEC completion time vs per-message loss rate");
  cli.AddInt("m", &m, "rows of A");
  cli.AddInt("l", &l, "row width");
  cli.AddInt("fleet", &fleet_size, "campus fleet size");
  cli.AddInt("seed", &seed, "RNG seed");
  cli.AddString("run-metrics-csv", &metrics_csv,
                "write per-loss-rate driver ledger CSV here");
  scec::bench::AddTelemetryFlags(&cli, &telemetry);
  if (!cli.Parse(argc, argv)) return 1;
  scec::bench::StartTelemetry(telemetry);

  scec::Xoshiro256StarStar rng(static_cast<uint64_t>(seed));
  scec::McscecProblem problem;
  problem.m = static_cast<size_t>(m);
  problem.l = static_cast<size_t>(l);
  problem.fleet = scec::MakeCampusFleet(static_cast<size_t>(fleet_size), rng);
  const auto a = scec::RandomMatrix<double>(problem.m, problem.l, rng);
  const auto x = scec::RandomVector<double>(problem.l, rng);
  const auto expected = scec::MatVec(a, std::span<const double>(x));
  scec::ChaCha20Rng coding_rng(static_cast<uint64_t>(seed) + 1);
  const auto deployment = scec::Deploy(problem, a, coding_rng);
  if (!deployment.ok()) {
    std::cerr << deployment.status() << "\n";
    return 1;
  }
  // A round trip survives loss p with probability (1-p)^2, 0.25 at the
  // worst rate: 40 attempts leave an RPC about a 1e-5 chance to run out.
  scec::net::NetCoordinatorOptions driver = scec::recovery::SimDriverOptions();
  driver.retry.max_attempts = 40;

  scec::TablePrinter table({"loss", "staging(ms)", "query(ms)", "timeouts",
                            "retries", "decoded"});
  std::string csv_lines =
      "loss,staging_s," + scec::net::NetCoordinatorStatsCsvHeader() + "\n";
  int failures = 0;
  double baseline_total = -1.0;
  double worst_total = -1.0;
  for (double loss : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5}) {
    scec::net::SimTransportOptions links;
    links.loss_probability = loss;
    scec::recovery::SimDriver run(*deployment, a, problem.fleet, links,
                                  driver);
    const double staging_s = run.transport.Now();
    const auto decoded = run.driver.Query(x);
    const bool exact =
        decoded.ok() && scec::MaxAbsDiff(std::span<const double>(*decoded),
                                         std::span<const double>(expected)) <
                            1e-9;
    if (!exact) ++failures;
    const scec::net::NetCoordinatorStats& stats = run.driver.stats();
    const double total = staging_s + stats.last_query_s;
    if (loss == 0.0) baseline_total = total;
    worst_total = std::max(worst_total, total);
    csv_lines += scec::FormatDouble(loss, 3) + "," +
                 scec::FormatDouble(staging_s, 17) + "," +
                 scec::net::ToCsvRow(stats) + "\n";
    table.AddRow({scec::FormatDouble(loss, 3),
                  scec::FormatDouble(staging_s * 1e3, 6),
                  scec::FormatDouble(stats.last_query_s * 1e3, 6),
                  std::to_string(stats.timeouts),
                  std::to_string(stats.retries),
                  exact ? "exact" : "WRONG"});
  }
  table.Print(std::cout);

  bool io_ok = true;
  if (!metrics_csv.empty()) {
    std::ofstream out(metrics_csv);
    if (out) {
      out << csv_lines;
    } else {
      std::cerr << "cannot open " << metrics_csv << "\n";
      io_ok = false;
    }
  }
  io_ok = scec::bench::ExportTelemetry(telemetry) && io_ok;

  const bool ok = io_ok && failures == 0 && worst_total > baseline_total;
  std::cout << (ok ? "  [PASS] " : "  [FAIL] ")
            << "every loss rate decodes exactly; loss costs time and retries ("
            << scec::FormatDouble(baseline_total * 1e3, 5) << " ms -> "
            << scec::FormatDouble(worst_total * 1e3, 5)
            << " ms at the worst rate)\n";
  return ok ? 0 : 1;
}
