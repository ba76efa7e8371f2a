// SPDX-License-Identifier: MIT
//
// Robustness bench: the fault-tolerant protocol driver over the simulated
// fleet under device failures. Sweeps the
// number of crashed devices (plus one Byzantine-corruption scenario) and
// reports query latency, recovery effort (re-planned rows, extra plan cost)
// and the latency overhead vs the fault-free baseline. Expected shape: the
// decode stays bit-exact at every fault count, latency grows with the
// deadline + re-plan + re-stage round trips, and every device's cumulative
// view stays ITS-secure (fresh pads per recovery round).

#include <algorithm>
#include <fstream>
#include <iostream>

#include "common/cli.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "linalg/matrix_ops.h"
#include "net/driver.h"
#include "net/sim_transport.h"
#include "recovery/coordinator.h"
#include "sim/faults.h"
#include "telemetry.h"
#include "workload/device_profiles.h"

int main(int argc, char** argv) {
  int64_t m = 48;
  int64_t l = 96;
  int64_t fleet_size = 12;
  int64_t seed = 9;
  std::string metrics_csv;
  std::string metrics_json;
  scec::bench::TelemetryFlags telemetry;
  scec::CliParser cli("fault_recovery",
                      "fault-tolerant SCEC latency/cost vs device faults");
  cli.AddInt("m", &m, "rows of A");
  cli.AddInt("l", &l, "row width");
  cli.AddInt("fleet", &fleet_size, "campus fleet size");
  cli.AddInt("seed", &seed, "RNG seed");
  cli.AddString("run-metrics-csv", &metrics_csv,
                "write per-scenario run+recovery metrics CSV here");
  cli.AddString("run-metrics-json", &metrics_json,
                "write per-scenario run+recovery metrics JSON lines here");
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
  const auto& participating = deployment->plan.participating;
  const size_t max_crashes =
      std::min<size_t>(3, participating.size() > 2 ? participating.size() - 2
                                                   : 0);

  scec::TablePrinter table({"fault", "query(ms)", "overhead", "rounds",
                            "rows replanned", "plan cost x", "decoded",
                            "ITS"});
  // Scenario metrics go through the driver's ledger serialisers
  // (net::ToJson / net::ToCsvRow) instead of bench-local formatting.
  std::string csv_lines =
      "scenario," + scec::net::NetCoordinatorStatsCsvHeader() + "\n";
  std::string json_lines;
  bool ok = true;
  double baseline_ms = -1.0;
  // Scenario list: 0..max_crashes fail-stop devices, then one corruption.
  for (size_t scenario = 0; scenario <= max_crashes + 1; ++scenario) {
    const bool corruption = scenario == max_crashes + 1;
    const size_t crashes = corruption ? 0 : scenario;

    scec::sim::FaultSchedule faults;
    std::string label;
    if (corruption) {
      faults.AddCorruption(participating[1], 0.0, 0, 1.0);
      label = "byzantine x1";
    } else {
      for (size_t c = 0; c < crashes; ++c) {
        faults.AddCrash(participating[c + 1], 0.0);
      }
      label = "crash x" + std::to_string(crashes);
    }
    scec::net::SimTransportOptions options;
    options.faults = &faults;
    const auto session = scec::DeploymentSession<double>::Adopt(*deployment);
    scec::net::SimTransport transport(problem.fleet.devices(), options);
    scec::net::NetCoordinator driver(session, a, problem.fleet,
                                     scec::recovery::SimDriverOptions());
    const scec::Status setup = driver.Setup(&transport);
    const auto result = setup.ok() ? driver.Query(x)
                                   : scec::Result<std::vector<double>>(setup);
    if (!result.ok()) {
      std::cerr << label << ": " << result.status() << "\n";
      return 1;
    }
    const bool exact = scec::MaxAbsDiff(std::span<const double>(*result),
                                        std::span<const double>(expected)) <
                       1e-9;
    const bool secure = driver.VerifyCumulativeSecurity().all_secure;
    const scec::net::NetCoordinatorStats& recovery = driver.stats();
    const double query_ms = recovery.last_query_s * 1e3;
    if (scenario == 0) baseline_ms = query_ms;
    const double overhead =
        baseline_ms > 0.0 ? query_ms / baseline_ms : 1.0;
    const double cost_factor =
        recovery.base_plan_cost > 0.0
            ? (recovery.base_plan_cost + recovery.recovery_plan_cost) /
                  recovery.base_plan_cost
            : 1.0;
    ok = ok && exact && secure;
    if (scenario > 0) ok = ok && query_ms >= baseline_ms;
    csv_lines += label + "," + scec::net::ToCsvRow(recovery) + "\n";
    json_lines += "{\"scenario\":\"" + label +
                  "\",\"driver\":" + scec::net::ToJson(recovery) + "}\n";
    table.AddRow({label, scec::FormatDouble(query_ms, 4),
                  scec::FormatDouble(overhead, 2) + "x",
                  std::to_string(recovery.recovery_rounds),
                  std::to_string(recovery.replanned_rows),
                  scec::FormatDouble(cost_factor, 3),
                  exact ? "exact" : "WRONG", secure ? "OK" : "LEAK"});
  }
  table.Print(std::cout);

  auto write_file = [](const std::string& path, const std::string& body) {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot open " << path << "\n";
      return false;
    }
    out << body;
    return true;
  };
  ok = write_file(metrics_csv, csv_lines) && ok;
  ok = write_file(metrics_json, json_lines) && ok;
  ok = scec::bench::ExportTelemetry(telemetry) && ok;

  std::cout << (ok ? "  [PASS] " : "  [FAIL] ")
            << "every fault scenario decodes exactly with cumulative ITS "
               "intact; faults only cost time and re-planned rows\n";
  return ok ? 0 : 1;
}
