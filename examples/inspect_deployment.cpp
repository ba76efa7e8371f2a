// SPDX-License-Identifier: MIT
//
// inspect_deployment: operator tool that loads a persisted deployment file,
// prints the plan and share layout, and RE-VERIFIES availability + ITS with
// the exact structured check — the check an operator runs before trusting a
// deployment file of unknown provenance.
//
//   ./build/examples/batch_analytics          # writes a deployment file
//   ./build/examples/inspect_deployment --file /tmp/scec_batch_analytics.deployment

#include <iostream>

#include "coding/security_check.h"
#include "common/cli.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "core/deployment_io.h"

int main(int argc, char** argv) {
  std::string file = "/tmp/scec_batch_analytics.deployment";
  scec::CliParser cli("inspect_deployment",
                      "inspect and re-verify a persisted SCEC deployment");
  cli.AddString("file", &file, "deployment file path");
  if (!cli.Parse(argc, argv)) return 1;

  const auto deployment = scec::LoadDeploymentDoubleFromFile(file);
  if (!deployment.ok()) {
    std::cerr << "cannot load '" << file << "': " << deployment.status()
              << "\n";
    return 1;
  }

  const scec::Plan& plan = deployment->plan;
  std::cout << "Deployment: " << file << "\n"
            << "  data rows (m)      : " << deployment->code.m() << "\n"
            << "  pad rows (r)       : " << deployment->code.r() << "\n"
            << "  row width (l)      : " << deployment->l << "\n"
            << "  algorithm          : " << plan.allocation.algorithm << "\n"
            << "  planned total cost : " << plan.allocation.total_cost
            << "  (lower bound " << plan.lower_bound << ", gap "
            << scec::FormatDouble(plan.OptimalityGap() * 100, 4) << "%)\n"
            << "  i*                 : " << plan.i_star << "\n\n";

  scec::TablePrinter table(
      {"device", "fleet index", "coded rows", "payload values"});
  for (size_t d = 0; d < plan.scheme.num_devices(); ++d) {
    table.AddRow({std::to_string(d), std::to_string(plan.participating[d]),
                  std::to_string(plan.scheme.row_counts[d]),
                  std::to_string(deployment->shares[d].coded_rows.size())});
  }
  table.Print(std::cout);

  // Re-verify from first principles (the loader validated structure; this
  // recomputes every rank and span intersection exactly).
  const auto report =
      scec::VerifyStructuredScheme(deployment->code, plan.scheme);
  std::cout << "\nRe-verification: " << report.Summary() << "\n";
  for (const auto& device : report.devices) {
    std::cout << "  device " << device.device << ": rank " << device.rank
              << "/" << device.rows << ", span ∩ data-span dim = "
              << device.intersection_dim
              << (device.secure() ? "  [ITS OK]" : "  [LEAKS]") << "\n";
  }
  return report.Valid() ? 0 : 2;
}
