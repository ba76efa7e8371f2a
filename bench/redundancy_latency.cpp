// SPDX-License-Identifier: MIT
//
// Extension bench (paper footnote 1): straggler masking via block
// replication. Sweeps the replication factor g and reports mean / p50 / p99
// query completion time over many query rounds under a heavy-tailed
// straggler model, against the no-redundancy baseline, plus the resource
// cost of each setting. Expected shape: the tail (p99) collapses with the
// first replica and flattens after, while cost grows linearly in g.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "common/cli.h"
#include "common/csv.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/redundancy.h"
#include "net/sim_transport.h"
#include "sim/redundant_protocol.h"
#include "telemetry.h"
#include "workload/distributions.h"

namespace {

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
    device.compute_rate_flops = rng.NextDouble(1e7, 4e7);
    device.uplink_bps = 5e7;
    device.downlink_bps = 5e7;
    device.link_latency_s = 2e-3;
    problem.fleet.Add(device);
  }
  return problem;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t m = 256;
  int64_t l = 128;
  int64_t k = 40;
  int64_t rounds = 300;
  int64_t max_replication = 3;
  double straggler_rate = 0.8;
  int64_t seed = 5;
  scec::bench::TelemetryFlags telemetry;
  scec::CliParser cli("redundancy_latency",
                      "tail latency vs replication factor under stragglers");
  cli.AddInt("m", &m, "rows of A");
  cli.AddInt("l", &l, "row width");
  cli.AddInt("k", &k, "edge devices");
  cli.AddInt("rounds", &rounds, "query rounds per setting");
  cli.AddInt("max-replication", &max_replication, "largest g to sweep");
  cli.AddDouble("straggler-rate", &straggler_rate,
                "exponential slowdown rate (smaller = heavier tail)");
  cli.AddInt("seed", &seed, "RNG seed");
  scec::bench::AddTelemetryFlags(&cli, &telemetry);
  if (!cli.Parse(argc, argv)) return 1;
  scec::bench::StartTelemetry(telemetry);

  const auto problem =
      MakeProblem(static_cast<size_t>(m), static_cast<size_t>(l),
                  static_cast<size_t>(k), static_cast<uint64_t>(seed));
  scec::ChaCha20Rng coding_rng(static_cast<uint64_t>(seed) + 1);
  scec::Xoshiro256StarStar data_rng(static_cast<uint64_t>(seed) + 2);
  const auto a = scec::RandomMatrix<double>(problem.m, problem.l, data_rng);
  const auto deployment = scec::Deploy(problem, a, coding_rng);
  if (!deployment.ok()) {
    std::cerr << deployment.status() << "\n";
    return 1;
  }
  const auto x = scec::RandomVector<double>(problem.l, data_rng);

  scec::TablePrinter table({"g", "devices", "cost", "mean(ms)", "p50(ms)",
                            "p99(ms)", "replica-wins/round"});
  double baseline_p99 = 0.0;
  double best_p99 = 0.0;
  std::string no_replicated_plan;  // why not even g = 1 fits, if so
  for (int64_t g = 0; g <= max_replication; ++g) {
    const auto plan =
        scec::PlanRedundantMcscec(problem, static_cast<size_t>(g));
    if (!plan.ok()) {
      std::cout << "g = " << g << ": " << plan.status().message() << "\n";
      if (g == 1) no_replicated_plan = plan.status().message();
      break;
    }
    scec::net::SimTransportOptions options;
    options.straggler.kind = scec::sim::StragglerKind::kExponentialSlowdown;
    options.straggler.rate = straggler_rate;
    options.straggler_seed = static_cast<uint64_t>(seed) + 100;

    scec::net::SimTransport transport(problem.fleet.devices(), options);
    scec::sim::RedundantScecProtocol protocol(&*deployment, &*plan,
                                              &transport);
    const scec::Status staged = protocol.Stage();
    if (!staged.ok()) {
      std::cerr << staged << "\n";
      return 1;
    }

    scec::SampleStat latency_ms;
    scec::RunningStat wins;
    for (int64_t round = 0; round < rounds; ++round) {
      const auto decoded = protocol.RunQuery(x);
      (void)decoded;
      latency_ms.Add(protocol.metrics().query_completion_time * 1e3);
      wins.Add(static_cast<double>(
          protocol.metrics().blocks_won_by_replica));
    }
    const double p99 = latency_ms.Percentile(99);
    if (g == 0) baseline_p99 = p99;
    best_p99 = g == 0 ? p99 : std::min(best_p99, p99);
    const size_t devices_used =
        plan->base.scheme.num_devices() * (static_cast<size_t>(g) + 1);
    table.AddRow({std::to_string(g), std::to_string(devices_used),
                  scec::FormatDouble(plan->total_cost, 7),
                  scec::FormatDouble(latency_ms.mean(), 5),
                  scec::FormatDouble(latency_ms.Percentile(50), 5),
                  scec::FormatDouble(p99, 5),
                  scec::FormatDouble(wins.mean(), 4)});
  }
  table.Print(std::cout);
  scec::bench::ExportTelemetry(telemetry);

  const bool improved = best_p99 < baseline_p99;
  if (!no_replicated_plan.empty()) {
    // Nothing to compare g = 0 against.
    std::cout << "  [FAIL] no replicated plan (g >= 1) fits this fleet: "
              << no_replicated_plan << "\n";
  } else {
    std::cout << (improved ? "  [PASS] " : "  [FAIL] ")
              << "replication reduces p99 latency (" << baseline_p99
              << " ms -> " << best_p99 << " ms)\n";
  }
  std::cout << "  Cost/latency trade: each replica round multiplies the "
               "resource bill;\n  Lemma 1's V <= r cap is what keeps every "
               "replica's work bounded.\n";
  return improved ? 0 : 1;
}
