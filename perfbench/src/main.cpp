// SPDX-License-Identifier: MIT
//
// perfbench: the repository benchmark's measuring binary. perfbench/run.py
// builds it and is the command to run; see perfbench/README.md.
//
//   perfbench --workload <net_loopback|serve_gf61|durable_journal>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --selftest
//
// --trace 0 measures the workload's end-to-end metrics with tracing off.
// --trace 1 is the traced run: it runs the workload untraced and then
// traced for half the seconds each (their queries_per_s ratio is
// obs.trace_overhead), runs the other two workloads traced for
// kForeignTracedSeconds each so every layer's per-layer metrics come from
// the workload whose path uses that layer, replays the set-up layers at
// this workload's shapes, and writes every span to
// <out-dir>/trace-<workload>.json (the latest traced run of each workload).
//
// Output: JSON lines on stdout; the last one is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when an answer was wrong or a check failed.

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "check.h"
#include "common/cli.h"
#include "common/thread_pool.h"
#include "core/planner.h"
#include "layers.h"
#include "linalg/batch_kernels.h"
#include "linalg/matrix_ops.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using RunFn = RunResult (*)(const RunConfig&);

struct Workload {
  const char* name;
  RunFn run;
  // Set-ups timed per untraced run; setup_s is their median and restart_s
  // the median of all but the first.
  size_t setups;
};

// Set-up costs differ by orders of magnitude (seconds for the two
// m = 1024 workloads, about a millisecond for durable_journal, which
// restarts every kDurableQueriesPerKill queries and so sets up many times).
constexpr Workload kWorkloads[] = {
    {"net_loopback", RunNetLoopback, 7},
    {"serve_gf61", RunServeGf61, 9},
    {"durable_journal", RunDurableJournal, 1},
};

constexpr double kForeignTracedSeconds = 2.0;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string AffinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
  }
  return out;
}

void PrintContext(const std::string& workload, uint64_t seed, bool trace,
                  const RunResult& result) {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  const scec::Gf61KernelReport& tier = scec::Gf61KernelTier();
  std::cout << "{\"context\":{\"workload\":\"" << workload
            << "\",\"seed\":" << seed << ",\"trace\":" << (trace ? 1 : 0)
            << ",\"host\":\"" << scec::obs::JsonEscape(host)
            << "\",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
            << ",\"cpu_affinity\":\"" << AffinityList()
            << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"default_pool_threads\":"
            << scec::ThreadPool::DefaultThreads()
            << ",\"gf61_kernel_tier\":\"" << tier.tier
            << "\",\"gf61_calibrated\":" << (tier.calibrated ? "true" : "false")
            << ",\"gf61_mul32_best_ns\":" << JsonNumber(tier.mul32_best_ns)
            << ",\"gf61_ifma_best_ns\":" << JsonNumber(tier.ifma_best_ns);
  for (const auto& [key, value] : result.context) {
    std::cout << ",\"" << key << "\":\"" << scec::obs::JsonEscape(value)
              << "\"";
  }
  std::cout << "}}\n";
  for (const std::string& failure : result.check_failures) {
    std::cout << "{\"check_failure\":\"" << scec::obs::JsonEscape(failure)
              << "\"}\n";
  }
}

void PrintResult(const RunResult& result) {
  const bool correct = result.wrong == 0 && result.check_failures.empty();
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::cout << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
              << JsonNumber(metric.value) << ",\"unit\":\"" << metric.unit
              << "\"}";
    first = false;
  }
  std::cout << "}}\n";
}

void Merge(RunResult* into, RunResult from, const std::string& prefix) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->wrong += from.wrong;
  for (std::string& failure : from.check_failures) {
    into->check_failures.push_back(std::move(failure));
  }
  for (auto& [key, value] : from.context) {
    into->context[prefix + key] = std::move(value);
  }
}

// The traced run (see the file comment).
RunResult RunTraced(const Workload& workload, uint64_t seed, double seconds,
                    const std::string& out_dir) {
  RunResult out;
  LayerTable table;

  RunConfig untraced_config;
  untraced_config.seed = seed;
  untraced_config.seconds = seconds / 2.0;
  untraced_config.setups = 1;
  RunResult untraced = workload.run(untraced_config);
  const double untraced_qps = untraced.metrics.at("queries_per_s").value;
  Merge(&out, std::move(untraced), "untraced.");

  scec::obs::Tracer& tracer = scec::obs::Tracer::Global();
  tracer.Enable(true);

  std::vector<std::unique_ptr<SpanLog>> logs;
  auto traced_run = [&](const Workload& traced_workload, double run_seconds) {
    logs.push_back(std::make_unique<SpanLog>());
    RunConfig config;
    config.seed = seed;
    config.seconds = run_seconds;
    config.setups = 1;
    config.spans = logs.back().get();
    config.table = &table;
    return traced_workload.run(config);
  };

  RunResult own = traced_run(workload, seconds / 2.0);
  const double traced_qps = own.metrics.at("queries_per_s").value;
  for (auto& [name, metric] : own.metrics) out.metrics[name] = metric;
  Merge(&out, std::move(own), "traced.");
  for (const Workload& other : kWorkloads) {
    if (&other == &workload) continue;
    RunResult result = traced_run(other, kForeignTracedSeconds);
    for (auto& [name, metric] : result.metrics) out.metrics[name] = metric;
    Merge(&out, std::move(result), std::string(other.name) + ".");
  }
  tracer.Enable(false);
  out.metrics.erase("queries_per_s");
  out.metrics["obs.trace_overhead"] = {traced_qps / untraced_qps, "ratio"};

  // Set-up layers at this workload's own shapes.
  const std::string name = workload.name;
  if (name == "net_loopback") {
    ReplaySetupLayers(MakeProblem(kNetM, kNetL, LoopbackFleet(kNetDevices)),
                      RandomDoubleMatrix(kNetM, kNetL, seed), seed,
                      &out.metrics, &table);
  } else if (name == "serve_gf61") {
    ReplaySetupLayers(
        MakeProblem(kServeM, kServeL, LoopbackFleet(kServeDevices)),
        RandomGf61Matrix(kServeM, kServeL, seed), seed, &out.metrics, &table);
  } else {
    ReplaySetupLayers(MakeProblem(kDurableM, kDurableL, DurableFleet()),
                      RandomDoubleMatrix(kDurableM, kDurableL, seed), seed,
                      &out.metrics, &table);
  }
  table.Print();

  std::vector<const SpanLog*> views;
  for (const auto& log : logs) views.push_back(log.get());
  const std::string path = out_dir + "/trace-" + name + ".json";
  if (!ExportChromeTrace(path, views)) {
    out.check_failures.push_back("could not write " + path);
  }
  out.context["trace_file"] = path;
  return out;
}

// The benchmark's own tests (perfbench/test_perfbench.py runs them).
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool condition, const char* what) {
    std::cout << (condition ? "ok   " : "FAIL ") << what << "\n";
    if (!condition) ++failures;
  };

  // The answer checkers reject a single corrupted element.
  {
    const auto a = RandomDoubleMatrix(64, 48, 7);
    std::vector<double> x(48, 0.25);
    std::vector<double> y = scec::MatVec(a, std::span<const double>(x));
    expect(CloseToMatVec(a, x, y), "double checker accepts A*x");
    y[17] += 1e-6;
    expect(!CloseToMatVec(a, x, y), "double checker rejects one element off by 1e-6");
    std::vector<double> z = scec::MatVec(a, std::span<const double>(x));
    std::vector<double> w = z;
    w[5] = std::nextafter(w[5], 2.0);
    expect(BitEqual(z, z) && !BitEqual(z, w), "bit check rejects a one-ulp change");

    const auto g = RandomGf61Matrix(64, 48, 9);
    std::vector<scec::Gf61> gx(48);
    for (size_t i = 0; i < gx.size(); ++i) gx[i] = scec::Gf61(3 * i + 1);
    std::vector<scec::Gf61> gy = scec::MatVec(g, std::span<const scec::Gf61>(gx));
    const Gf61Projection projection(g, 11);
    expect(projection.Check(gx, gy) && ExactMatVec(g, gx, gy),
           "Gf61 checkers accept A*x");
    bool all_rejected = true;
    for (size_t i = 0; i < gy.size(); ++i) {
      std::vector<scec::Gf61> bad = gy;
      bad[i] += scec::Gf61(1);
      all_rejected = all_rejected && !projection.Check(gx, bad) &&
                     !ExactMatVec(g, gx, bad);
    }
    expect(all_rejected, "Gf61 checkers reject each single corrupted element");
  }

  // A new seed changes the inputs but not the shapes (or the plan).
  {
    const auto a1 = RandomDoubleMatrix(kNetM, kNetL, 1);
    const auto a2 = RandomDoubleMatrix(kNetM, kNetL, 2);
    expect(a1.rows() == a2.rows() && a1.cols() == a2.cols() &&
               !BitEqual(a1.Data(), a2.Data()),
           "net_loopback: seed changes A, not its shape");
    const auto g1 = RandomGf61Matrix(kServeM, kServeL, 1);
    const auto g2 = RandomGf61Matrix(kServeM, kServeL, 2);
    expect(g1.rows() == g2.rows() && g1.cols() == g2.cols() &&
               !(g1(0, 0) == g2(0, 0) && g1(5, 9) == g2(5, 9)),
           "serve_gf61: seed changes A, not its shape");
    const auto p1 = scec::PlanMcscec(MakeProblem(kDurableM, kDurableL, DurableFleet()));
    const auto p2 = scec::PlanMcscec(MakeProblem(kDurableM, kDurableL, DurableFleet()));
    expect(p1.ok() && p2.ok() &&
               p1->allocation.total_cost == p2->allocation.total_cost &&
               p1->participating == p2->participating,
           "durable_journal: the fleet and plan do not depend on the seed");
  }
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  scec::CliParser cli("perfbench", "Repository benchmark (perfbench/README.md)");
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  std::string out_dir = ".";
  bool selftest = false;
  cli.AddString("workload", &workload_name,
                "net_loopback | serve_gf61 | durable_journal");
  cli.AddUint("seed", &seed, "input seed");
  cli.AddDouble("seconds", &seconds, "timed seconds per run");
  cli.AddInt("trace", &trace, "0 = end-to-end metrics, 1 = per-layer metrics");
  cli.AddString("out-dir", &out_dir, "where the traced run writes its trace");
  cli.AddBool("selftest", &selftest, "run the benchmark's own tests");
  if (!cli.Parse(argc, argv)) return 2;
  if (selftest) return SelfTest();

  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr || (trace != 0 && trace != 1) || !(seconds > 0.0)) {
    std::cerr << "bad arguments\n" << cli.Usage();
    return 2;
  }

  // The Gf61 panel tier is calibrated once per process on a 70 us timing;
  // take it before any worker thread exists, after a short spin so the
  // core is not timed while still clocking up from idle.
  for (const double start = NowS(); NowS() - start < 0.2;) {
  }
  scec::Gf61KernelTier();

  RunResult result;
  if (trace == 0) {
    RunConfig config;
    config.seed = seed;
    config.seconds = seconds;
    config.setups = workload->setups;
    result = workload->run(config);
  } else {
    result = RunTraced(*workload, seed, seconds, out_dir);
  }
  PrintContext(workload->name, seed, trace == 1, result);
  PrintResult(result);
  return result.wrong == 0 && result.check_failures.empty() ? 0 : 1;
}
