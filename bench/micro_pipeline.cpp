// SPDX-License-Identifier: MIT
//
// End-to-end in-process pipeline throughput (no simulator): Deploy once,
// then measure Query / QueryBatch rates across matrix sizes and scalar
// types, plus the one-time Deploy cost itself (planning + pad generation +
// encoding + ITS verification). BM_JournalReplay times the durable
// coordinator's recovery from a 256-query journal. BM_SessionOpen and
// BM_NetSetup time set-up at m = l = 1024 on an 8-device fleet and count
// the minor page faults it takes (first touches of fresh pages).

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry.h"

#include "common/thread_pool.h"
#include "core/scec.h"
#include "linalg/matrix_ops.h"
#include "net/driver.h"
#include "net/sim_transport.h"
#include "recovery/coordinator.h"
#include "recovery/journal.h"
#include "workload/device_profiles.h"
#include "workload/distributions.h"

namespace {

scec::McscecProblem MakeProblem(size_t m, size_t l, size_t k, uint64_t seed) {
  scec::Xoshiro256StarStar rng(seed);
  const auto costs = scec::SampleSortedCosts(
      scec::CostDistribution::Uniform(5.0), k, rng);
  return scec::MakeAbstractProblem(m, l, costs);
}

void BM_DeployDouble(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t l = 64;
  const auto problem = MakeProblem(m, l, 16, 1);
  scec::Xoshiro256StarStar drng(2);
  const auto a = scec::RandomMatrix<double>(m, l, drng);
  uint64_t seed = 0;
  for (auto _ : state) {
    scec::ChaCha20Rng rng(++seed);
    auto deployment = scec::Deploy(problem, a, rng);
    benchmark::DoNotOptimize(deployment);
  }
}
BENCHMARK(BM_DeployDouble)->RangeMultiplier(4)->Range(16, 1024);

void BM_DeployNoVerify(benchmark::State& state) {
  // Ablation: how much of Deploy is the ITS verification?
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t l = 64;
  const auto problem = MakeProblem(m, l, 16, 1);
  scec::Xoshiro256StarStar drng(2);
  const auto a = scec::RandomMatrix<double>(m, l, drng);
  uint64_t seed = 0;
  for (auto _ : state) {
    scec::ChaCha20Rng rng(++seed);
    auto deployment = scec::Deploy(problem, a, rng,
                                   scec::TaAlgorithm::kAuto,
                                   /*verify_security=*/false);
    benchmark::DoNotOptimize(deployment);
  }
}
BENCHMARK(BM_DeployNoVerify)->RangeMultiplier(4)->Range(16, 1024);

template <typename T>
void RunQueryBench(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t l = 64;
  const auto problem = MakeProblem(m, l, 16, 3);
  scec::ChaCha20Rng rng(4);
  const auto a = scec::RandomMatrix<T>(m, l, rng);
  const auto deployment = scec::Deploy(problem, a, rng);
  const auto x = scec::RandomVector<T>(l, rng);
  for (auto _ : state) {
    auto y = scec::Query(*deployment, x);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m * l));
}

void BM_QueryDouble(benchmark::State& state) {
  RunQueryBench<double>(state);
}
void BM_QueryGf61(benchmark::State& state) {
  RunQueryBench<scec::Gf61>(state);
}
BENCHMARK(BM_QueryDouble)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_QueryGf61)->RangeMultiplier(4)->Range(16, 4096);

void BM_QueryBatch32(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t l = 64;
  const size_t batch = 32;
  const auto problem = MakeProblem(m, l, 16, 5);
  scec::ChaCha20Rng rng(6);
  scec::Xoshiro256StarStar drng(7);
  const auto a = scec::RandomMatrix<double>(m, l, drng);
  const auto deployment = scec::Deploy(problem, a, rng);
  const auto x = scec::RandomMatrix<double>(l, batch, drng);
  for (auto _ : state) {
    auto y = scec::QueryBatch(*deployment, x);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(m * l * batch));
}
BENCHMARK(BM_QueryBatch32)->RangeMultiplier(4)->Range(16, 1024);

// Set-up at the repo benchmark's shapes (perfbench serve_gf61 and
// net_loopback): m = l = 1024 on 8 devices of equal speed whose
// communication costs differ.
constexpr size_t kSetupM = 1024;
constexpr size_t kSetupL = 1024;

scec::McscecProblem LoopbackProblem() {
  std::vector<scec::EdgeDevice> specs;
  for (size_t d = 0; d < 8; ++d) {
    scec::EdgeDevice device;
    device.name = "edge-" + std::to_string(d);
    device.costs.comm = 1.0 + 0.1 * static_cast<double>(d % 7);
    device.compute_rate_flops = 1e9;
    device.uplink_bps = 1e8;
    device.downlink_bps = 1e8;
    device.link_latency_s = 1e-3;
    specs.push_back(device);
  }
  scec::McscecProblem problem;
  problem.m = kSetupM;
  problem.l = kSetupL;
  problem.fleet = scec::DeviceFleet(std::move(specs));
  return problem;
}

uint64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

// Serving-tier session opens (plan, pads, encode on the pool, ITS check,
// panel plan), as each DeploymentCache miss runs one: range(0) sessions
// held open at once, one per tenant; serve_gf61 opens 8. They are closed
// untimed.
void BM_SessionOpen(benchmark::State& state) {
  using scec::Gf61;
  const size_t tenants = static_cast<size_t>(state.range(0));
  const scec::McscecProblem problem = LoopbackProblem();
  scec::ChaCha20Rng data_rng(1);
  const scec::Matrix<Gf61> a =
      scec::GeneratePadRows<Gf61>(kSetupM, kSetupL, data_rng);
  scec::ThreadPool pool(scec::ThreadPool::DefaultThreads());
  scec::SessionOptions options;
  options.pool = &pool;
  uint64_t seed = 0;
  uint64_t faults = 0;
  for (auto _ : state) {
    std::vector<scec::DeploymentSession<Gf61>> sessions;
    const uint64_t before = MinorFaults();
    for (size_t t = 0; t < tenants; ++t) {
      scec::ChaCha20Rng rng(++seed);
      auto session =
          scec::DeploymentSession<Gf61>::Open(problem, a, rng, options);
      SCEC_CHECK(session.ok()) << session.status();
      sessions.push_back(std::move(*session));
    }
    faults += MinorFaults() - before;
    benchmark::DoNotOptimize(sessions.data());
    state.PauseTiming();
    sessions.clear();
    state.ResumeTiming();
  }
  state.counters["minflt_per_iter"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SessionOpen)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// NetCoordinator::Setup over SimTransport: plan, pads, encode and stage
// every share, ITS check. The coordinator's copy of A is made untimed.
void BM_NetSetup(benchmark::State& state) {
  const scec::McscecProblem problem = LoopbackProblem();
  scec::Xoshiro256StarStar rng(2);
  const auto a = scec::RandomMatrix<double>(kSetupM, kSetupL, rng);
  uint64_t faults = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto coordinator = std::make_unique<scec::net::NetCoordinator>(
        a, problem.fleet, scec::net::NetCoordinatorOptions{});
    auto transport = std::make_unique<scec::net::SimTransport>(
        problem.fleet.devices(), scec::net::SimTransportOptions{});
    state.ResumeTiming();
    const uint64_t before = MinorFaults();
    SCEC_CHECK(coordinator->Setup(transport.get()).ok());
    faults += MinorFaults() - before;
    state.PauseTiming();
    coordinator.reset();
    transport.reset();
    state.ResumeTiming();
  }
  state.counters["minflt_per_iter"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NetSetup)->Unit(benchmark::kMillisecond);

// The durable coordinator's remains after 256 journaled queries at
// m = l = 64 on a 12-device campus fleet: the sealed snapshot and the
// journal a Restart replays.
struct JournalReplayFixture {
  scec::McscecProblem problem;
  scec::Matrix<double> a;
  scec::recovery::DurableCoordinatorOptions options;
  std::string snapshot;
  std::string journal;

  static const JournalReplayFixture& Get() {
    static const JournalReplayFixture fixture;
    return fixture;
  }

 private:
  JournalReplayFixture() {
    constexpr size_t kM = 64;
    constexpr size_t kL = 64;
    constexpr size_t kQueries = 256;
    scec::Xoshiro256StarStar fleet_rng(20190707);
    problem.m = kM;
    problem.l = kL;
    problem.fleet = scec::MakeCampusFleet(12, fleet_rng);
    scec::Xoshiro256StarStar rng(8);
    a = scec::RandomMatrix<double>(kM, kL, rng);
    scec::ChaCha20Rng coding_rng(9);
    auto deployment = scec::Deploy(problem, a, coding_rng);
    SCEC_CHECK(deployment.ok()) << deployment.status();
    std::ostringstream os;
    auto coordinator = scec::recovery::DurableCoordinator::Start(
        *deployment, &a, problem.fleet.devices(), &snapshot, &os, options);
    SCEC_CHECK(coordinator.ok()) << coordinator.status();
    for (size_t q = 0; q < kQueries; ++q) {
      const auto x = scec::RandomVector<double>(kL, rng);
      SCEC_CHECK((*coordinator)->Query(x).ok());
    }
    coordinator->reset();  // the kill
    journal = os.str();
  }
};

enum class ReplayPath { kRestart, kSinglePass, kLoadThenFold };

// kRestart: the whole DurableCoordinator::Restart (bind, unseal, replay,
// restage, restore). kSinglePass: its journal replay alone, the reader
// folding each record as it goes. kLoadThenFold: LoadJournal's event list,
// then BuildReplayState over it.
void BM_JournalReplay(benchmark::State& state, ReplayPath path) {
  const JournalReplayFixture& f = JournalReplayFixture::Get();
  for (auto _ : state) {
    switch (path) {
      case ReplayPath::kRestart: {
        std::ostringstream tail;
        auto restarted = scec::recovery::DurableCoordinator::Restart(
            f.snapshot, f.journal, &f.a, f.problem.fleet.devices(), &tail,
            f.options);
        SCEC_CHECK(restarted.ok()) << restarted.status();
        benchmark::DoNotOptimize(restarted);
        break;
      }
      case ReplayPath::kSinglePass: {
        auto reader = scec::recovery::JournalRecordReader::Open(f.journal);
        SCEC_CHECK(reader.ok());
        auto replayed = scec::recovery::FoldJournal(*reader);
        SCEC_CHECK(replayed.ok()) << replayed.status();
        benchmark::DoNotOptimize(replayed);
        break;
      }
      case ReplayPath::kLoadThenFold: {
        auto loaded = scec::recovery::LoadJournal(f.journal);
        SCEC_CHECK(loaded.ok());
        auto replayed = scec::recovery::BuildReplayState(*loaded);
        SCEC_CHECK(replayed.ok()) << replayed.status();
        benchmark::DoNotOptimize(replayed);
        break;
      }
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(f.journal.size()));
}
BENCHMARK_CAPTURE(BM_JournalReplay, restart, ReplayPath::kRestart)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_JournalReplay, single_pass, ReplayPath::kSinglePass)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_JournalReplay, load_then_fold, ReplayPath::kLoadThenFold)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

SCEC_BENCHMARK_MAIN();
