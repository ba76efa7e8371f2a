// SPDX-License-Identifier: MIT
//
// End-to-end in-process pipeline throughput (no simulator): Deploy once,
// then measure Query / QueryBatch rates across matrix sizes and scalar
// types, plus the one-time Deploy cost itself (planning + pad generation +
// encoding + ITS verification).

#include <benchmark/benchmark.h>

#include "telemetry.h"

#include "core/scec.h"
#include "linalg/matrix_ops.h"
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

}  // namespace

SCEC_BENCHMARK_MAIN();
