// SPDX-License-Identifier: MIT
//
// Batched-kernel and thread-pool benchmarks backing the PR's perf claims
// (see docs/PERFORMANCE.md and BENCH_pr2.json):
//
//   * MatVecBatch<Gf61> vs b independent mat-vecs at n=1024 — both against
//     the library's delayed-reduction MatVec and against a local per-MAC
//     naive kernel (the pre-batching implementation, kept here as the
//     baseline the ≥4× target is measured against).
//   * MatVecInto<double> (runtime-dispatched row-block kernel) vs the naive
//     loop, at n=1024 and at device-share shapes.
//   * Every GF(2^61−1) panel tier on its own at the serving share shape.
//   * Parallel Deploy scaling across pool sizes at k=16 devices.
//   * Steady-state QueryInto (zero allocations) vs allocating Query.

#include <benchmark/benchmark.h>

#include "telemetry.h"

#include "core/scec.h"
#include "linalg/batch_kernels.h"
#include "linalg/matrix_ops.h"
#include "workload/distributions.h"

namespace {

using scec::Gf61;
using scec::Matrix;

constexpr size_t kN = 1024;  // square data matrix, n × n

// The pre-PR baseline: one modular multiply + one modular add per term,
// reduced immediately (no delayed reduction, no panel blocking).
template <typename T>
void NaiveMatVecInto(const Matrix<T>& m, std::span<const T> x,
                     std::span<T> y) {
  for (size_t row = 0; row < m.rows(); ++row) {
    auto a = m.Row(row);
    T acc = scec::FieldTraits<T>::Zero();
    for (size_t col = 0; col < m.cols(); ++col) acc += a[col] * x[col];
    y[row] = acc;
  }
}

template <typename T>
Matrix<T> BenchMatrix(size_t rows, size_t cols, uint64_t seed) {
  scec::ChaCha20Rng rng(seed);
  return scec::RandomMatrix<T>(rows, cols, rng);
}

// --- b independent mat-vecs, naive per-MAC kernel (baseline) ---------------
template <typename T>
void RunMatVecNaiveLoop(benchmark::State& state) {
  const size_t b = static_cast<size_t>(state.range(0));
  const auto a = BenchMatrix<T>(kN, kN, 1);
  const auto x = BenchMatrix<T>(kN, b, 2);
  std::vector<T> xcol(kN), y(kN);
  for (auto _ : state) {
    for (size_t col = 0; col < b; ++col) {
      for (size_t i = 0; i < kN; ++i) xcol[i] = x(i, col);
      NaiveMatVecInto(a, std::span<const T>(xcol), std::span<T>(y));
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kN * kN * b));
}

// --- b independent mat-vecs, library MatVecInto (delayed reduction) --------
template <typename T>
void RunMatVecLibraryLoop(benchmark::State& state) {
  const size_t b = static_cast<size_t>(state.range(0));
  const auto a = BenchMatrix<T>(kN, kN, 1);
  const auto x = BenchMatrix<T>(kN, b, 2);
  std::vector<T> xcol(kN), y(kN);
  for (auto _ : state) {
    for (size_t col = 0; col < b; ++col) {
      for (size_t i = 0; i < kN; ++i) xcol[i] = x(i, col);
      scec::MatVecInto(a, std::span<const T>(xcol), std::span<T>(y));
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kN * kN * b));
}

// --- batched panel kernel --------------------------------------------------
template <typename T>
void RunMatVecBatch(benchmark::State& state) {
  const size_t b = static_cast<size_t>(state.range(0));
  const auto a = BenchMatrix<T>(kN, kN, 1);
  const auto x = BenchMatrix<T>(kN, b, 2);
  Matrix<T> y(kN, b);
  for (auto _ : state) {
    scec::MatMulPanel(a, x, y);
    benchmark::DoNotOptimize(y.Data().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kN * kN * b));
}

void BM_MatVecNaiveLoopGf61(benchmark::State& state) {
  RunMatVecNaiveLoop<Gf61>(state);
}
void BM_MatVecLibraryLoopGf61(benchmark::State& state) {
  RunMatVecLibraryLoop<Gf61>(state);
}
void BM_MatVecBatchGf61(benchmark::State& state) {
  RunMatVecBatch<Gf61>(state);
}
void BM_MatVecNaiveLoopDouble(benchmark::State& state) {
  RunMatVecNaiveLoop<double>(state);
}
void BM_MatVecLibraryLoopDouble(benchmark::State& state) {
  RunMatVecLibraryLoop<double>(state);
}
void BM_MatVecBatchDouble(benchmark::State& state) {
  RunMatVecBatch<double>(state);
}
BENCHMARK(BM_MatVecNaiveLoopGf61)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_MatVecLibraryLoopGf61)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_MatVecBatchGf61)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_MatVecNaiveLoopDouble)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_MatVecLibraryLoopDouble)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_MatVecBatchDouble)->Arg(4)->Arg(16)->Arg(64);

// --- one double mat-vec at a device-share shape (rows × cols) --------------
// The naive loop against the library's dispatched MatVecInto (the row-block
// vector kernel), one query at a time as scecd serves it. 205×1024 is the
// largest share of the repository benchmark's net_loopback deployment.
template <bool kLibrary>
void RunShareMatVecDouble(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  const auto a = BenchMatrix<double>(rows, cols, 1);
  const auto x = BenchMatrix<double>(cols, 1, 2);
  std::vector<double> y(rows);
  for (auto _ : state) {
    if constexpr (kLibrary) {
      scec::MatVecInto(a, x.Data(), std::span<double>(y));
    } else {
      NaiveMatVecInto(a, x.Data(), std::span<double>(y));
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows * cols));
}
void BM_ShareMatVecNaiveDouble(benchmark::State& state) {
  RunShareMatVecDouble<false>(state);
}
void BM_ShareMatVecLibraryDouble(benchmark::State& state) {
  RunShareMatVecDouble<true>(state);
}
BENCHMARK(BM_ShareMatVecNaiveDouble)->Args({205, 1024})->Args({64, 64});
BENCHMARK(BM_ShareMatVecLibraryDouble)->Args({205, 1024})->Args({64, 64});

// --- each Gf61 panel tier at the serving share shape ------------------------
// serve_gf61 multiplies every 205×1024 share of a tenant by a 1024×32 panel
// of queries. The argument indexes Gf61PanelTiers(); the label names the
// tier, and a tier this host cannot run is skipped.
void BM_Gf61PanelTier(benchmark::State& state) {
  const auto tiers = scec::kernel_internal::Gf61PanelTiers();
  const size_t index = static_cast<size_t>(state.range(0));
  if (index >= tiers.size() || !tiers[index].supported) {
    state.SkipWithError("tier not available on this host");
    return;
  }
  state.SetLabel(tiers[index].name);
  const size_t rows = 205, l = 1024, b = 32;
  const auto a = BenchMatrix<Gf61>(rows, l, 1);
  const auto x = BenchMatrix<Gf61>(l, b, 2);
  Matrix<Gf61> y(rows, b);
  for (auto _ : state) {
    tiers[index].fn(a, x, y.Data(), 0, rows);
    benchmark::DoNotOptimize(y.Data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows * l * b));
}
BENCHMARK(BM_Gf61PanelTier)->DenseRange(0, 2);

// --- batched kernel with a device-level pool -------------------------------
void BM_MatVecBatchGf61Pooled(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t b = 16;
  const auto a = BenchMatrix<Gf61>(kN, kN, 1);
  const auto x = BenchMatrix<Gf61>(kN, b, 2);
  Matrix<Gf61> y(kN, b);
  scec::ThreadPool pool(threads);
  for (auto _ : state) {
    scec::MatMulPanel(a, x, y, &pool);
    benchmark::DoNotOptimize(y.Data().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kN * kN * b));
}
// Real time: the work runs on pool workers, so main-thread CPU time would
// overstate throughput.
BENCHMARK(BM_MatVecBatchGf61Pooled)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// --- parallel Deploy scaling ----------------------------------------------
scec::McscecProblem MakeProblem(size_t m, size_t l, size_t k, uint64_t seed) {
  scec::Xoshiro256StarStar rng(seed);
  const auto costs =
      scec::SampleSortedCosts(scec::CostDistribution::Uniform(5.0), k, rng);
  return scec::MakeAbstractProblem(m, l, costs);
}

void BM_DeployGf61Parallel(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t m = 1024, l = 128, k = 16;
  const auto problem = MakeProblem(m, l, k, 1);
  scec::ChaCha20Rng arng(2);
  const auto a = scec::RandomMatrix<Gf61>(m, l, arng);
  scec::ThreadPool pool(threads);
  uint64_t seed = 0;
  for (auto _ : state) {
    scec::ChaCha20Rng rng(++seed);
    auto deployment = scec::Deploy(problem, a, rng, scec::TaAlgorithm::kAuto,
                                   /*verify_security=*/true, &pool);
    benchmark::DoNotOptimize(deployment);
  }
}
BENCHMARK(BM_DeployGf61Parallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// --- steady-state query serving -------------------------------------------
void BM_QueryIntoSteadyState(benchmark::State& state) {
  const size_t m = 1024, l = 64, k = 16;
  const auto problem = MakeProblem(m, l, k, 3);
  scec::ChaCha20Rng rng(4);
  const auto a = scec::RandomMatrix<Gf61>(m, l, rng);
  const auto deployment = scec::Deploy(problem, a, rng);
  const auto x = scec::RandomVector<Gf61>(l, rng);
  auto ws = scec::MakeQueryWorkspace(*deployment);
  for (auto _ : state) {
    auto y = scec::QueryInto(*deployment, std::span<const Gf61>(x), ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m * l));
}
BENCHMARK(BM_QueryIntoSteadyState);

void BM_QueryAllocatingGf61(benchmark::State& state) {
  // The pre-workspace path: a fresh workspace (two vectors + offsets) per
  // query. Compare against BM_QueryIntoSteadyState.
  const size_t m = 1024, l = 64, k = 16;
  const auto problem = MakeProblem(m, l, k, 3);
  scec::ChaCha20Rng rng(4);
  const auto a = scec::RandomMatrix<Gf61>(m, l, rng);
  const auto deployment = scec::Deploy(problem, a, rng);
  const auto x = scec::RandomVector<Gf61>(l, rng);
  for (auto _ : state) {
    auto y = scec::Query(*deployment, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m * l));
}
BENCHMARK(BM_QueryAllocatingGf61);

}  // namespace

SCEC_BENCHMARK_MAIN();
