// SPDX-License-Identifier: MIT
//
// Batched + threaded pipeline paths must be bit-identical to the serial
// per-query path for every scalar type, batch size, and thread count — and
// the steady-state QueryInto path must not allocate.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "workload/distributions.h"

// The zero-allocation test replaces global operator new/delete with counting
// versions. Sanitizer runtimes own the allocator, so skip there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCEC_ALLOC_COUNTER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCEC_ALLOC_COUNTER 0
#else
#define SCEC_ALLOC_COUNTER 1
#endif
#else
#define SCEC_ALLOC_COUNTER 1
#endif

#if SCEC_ALLOC_COUNTER
// GCC pairs the malloc-backed replacement operator new with the library
// operator delete at inlined call sites and warns; the pairing is fine
// because both replacements below are global.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // SCEC_ALLOC_COUNTER

namespace scec {
namespace {

template <typename T>
Result<Deployment<T>> MakeDeployment(size_t m, size_t l, size_t k,
                                     uint64_t seed, Matrix<T>* a_out,
                                     ThreadPool* pool = nullptr) {
  Xoshiro256StarStar cost_rng(seed);
  const auto costs =
      SampleSortedCosts(CostDistribution::Uniform(5.0), k, cost_rng);
  const McscecProblem problem = MakeAbstractProblem(m, l, costs);
  ChaCha20Rng rng(seed + 1);
  *a_out = RandomMatrix<T>(m, l, rng);
  return Deploy(problem, *a_out, rng, TaAlgorithm::kAuto,
                /*verify_security=*/true, pool);
}

template <typename T>
class PipelineBatchTest : public ::testing::Test {};

using ScalarTypes = ::testing::Types<double, Gf61, Gf256>;
TYPED_TEST_SUITE(PipelineBatchTest, ScalarTypes);

TYPED_TEST(PipelineBatchTest, QueryBatchColumnsBitIdenticalToPerQuery) {
  using T = TypeParam;
  Matrix<T> a;
  const auto deployment = MakeDeployment<T>(24, 7, 8, 20, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();

  const size_t hw = ThreadPool::DefaultThreads();
  for (size_t b : {size_t{1}, size_t{3}, size_t{16}, size_t{65}}) {
    ChaCha20Rng xrng(900 + b);
    const auto x = RandomMatrix<T>(deployment->l, b, xrng);

    // Reference: the serial scalar path, one column at a time.
    std::vector<std::vector<T>> expected;
    for (size_t col = 0; col < b; ++col) {
      std::vector<T> xcol(deployment->l);
      for (size_t i = 0; i < deployment->l; ++i) xcol[i] = x(i, col);
      expected.push_back(Query(*deployment, xcol));
    }

    const auto check = [&](const Matrix<T>& y, const char* label) {
      ASSERT_EQ(y.rows(), a.rows());
      ASSERT_EQ(y.cols(), b);
      for (size_t col = 0; col < b; ++col) {
        for (size_t row = 0; row < y.rows(); ++row) {
          ASSERT_EQ(y(row, col), expected[col][row])
              << label << " row=" << row << " col=" << col << " b=" << b;
        }
      }
    };

    check(QueryBatch(*deployment, x), "serial");
    for (size_t threads : {size_t{1}, size_t{2}, hw}) {
      ThreadPool pool(threads);
      check(QueryBatch(*deployment, x, &pool),
            threads == 1 ? "pool1" : "pool");
    }
  }
}

TYPED_TEST(PipelineBatchTest, QueryIntoMatchesQueryAcrossReuse) {
  using T = TypeParam;
  Matrix<T> a;
  const auto deployment = MakeDeployment<T>(18, 5, 6, 21, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();

  QueryWorkspace<T> ws = MakeQueryWorkspace(*deployment);
  ChaCha20Rng xrng(77);
  for (int q = 0; q < 8; ++q) {
    const auto x = RandomVector<T>(deployment->l, xrng);
    const std::span<const T> got =
        QueryInto(*deployment, std::span<const T>(x), ws);
    const std::vector<T> want = Query(*deployment, x);
    ASSERT_EQ(std::vector<T>(got.begin(), got.end()), want) << "query " << q;
  }
}

TYPED_TEST(PipelineBatchTest, ParallelDeployBitIdenticalToSerial) {
  using T = TypeParam;
  Matrix<T> a_serial;
  const auto serial = MakeDeployment<T>(32, 6, 10, 22, &a_serial);
  ASSERT_TRUE(serial.ok()) << serial.status();

  for (size_t threads : {size_t{2}, size_t{4}}) {
    ThreadPool pool(threads);
    Matrix<T> a_parallel;
    const auto parallel =
        MakeDeployment<T>(32, 6, 10, 22, &a_parallel, &pool);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ASSERT_EQ(a_parallel, a_serial);
    ASSERT_EQ(parallel->shares.size(), serial->shares.size());
    for (size_t d = 0; d < serial->shares.size(); ++d) {
      ASSERT_EQ(parallel->shares[d].device, serial->shares[d].device);
      ASSERT_EQ(parallel->shares[d].coded_rows, serial->shares[d].coded_rows)
          << "device " << d << " threads=" << threads;
    }
  }
}

TYPED_TEST(PipelineBatchTest, ResponsePanelColumnsMatchPerQueryResponses) {
  using T = TypeParam;
  Matrix<T> a;
  const auto deployment = MakeDeployment<T>(16, 6, 5, 23, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();

  const size_t b = 9;
  ChaCha20Rng xrng(31);
  const auto x = RandomMatrix<T>(deployment->l, b, xrng);
  ThreadPool pool(3);
  const auto panels = ComputeDeviceResponsePanels(*deployment, x, &pool);
  const auto panels_serial = ComputeDeviceResponsePanels(*deployment, x);
  ASSERT_EQ(panels.size(), deployment->shares.size());

  for (size_t col = 0; col < b; ++col) {
    std::vector<T> xcol(deployment->l);
    for (size_t i = 0; i < deployment->l; ++i) xcol[i] = x(i, col);
    const auto responses = ComputeDeviceResponses(*deployment, xcol);
    for (size_t d = 0; d < panels.size(); ++d) {
      ASSERT_EQ(panels[d], panels_serial[d]);
      ASSERT_EQ(panels[d].rows(), responses[d].size());
      for (size_t row = 0; row < responses[d].size(); ++row) {
        ASSERT_EQ(panels[d](row, col), responses[d][row])
            << "device " << d << " row=" << row << " col=" << col;
      }
    }
  }
}

TYPED_TEST(PipelineBatchTest, VerifiedBatchAcceptsHonestPanels) {
  using T = TypeParam;
  Matrix<T> a;
  const auto deployment = MakeDeployment<T>(20, 6, 7, 24, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ChaCha20Rng vrng(55);
  const auto verifier = ResultVerifier<T>::Create(deployment->shares, vrng);

  const size_t b = 5;
  ChaCha20Rng xrng(56);
  const auto x = RandomMatrix<T>(deployment->l, b, xrng);
  const auto panels = ComputeDeviceResponsePanels(*deployment, x);
  const auto verified = QueryVerifiedBatch(*deployment, verifier, x, panels);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_EQ(*verified, QueryBatch(*deployment, x));
}

TYPED_TEST(PipelineBatchTest, VerifiedBatchRejectsCorruptedPanelNamingDevice) {
  using T = TypeParam;
  Matrix<T> a;
  const auto deployment = MakeDeployment<T>(20, 6, 7, 25, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  ChaCha20Rng vrng(65);
  const auto verifier = ResultVerifier<T>::Create(deployment->shares, vrng);

  const size_t b = 4;
  ChaCha20Rng xrng(66);
  const auto x = RandomMatrix<T>(deployment->l, b, xrng);
  auto panels = ComputeDeviceResponsePanels(*deployment, x);

  // A Byzantine device 2 flips one entry in one column of its panel.
  const size_t bad_device = 2;
  ASSERT_LT(bad_device, panels.size());
  panels[bad_device](0, 3) += FieldTraits<T>::One();

  const auto verified = QueryVerifiedBatch(*deployment, verifier, x, panels);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), ErrorCode::kDecodeFailure);
  EXPECT_NE(verified.status().message().find("device 2"), std::string::npos)
      << verified.status();
}

#if SCEC_ALLOC_COUNTER
// Serves 16 queries through QueryInto after one warm-up call (the first call
// may touch lazily initialised state: metric series, the double mat-vec tier
// selection) and returns how many heap allocations those 16 made.
template <typename T>
size_t SteadyStateQueryAllocations(const Deployment<T>& deployment) {
  QueryWorkspace<T> ws = MakeQueryWorkspace(deployment);
  ChaCha20Rng xrng(99);
  std::vector<std::vector<T>> queries;
  for (int q = 0; q < 16; ++q) {
    queries.push_back(RandomVector<T>(deployment.l, xrng));
  }
  QueryInto(deployment, std::span<const T>(queries[0]), ws);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  T sink = FieldTraits<T>::Zero();
  for (const auto& x : queries) {
    const auto ax = QueryInto(deployment, std::span<const T>(x), ws);
    sink += ax[0];
  }
  g_count_allocs.store(false);
  // Keep the decoded values observable so the loop cannot be elided.
  EXPECT_EQ(sink == sink, true);
  return g_alloc_count.load();
}
#endif

TEST(PipelineBatch, SteadyStateQueryIntoDoesNotAllocate) {
#if !SCEC_ALLOC_COUNTER
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  Matrix<Gf61> a;
  const auto deployment = MakeDeployment<Gf61>(40, 8, 10, 30, &a);
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  EXPECT_EQ(SteadyStateQueryAllocations(*deployment), 0u)
      << "steady-state QueryInto<Gf61> allocated on the heap";

  // Double shares of at least 8 rows, so every device's MatVecInto runs the
  // dispatched vector tier on full row blocks, not only its scalar tail.
  Matrix<double> ad;
  const auto fdeployment = MakeDeployment<double>(96, 40, 6, 31, &ad);
  ASSERT_TRUE(fdeployment.ok()) << fdeployment.status();
  for (const auto& share : fdeployment->shares) {
    ASSERT_GE(share.coded_rows.rows(), 8u);
  }
  EXPECT_EQ(SteadyStateQueryAllocations(*fdeployment), 0u)
      << "steady-state QueryInto<double> allocated on the heap";
#endif
}

}  // namespace
}  // namespace scec
