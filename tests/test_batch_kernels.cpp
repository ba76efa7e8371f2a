// SPDX-License-Identifier: MIT
//
// The delayed-reduction accumulator, the double mat-vec tiers and the batched
// panel kernels must agree *exactly* (bit for bit) with the naive scalar path
// — random inputs, adversarial all-(P−1) and hard floating-point inputs,
// every scalar type, every thread count.

#include "linalg/batch_kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "field/accumulator.h"
#include "linalg/matrix_ops.h"
#include "obs/metrics.h"

namespace scec {
namespace {

// The naive per-MAC reduction path the accumulator must match: one modular
// multiply and one modular add per term, reduced immediately. For double,
// each product is stored through a volatile before the add, so it is rounded
// on its own whatever the compiler's -ffp-contract setting: this reference
// never becomes a fused multiply-add, even where the code under test would.
template <typename T>
T NaiveDot(std::span<const T> a, std::span<const T> b) {
  T acc = FieldTraits<T>::Zero();
  for (size_t i = 0; i < a.size(); ++i) {
    if constexpr (std::is_same_v<T, double>) {
      volatile double product = a[i] * b[i];
      acc += product;
    } else {
      acc += a[i] * b[i];
    }
  }
  return acc;
}

template <typename T>
std::vector<T> NaiveMatVec(const Matrix<T>& m, std::span<const T> x) {
  std::vector<T> y(m.rows(), FieldTraits<T>::Zero());
  for (size_t row = 0; row < m.rows(); ++row) {
    y[row] = NaiveDot(std::span<const T>(m.Row(row)), x);
  }
  return y;
}

template <typename T>
void ExpectDotAgreement(size_t n, uint64_t seed) {
  ChaCha20Rng rng(seed);
  const auto a = RandomVector<T>(n, rng);
  const auto b = RandomVector<T>(n, rng);
  const T naive = NaiveDot(std::span<const T>(a), std::span<const T>(b));
  const T delayed = Dot(std::span<const T>(a), std::span<const T>(b));
  EXPECT_EQ(naive, delayed) << "n=" << n;
}

TEST(DotAccumulator, Gf61AgreesWithPerMacReductionOnRandomInputs) {
  // Sizes straddle the fold interval (63) and several multiples of it.
  for (size_t n : {0u, 1u, 2u, 62u, 63u, 64u, 126u, 127u, 1000u, 4096u}) {
    ExpectDotAgreement<Gf61>(n, 100 + n);
  }
}

TEST(DotAccumulator, Gf61AgreesOnAdversarialAllMaxInputs) {
  // Every operand is P−1, the largest canonical element: each product is
  // the maximal (P−1)^2, driving the 128-bit accumulator as close to
  // overflow as possible. 10000 terms cross the fold interval 158 times.
  const Gf61 max_elem(kMersenne61 - 1);
  const std::vector<Gf61> a(10000, max_elem);
  const std::vector<Gf61> b(10000, max_elem);
  const Gf61 naive = NaiveDot(std::span<const Gf61>(a),
                              std::span<const Gf61>(b));
  const Gf61 delayed = Dot(std::span<const Gf61>(a), std::span<const Gf61>(b));
  EXPECT_EQ(naive, delayed);
  // Independent ground truth: (P−1)^2 ≡ 1 (mod P), so the dot product is
  // the term count mod P.
  EXPECT_EQ(delayed, Gf61(10000));
}

TEST(DotAccumulator, Gf61AddMatchesScalarAddition) {
  DotAccumulator<Gf61> acc;
  Gf61 expected = Gf61::Zero();
  ChaCha20Rng rng(7);
  for (size_t i = 0; i < 500; ++i) {
    const Gf61 v = FieldTraits<Gf61>::Random(rng);
    acc.Add(v);
    expected += v;
  }
  EXPECT_EQ(acc.Value(), expected);
}

TEST(DotAccumulator, GenericFallbackAgreesForOtherScalars) {
  for (size_t n : {0u, 1u, 63u, 100u, 1000u}) {
    ExpectDotAgreement<Gf256>(n, 200 + n);
    ExpectDotAgreement<GfSmall>(n, 300 + n);
    ExpectDotAgreement<double>(n, 400 + n);
  }
}

TEST(MatVecInto, MatchesNaiveMatVecForAllScalarTypes) {
  ChaCha20Rng rng(11);
  const auto check = [&](auto tag, size_t rows, size_t cols) {
    using T = decltype(tag);
    const auto m = RandomMatrix<T>(rows, cols, rng);
    const auto x = RandomVector<T>(cols, rng);
    std::vector<T> y(rows);
    MatVecInto(m, std::span<const T>(x), std::span<T>(y));
    EXPECT_EQ(y, NaiveMatVec(m, std::span<const T>(x)));
    EXPECT_EQ(MatVec(m, std::span<const T>(x)), y);
  };
  check(Gf61{}, 17, 130);
  check(Gf256{}, 9, 70);
  check(double{}, 13, 90);
}

// Doubles that stress rounding: signed zeros, magnitudes whose products
// overflow or underflow, subnormals, and (in HardDoubleMatrix) ± pairs that
// cancel. About a quarter are ordinary values in [-1, 1).
double HardDouble(ChaCha20Rng& rng) {
  static constexpr double kPool[] = {
      0.0,     -0.0,     1e300,   -1e300,  1e-300, -1e-300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      -std::numeric_limits<double>::min() / 7.0,
      1.0,     -1.0,     0.1,     -3.0,    1e16,   -1e-16};
  constexpr size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
  const uint64_t pick = rng.NextBelow(kPoolSize + kPoolSize / 3);
  return pick < kPoolSize ? kPool[pick] : FieldTraits<double>::Random(rng);
}

// Each row alternates a value and its negation in odd columns, so partial
// sums cancel exactly and land on signed zeros.
Matrix<double> HardDoubleMatrix(size_t rows, size_t cols, ChaCha20Rng& rng) {
  Matrix<double> m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = (c % 2 == 1 && rng.NextBelow(2) == 0) ? -m(r, c - 1)
                                                      : HardDouble(rng);
    }
  }
  return m;
}

// Runs `matvec(m, x, y)` over every shape in the differential grid and
// compares its bytes to the naive loop. y is an odd-offset subspan of a
// larger buffer, as QueryInto writes each device's rows into a slice of the
// stacked response; the guard values around it must stay untouched.
template <typename MatVecFn>
void ExpectBitIdenticalToNaiveLoop(MatVecFn matvec) {
  constexpr double kGuard = -12345.6789;
  ChaCha20Rng rng(2024);
  for (size_t rows : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 205u}) {
    for (size_t cols : {0u, 1u, 3u, 7u, 8u, 9u, 77u, 1024u}) {
      const Matrix<double> m = HardDoubleMatrix(rows, cols, rng);
      std::vector<double> x(cols);
      for (size_t k = 0; k < cols; ++k) {
        // Pair x[k] with x[k-1] so the matrix's ± pairs cancel in the sum.
        x[k] = (k % 2 == 1 && rng.NextBelow(2) == 0) ? x[k - 1]
                                                     : HardDouble(rng);
      }
      const std::vector<double> expected =
          NaiveMatVec(m, std::span<const double>(x));
      std::vector<double> buffer(rows + 4, kGuard);
      const std::span<double> y = std::span<double>(buffer).subspan(1, rows);
      matvec(m, std::span<const double>(x), y);
      for (size_t i = 0; i < rows; ++i) {
        ASSERT_EQ(std::memcmp(&y[i], &expected[i], sizeof(double)), 0)
            << "rows=" << rows << " cols=" << cols << " row=" << i << ": "
            << y[i] << " vs naive " << expected[i];
      }
      EXPECT_EQ(buffer.front(), kGuard);
      for (size_t i = rows + 1; i < buffer.size(); ++i) {
        EXPECT_EQ(buffer[i], kGuard) << "rows=" << rows << " cols=" << cols;
      }
    }
  }
}

TEST(MatVecInto, DoubleBitIdenticalToNaiveLoopOnHardValues) {
  ExpectBitIdenticalToNaiveLoop([](const Matrix<double>& m,
                                   std::span<const double> x,
                                   std::span<double> y) {
    MatVecInto(m, x, y);
  });
}

// Each tier entry point directly, so a tier the dispatch does not pick on
// this host is still checked wherever the host can run it.
class F64MatVecTierTest : public ::testing::TestWithParam<std::string> {};

TEST_P(F64MatVecTierTest, BitIdenticalToNaiveLoop) {
  const kernel_internal::F64MatVecTier* tier = nullptr;
  for (const auto& t : kernel_internal::F64MatVecTiers()) {
    if (GetParam() == t.name) tier = &t;
  }
  if (tier == nullptr || !tier->supported) {
    GTEST_SKIP() << "double mat-vec tier '" << GetParam()
                 << "' is not available on this host";
  }
  ExpectBitIdenticalToNaiveLoop([tier](const Matrix<double>& m,
                                       std::span<const double> x,
                                       std::span<double> y) {
    tier->fn(m.Data().data(), m.rows(), m.cols(), x.data(), y.data());
  });
}

INSTANTIATE_TEST_SUITE_P(Tiers, F64MatVecTierTest,
                         ::testing::Values("avx512", "avx2", "scalar"),
                         [](const auto& info) { return info.param; });

TEST(F64MatVecTier, DispatchPicksWidestSupportedTierAndPublishesIt) {
  const Matrix<double> m{{2.0, 3.0}};
  const std::vector<double> x{5.0, 7.0};
  EXPECT_EQ(MatVec(m, std::span<const double>(x)), std::vector<double>{31.0});

  const auto tiers = kernel_internal::F64MatVecTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_STREQ(tiers.back().name, "scalar");
  EXPECT_TRUE(tiers.back().supported);
  const kernel_internal::F64MatVecTier& selected =
      kernel_internal::SelectedF64MatVecTier();
  for (const auto& tier : tiers) {
    if (tier.supported) {
      EXPECT_EQ(&tier, &selected) << "widest supported tier: " << tier.name;
      break;
    }
  }

  // Exactly one tier gauge, labelled with the selected tier and set to 1.
  size_t gauges = 0;
  for (const auto& series : obs::MetricsRegistry::Global().Snapshot()) {
    if (series.name != "scec_f64_matvec_tier") continue;
    ++gauges;
    ASSERT_NE(series.gauge, nullptr);
    EXPECT_EQ(series.labels,
              (obs::LabelSet{{"tier", std::string(selected.name)}}));
    EXPECT_EQ(series.gauge->value(), 1.0);
  }
  EXPECT_EQ(gauges, 1u);
}

template <typename T>
void ExpectPanelMatchesPerColumnMatVec(size_t rows, size_t l, size_t b,
                                       uint64_t seed,
                                       ThreadPool* pool = nullptr) {
  ChaCha20Rng rng(seed);
  const auto a = RandomMatrix<T>(rows, l, rng);
  const auto x = RandomMatrix<T>(l, b, rng);
  const Matrix<T> y = MatVecBatch(a, x, pool);
  ASSERT_EQ(y.rows(), rows);
  ASSERT_EQ(y.cols(), b);
  for (size_t col = 0; col < b; ++col) {
    std::vector<T> xcol(l);
    for (size_t i = 0; i < l; ++i) xcol[i] = x(i, col);
    const std::vector<T> expected = MatVec(a, std::span<const T>(xcol));
    for (size_t row = 0; row < rows; ++row) {
      ASSERT_EQ(y(row, col), expected[row])
          << "row=" << row << " col=" << col << " b=" << b;
    }
  }
}

TEST(MatVecBatch, Gf61MatchesPerQueryAcrossBatchSizes) {
  for (size_t b : {1u, 3u, 16u, 65u}) {
    ExpectPanelMatchesPerColumnMatVec<Gf61>(21, 97, b, 500 + b);
  }
}

TEST(MatVecBatch, Gf256MatchesPerQueryAcrossBatchSizes) {
  for (size_t b : {1u, 3u, 16u, 65u}) {
    ExpectPanelMatchesPerColumnMatVec<Gf256>(14, 33, b, 600 + b);
  }
}

TEST(MatVecBatch, DoubleMatchesPerQueryAcrossBatchSizes) {
  for (size_t b : {1u, 3u, 16u, 65u}) {
    ExpectPanelMatchesPerColumnMatVec<double>(18, 77, b, 700 + b);
  }
}

TEST(MatVecBatch, DoubleColumnsAreBitIdenticalToMatVec) {
  // Stronger than value equality: the raw bytes must match, which pins the
  // accumulation order of the panel kernel to the scalar path.
  ChaCha20Rng rng(42);
  const size_t rows = 11, l = 53, b = 19;
  const auto a = RandomMatrix<double>(rows, l, rng);
  const auto x = RandomMatrix<double>(l, b, rng);
  const Matrix<double> y = MatVecBatch(a, x);
  for (size_t col = 0; col < b; ++col) {
    std::vector<double> xcol(l);
    for (size_t i = 0; i < l; ++i) xcol[i] = x(i, col);
    const std::vector<double> expected =
        MatVec(a, std::span<const double>(xcol));
    for (size_t row = 0; row < rows; ++row) {
      ASSERT_EQ(std::memcmp(&y(row, col), &expected[row], sizeof(double)), 0)
          << "row=" << row << " col=" << col;
    }
  }
}

TEST(MatVecBatch, Gf61AdversarialAllMaxPanel) {
  // All operands P−1: the delayed-reduction inner loops sit at the overflow
  // edge for the entire product. (P−1)^2 ≡ 1, so every output is l mod P.
  const size_t rows = 5, l = 1000, b = 9;
  const Gf61 max_elem(kMersenne61 - 1);
  Matrix<Gf61> a(rows, l, max_elem);
  Matrix<Gf61> x(l, b, max_elem);
  const Matrix<Gf61> y = MatVecBatch(a, x);
  for (size_t row = 0; row < rows; ++row) {
    for (size_t col = 0; col < b; ++col) {
      ASSERT_EQ(y(row, col), Gf61(l));
    }
  }
}

TEST(MatVecBatch, ExactTypesMatchMatMul) {
  ChaCha20Rng rng(55);
  const auto a61 = RandomMatrix<Gf61>(12, 40, rng);
  const auto x61 = RandomMatrix<Gf61>(40, 7, rng);
  EXPECT_EQ(MatVecBatch(a61, x61), MatMul(a61, x61));
  const auto a256 = RandomMatrix<Gf256>(8, 25, rng);
  const auto x256 = RandomMatrix<Gf256>(25, 20, rng);
  EXPECT_EQ(MatVecBatch(a256, x256), MatMul(a256, x256));
}

TEST(MatMulPanel, ParallelResultsBitIdenticalAcrossThreadCounts) {
  ChaCha20Rng rng(66);
  const auto a = RandomMatrix<Gf61>(37, 64, rng);
  const auto x = RandomMatrix<Gf61>(64, 16, rng);
  const Matrix<Gf61> serial = MatVecBatch(a, x);
  const size_t hw = ThreadPool::DefaultThreads();
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    ThreadPool pool(threads);
    ASSERT_EQ(MatVecBatch(a, x, &pool), serial) << "threads=" << threads;
  }
  // And for doubles, where reassociation would be visible.
  const auto ad = RandomMatrix<double>(23, 50, rng);
  const auto xd = RandomMatrix<double>(50, 33, rng);
  const Matrix<double> serial_d = MatVecBatch(ad, xd);
  for (size_t threads : {size_t{1}, size_t{2}, hw}) {
    ThreadPool pool(threads);
    ASSERT_EQ(MatVecBatch(ad, xd, &pool), serial_d) << "threads=" << threads;
  }
}

TEST(MatMulPanel, WritesIntoPreallocatedOutput) {
  ChaCha20Rng rng(77);
  const auto a = RandomMatrix<Gf61>(6, 30, rng);
  const auto x = RandomMatrix<Gf61>(30, 4, rng);
  Matrix<Gf61> out(6, 4);
  MatMulPanel(a, x, out);
  EXPECT_EQ(out, MatMul(a, x));
}

TEST(MatMulPanel, PanelSpanWritesSliceOfLargerBuffer) {
  // The pipeline writes each device's panel into a slice of the stacked
  // response matrix; emulate that here.
  ChaCha20Rng rng(88);
  const auto a = RandomMatrix<Gf61>(5, 20, rng);
  const auto x = RandomMatrix<Gf61>(20, 3, rng);
  std::vector<Gf61> buffer(10 * 3, Gf61(7));  // 10 rows, slice = rows 2..7
  MatMulPanelSpan(a, x, std::span<Gf61>(buffer).subspan(2 * 3, 5 * 3));
  const Matrix<Gf61> expected = MatMul(a, x);
  for (size_t row = 0; row < 5; ++row) {
    for (size_t col = 0; col < 3; ++col) {
      EXPECT_EQ(buffer[(2 + row) * 3 + col], expected(row, col));
    }
  }
  // Rows outside the slice untouched.
  for (size_t i = 0; i < 2 * 3; ++i) EXPECT_EQ(buffer[i], Gf61(7));
  for (size_t i = 7 * 3; i < 10 * 3; ++i) EXPECT_EQ(buffer[i], Gf61(7));
}

TEST(MatMulPanelDeathTest, DimensionMismatchAborts) {
  const Matrix<Gf61> a(3, 4);
  const Matrix<Gf61> x(5, 2);  // inner dimension mismatch
  EXPECT_DEATH(MatVecBatch(a, x), "");
}

}  // namespace
}  // namespace scec
