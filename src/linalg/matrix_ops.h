// SPDX-License-Identifier: MIT
//
// Products and vector helpers over Matrix<T>. Generic over FieldTraits
// scalars: field elements and doubles share one implementation.

#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "field/accumulator.h"
#include "field/field_traits.h"
#include "linalg/batch_kernels.h"
#include "linalg/matrix.h"

namespace scec {

// y = M * x written into a caller-owned buffer: the allocation-free form the
// steady-state query path uses (QueryInto, scecd, the simulator's device
// actors). Fields use the delayed-reduction accumulator, which is exact.
// Doubles run the runtime-dispatched row-block kernel
// (kernel_internal::MatVecF64 in batch_kernels.h): each SIMD lane carries one
// row through the naive k-ascending loop's multiply-then-add sequence, so
// every tier is bit-identical to that loop.
template <typename T>
void MatVecInto(const Matrix<T>& m, std::span<const T> x, std::span<T> y) {
  SCEC_CHECK_EQ(m.cols(), x.size());
  SCEC_CHECK_EQ(m.rows(), y.size());
  if constexpr (std::is_same_v<T, double>) {
    kernel_internal::MatVecF64(m.Data().data(), m.rows(), m.cols(), x.data(),
                               y.data());
  } else {
    const size_t cols = m.cols();
    for (size_t row = 0; row < m.rows(); ++row) {
      DotAccumulator<T> acc;
      auto mrow = m.Row(row);
      for (size_t col = 0; col < cols; ++col) acc.MulAdd(mrow[col], x[col]);
      y[row] = acc.Value();
    }
  }
}

// y = M * x. Complexity: rows*cols multiplications, rows*(cols-1) additions —
// exactly the per-device computation the paper's cost model (Eq. (1)) counts.
template <typename T>
std::vector<T> MatVec(const Matrix<T>& m, std::span<const T> x) {
  std::vector<T> y(m.rows(), FieldTraits<T>::Zero());
  MatVecInto(m, x, std::span<T>(y));
  return y;
}

// C = A * B, cache-friendly ikj loop order.
template <typename T>
Matrix<T> MatMul(const Matrix<T>& a, const Matrix<T>& b) {
  SCEC_CHECK_EQ(a.cols(), b.rows());
  Matrix<T> c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const T aik = a(i, k);
      if (FieldTraits<T>::IsZero(aik)) continue;
      auto brow = b.Row(k);
      auto crow = c.Row(i);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

template <typename T>
std::vector<T> VecAdd(std::span<const T> a, std::span<const T> b) {
  SCEC_CHECK_EQ(a.size(), b.size());
  std::vector<T> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

template <typename T>
std::vector<T> VecSub(std::span<const T> a, std::span<const T> b) {
  SCEC_CHECK_EQ(a.size(), b.size());
  std::vector<T> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

template <typename T>
std::vector<T> VecScale(std::span<const T> a, T s) {
  std::vector<T> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

// Delayed-reduction dot product (see field/accumulator.h): exact over
// fields, bit-identical to the naive loop over doubles.
template <typename T>
T Dot(std::span<const T> a, std::span<const T> b) {
  SCEC_CHECK_EQ(a.size(), b.size());
  DotAccumulator<T> acc;
  for (size_t i = 0; i < a.size(); ++i) acc.MulAdd(a[i], b[i]);
  return acc.Value();
}

// Maximum absolute difference between two double vectors (test helper).
inline double MaxAbsDiff(std::span<const double> a, std::span<const double> b) {
  SCEC_CHECK_EQ(a.size(), b.size());
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    if (d > worst) worst = d;
  }
  return worst;
}

// Fills a matrix with uniform random field elements.
template <typename T, typename Rng>
Matrix<T> RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix<T> m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = FieldTraits<T>::Random(rng);
  }
  return m;
}

template <typename T, typename Rng>
std::vector<T> RandomVector(size_t n, Rng& rng) {
  std::vector<T> v(n);
  for (auto& e : v) e = FieldTraits<T>::Random(rng);
  return v;
}

}  // namespace scec
