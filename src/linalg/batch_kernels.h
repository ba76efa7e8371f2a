// SPDX-License-Identifier: MIT
//
// Batched multi-query kernels: a matrix–panel product out = A · X where X
// stacks b query vectors as columns (an l×b panel). This is the compute
// shape of QueryBatch — every coded share multiplies the same panel — and
// of the rateless/adaptive coded mat-vec literature's batching trick.
//
// Why it is faster than b naive MatVec calls:
//   * each element of A is loaded once per strip of kStrip columns instead
//     of once per query — A (the large operand) is streamed b/kStrip times
//     instead of b times;
//   * the kStrip accumulators per row are independent, so the multiply/add
//     chains overlap in the pipeline instead of serialising on one
//     accumulator;
//   * for GF(2^61−1) the Mersenne reduction is delayed: raw 128-bit products
//     accumulate and are folded once per kGf61FoldInterval terms (see
//     field/accumulator.h for the overflow proof), and the AVX-512 tiers
//     reuse each X load across a tile of rows (batch_kernels.cpp).
//
// double panels are the exception: they run the device mat-vec
// (MatVecF64) once per column, whose row-per-lane tiers beat a column strip.
//
// Determinism: each output element (i, j) is accumulated over k ascending
// with a single accumulator — the exact operation order of the scalar
// MatVec path — so results are bit-identical to per-query MatVec for every
// scalar type (including double) and for every thread count.

#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "field/accumulator.h"
#include "field/field_traits.h"
#include "linalg/matrix.h"

namespace scec {
namespace kernel_internal {

// Columns per register strip. Generic: 16 accumulators, a few vector
// registers' worth for small scalar types. Gf61 scalar tier: 4 unsigned
// __int128 accumulators (8 GPRs) leave room for the operands and pointers.
inline constexpr size_t kGenericStrip = 16;
inline constexpr size_t kGf61Strip = 4;
// Rows per register tile of the AVX-512 Gf61 tiers (batch_kernels.cpp). A
// row range that is not a whole number of tiles ends in a shorter tile,
// which cannot hide the multiply chains' latency.
inline constexpr size_t kTileRows = 4;

// out rows [row_begin, row_end) of out = a·x, generic scalar.
template <typename T>
void PanelRowsGeneric(const Matrix<T>& a, const Matrix<T>& x, std::span<T> out,
                      size_t row_begin, size_t row_end) {
  const size_t l = a.cols();
  const size_t b = x.cols();
  const T* adata = a.Data().data();
  const T* xdata = x.Data().data();
  T* odata = out.data();
  for (size_t j0 = 0; j0 < b; j0 += kGenericStrip) {
    const size_t jw = std::min(kGenericStrip, b - j0);
    for (size_t i = row_begin; i < row_end; ++i) {
      T acc[kGenericStrip];
      for (size_t jj = 0; jj < jw; ++jj) acc[jj] = FieldTraits<T>::Zero();
      const T* arow = adata + i * l;
      if (jw == kGenericStrip) {
        // Full strip: compile-time trip count so the loop vectorizes.
        for (size_t k = 0; k < l; ++k) {
          const T aik = arow[k];
          const T* xrow = xdata + k * b + j0;
          for (size_t jj = 0; jj < kGenericStrip; ++jj) {
            acc[jj] += aik * xrow[jj];
          }
        }
      } else {
        for (size_t k = 0; k < l; ++k) {
          const T aik = arow[k];
          const T* xrow = xdata + k * b + j0;
          for (size_t jj = 0; jj < jw; ++jj) acc[jj] += aik * xrow[jj];
        }
      }
      T* orow = odata + i * b + j0;
      for (size_t jj = 0; jj < jw; ++jj) orow[jj] = acc[jj];
    }
  }
}

// GF(2^61−1) panel rows (batch_kernels.cpp). Every tier returns the exact
// canonical value of the per-MAC path:
//
//   * "avx512-ifma": vpmadd52 with 52-bit limbs;
//   * "avx512-mul32": vpmuludq with 31-bit limbs;
//   * "scalar": 128-bit accumulators folded every kGf61FoldInterval terms
//     (overflow proof in field/accumulator.h), kGf61Strip columns at a time.
//
// The two AVX-512 tiers are register-blocked: each X load serves a tile of
// 4 rows × 16 columns, and b % 8 columns finish in the scalar strip.
using PanelRowsGf61Fn = void (*)(const Matrix<GfElem<kMersenne61>>& a,
                                 const Matrix<GfElem<kMersenne61>>& x,
                                 std::span<GfElem<kMersenne61>> out,
                                 size_t row_begin, size_t row_end);
struct Gf61PanelTier {
  const char* name;  // "avx512-ifma" | "avx512-mul32" | "scalar"
  PanelRowsGf61Fn fn;
  bool supported;  // this host can run it
};

// Every tier compiled into this build; "scalar" is last and always
// supported. Unlike the double mat-vec, the dispatch does not take the
// first supported tier: when both AVX-512 tiers run, a one-time timing
// calibration picks one (Gf61KernelTier() below).
std::span<const Gf61PanelTier> Gf61PanelTiers();

// Runs the dispatched tier: an AVX-512 tier for b >= 8 where the host has
// one, else the scalar strip.
void PanelRowsGf61(const Matrix<GfElem<kMersenne61>>& a,
                   const Matrix<GfElem<kMersenne61>>& x,
                   std::span<GfElem<kMersenne61>> out,
                   size_t row_begin, size_t row_end);

// double panel rows: MatVecF64 (below) on each column of x in turn, so every
// output is the naive k-ascending loop, bit for bit.
void PanelRowsF64(const Matrix<double>& a, const Matrix<double>& x,
                  std::span<double> out, size_t row_begin, size_t row_end);

template <typename T>
void PanelRows(const Matrix<T>& a, const Matrix<T>& x, std::span<T> out,
               size_t row_begin, size_t row_end) {
  if constexpr (std::is_same_v<T, GfElem<kMersenne61>>) {
    PanelRowsGf61(a, x, out, row_begin, row_end);
  } else if constexpr (std::is_same_v<T, double>) {
    PanelRowsF64(a, x, out, row_begin, row_end);
  } else {
    PanelRowsGeneric(a, x, out, row_begin, row_end);
  }
}

// Double mat-vec y = A·x over a row-major rows×cols A: the body of
// MatVecInto<double>, i.e. the device compute of every double query
// (scecd, SimTransport, the simulator's actors, QueryInto). Every tier
// returns, for every row, the bits of the naive loop
//
//   acc = 0.0;  for k ascending: acc = acc + (a[i][k] * x[k])
//
// with the product rounded before the add, so the tier never changes a
// result. The vector tiers run that loop in one lane per row:
//
//   * "avx512": blocks of 8 rows. Each 8×8 tile is loaded one row per
//     register and transposed in registers, so register k holds column k
//     of the 8 rows; then one vmulpd by broadcast x[k] and one vaddpd into
//     the accumulator per k, k ascending — each lane performs exactly its
//     row's naive operation sequence;
//   * "avx2": the same with 4-row blocks and 4×4 tiles;
//   * "scalar": the naive loop.
//
// Columns past the last full tile are finished per lane in scalar k order,
// rows past the last full block by the scalar loop. The whole body lives
// in batch_kernels.cpp, so a caller's compile flags never reach it, and the
// library builds with -ffp-contract=off (src/CMakeLists.txt): a fused
// multiply-add rounds once where the naive loop rounds twice.
using MatVecF64Fn = void (*)(const double* a, size_t rows, size_t cols,
                             const double* x, double* y);
struct F64MatVecTier {
  const char* name;  // "avx512" | "avx2" | "scalar"
  MatVecF64Fn fn;
  bool supported;  // this host can run it
};

// Every tier compiled into this build, widest first; "scalar" is last and
// always supported.
std::span<const F64MatVecTier> F64MatVecTiers();

// The widest supported tier. The first call publishes it to the global
// metrics registry (scec_f64_matvec_tier{tier}) and logs one kInfo line, so
// benchmark telemetry records which kernel produced its numbers.
const F64MatVecTier& SelectedF64MatVecTier();

// Runs the selected tier.
void MatVecF64(const double* a, size_t rows, size_t cols, const double* x,
               double* y);

}  // namespace kernel_internal

// out = a·x written into a caller-owned row-major buffer of
// a.rows()·x.cols() values (e.g. a slice of a larger stacked matrix).
// With a pool, rows are computed in parallel; each row writes only its own
// slice, so results are bit-identical for every pool size.
template <typename T>
void MatMulPanelSpan(const Matrix<T>& a, const Matrix<T>& x, std::span<T> out,
                     ThreadPool* pool = nullptr) {
  SCEC_CHECK_EQ(a.cols(), x.rows());
  SCEC_CHECK_EQ(out.size(), a.rows() * x.cols());
  if (pool != nullptr && pool->num_threads() > 1 && a.rows() > 1) {
    // Rows fan out in contiguous chunks (disjoint output slices, so the
    // result is bit-identical for every pool size), about four per thread
    // and each a whole number of kTileRows-row tiles.
    const size_t rows_per_chunk =
        std::max<size_t>(1, a.rows() / (4 * pool->num_threads()));
    const size_t chunk = (rows_per_chunk + kernel_internal::kTileRows - 1) /
                         kernel_internal::kTileRows *
                         kernel_internal::kTileRows;
    const size_t num_chunks = (a.rows() + chunk - 1) / chunk;
    pool->ParallelFor(
        0, num_chunks,
        [&](size_t c) {
          const size_t begin = c * chunk;
          const size_t end = std::min(a.rows(), begin + chunk);
          kernel_internal::PanelRows(a, x, out, begin, end);
        },
        /*grain=*/1);
  } else {
    kernel_internal::PanelRows(a, x, out, 0, a.rows());
  }
}

// out = a·x into a preallocated matrix (out must be a.rows() × x.cols()).
template <typename T>
void MatMulPanel(const Matrix<T>& a, const Matrix<T>& x, Matrix<T>& out,
                 ThreadPool* pool = nullptr) {
  SCEC_CHECK_EQ(out.rows(), a.rows());
  SCEC_CHECK_EQ(out.cols(), x.cols());
  MatMulPanelSpan(a, x, out.Data(), pool);
}

// Batched mat-vec: Y = A·X for a panel X of stacked query columns.
template <typename T>
Matrix<T> MatVecBatch(const Matrix<T>& a, const Matrix<T>& x,
                      ThreadPool* pool = nullptr) {
  Matrix<T> out(a.rows(), x.cols());
  MatMulPanelSpan(a, x, out.Data(), pool);
  return out;
}

// Which GF(2^61−1) panel tier the runtime dispatch selected, and — when the
// host offered both vector tiers — the one-time timing calibration that
// picked it. The first call (or the first Gf61 panel product) publishes the
// outcome to the global metrics registry (scec_gf61_kernel_tier,
// scec_gf61_calibration_best_ns) and logs one kInfo line, so benchmark
// telemetry records which kernel produced its numbers.
struct Gf61KernelReport {
  const char* tier = "scalar";  // "scalar" | "avx512-mul32" | "avx512-ifma"
  bool calibrated = false;      // both vector tiers were timed on this host
  double mul32_best_ns = 0.0;   // best-of-5 panel timing per tier
  double ifma_best_ns = 0.0;
};
const Gf61KernelReport& Gf61KernelTier();

}  // namespace scec
