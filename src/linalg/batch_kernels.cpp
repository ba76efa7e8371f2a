// SPDX-License-Identifier: MIT
//
// Runtime-dispatched kernels. The double mat-vec tiers sit at the end of
// this file (contract and bit-identity argument in batch_kernels.h); the
// rest are the GF(2^61−1) matrix–panel kernels. Three implementations
// behind one runtime dispatch, all producing the exact canonical value of
// the per-MAC scalar path (modular arithmetic is exact, so accumulation
// order cannot change the result):
//
//   * scalar: unsigned __int128 accumulators with delayed Mersenne
//     reduction (folded every kGf61FoldInterval terms; overflow proof in
//     field/accumulator.h);
//   * AVX-512 (x86-64, runtime-detected): 8 columns per ZMM register, X
//     pre-split into 31-bit limb planes and A limb-split per row into a
//     small scratch, so vpmuludq (32×32→64) provides every partial product
//     directly;
//   * AVX-512 IFMA (runtime-detected, preferred): vpmadd52lo/hi with
//     52-bit limbs — each MAC step is 7 fused multiply-accumulates and the
//     accumulators gain at most 2^52 per term, so reductions are needed
//     only every kIfmaFoldInterval terms (effectively never for typical
//     row lengths).
//
// AVX-512 arithmetic. Write a = a0 + 2^31·a1 and x = x0 + 2^31·x1 with
// a0, x0 < 2^31 and a1, x1 < 2^30 (a, x < 2^61). Then
//
//   a·x = a0·x0 + 2^31·(a0·x1 + a1·x0) + 2^62·(a1·x1)
//
// and three uint64 lane accumulators collect the partials over k:
//
//   acc0 += a0·x0             term < 2^62
//   accM += a0·x1 + a1·x0     term < 2^62
//   acc2 += a1·x1             term < 2^60
//
// The row result is recovered per lane, once per row, in 128-bit scalar
// arithmetic as  acc0 + 2^31·accM + 2^62·acc2  (mod P) — multiplying a
// congruence by a constant preserves it, so folding each accumulator mod P
// along the way is sound. Overflow bounds (the fold (v & M61) + (v >> 61)
// preserves values mod P = 2^61 − 1 and maps any uint64 to < 2^61 + 8):
//
//   acc0, accM: folded every 3 terms:  2^61+8 + 3·2^62 < 2^64   ✓
//   acc2:       folded every 12 terms: 2^61+8 + 12·2^60 < 2^63  ✓
//
// and the final 128-bit combine is < 2^64 + 2^95 + 2^126 < 2^128.
//
// IFMA arithmetic. Write a = a0 + 2^52·a1 and x = x0 + 2^52·x1 with
// a0, x0 < 2^52 and a1, x1 < 2^9 (a, x < 2^61). vpmadd52luq/vpmadd52huq
// accumulate the low/high 52 bits of the 104-bit product of two 52-bit
// operands, giving
//
//   a·x = a0·x0 + 2^52·(a0·x1 + a1·x0) + 2^104·(a1·x1)
//
// collected in seven uint64 lane accumulators (one vpmadd52 each, so every
// accumulator is touched once per term and the 4-cycle FMA latency is
// hidden by independent chains):
//
//   lo   += low52(a0·x0)                    term < 2^52
//   hi   += high52(a0·x0)                   term < 2^52
//   m1lo += low52(a0·x1)   m1hi += high52   terms < 2^52 / < 2^9
//   m2lo += low52(a1·x0)   m2hi += high52   terms < 2^52 / < 2^9
//   t    += a1·x1 (exact: < 2^18 < 2^52)    term < 2^18
//
// The per-lane row result uses the weight reductions 2^61 ≡ 1, so
// 2^104 ≡ 2^43 (mod P):
//
//   total = lo + 2^52·(hi + m1lo + m2lo) + 2^43·(m1hi + m2hi + t)
//
// computed in 128-bit arithmetic: with in-loop folds every
// kIfmaFoldInterval = 2048 terms the three sums are < 2^66, so
// total < 2^64 + 2^118 + 2^109 < 2^128 and FoldMersenne61 applies. The
// big accumulators (lo, hi, m1lo, m2lo) gain < 2^52 per term and a fold
// leaves < 2^61 + 8, so the interval bound is
// 2^61 + 8 + 2048·2^52 < 2^64 ✓; the 2^104-weight accumulators gain
// < 2^18 + 2^10 per term and never overflow for any realistic l.

#include "linalg/batch_kernels.h"

#include <chrono>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define SCEC_X86_KERNELS 1
#else
#define SCEC_X86_KERNELS 0
#endif

namespace scec::kernel_internal {
namespace {

using Elem = GfElem<kMersenne61>;

// Scalar strip kernel over a column range [col_begin, col_end).
void PanelRowsGf61Scalar(const Elem* adata, const Elem* xdata, Elem* odata,
                         size_t l, size_t b, size_t row_begin, size_t row_end,
                         size_t col_begin, size_t col_end) {
  for (size_t j0 = col_begin; j0 < col_end; j0 += kGf61Strip) {
    const size_t jw = std::min(kGf61Strip, col_end - j0);
    for (size_t i = row_begin; i < row_end; ++i) {
      unsigned __int128 acc[kGf61Strip] = {};
      const Elem* arow = adata + i * l;
      size_t k = 0;
      while (k < l) {
        const size_t kend = std::min(l, k + internal::kGf61FoldInterval);
        if (jw == kGf61Strip) {
          for (; k < kend; ++k) {
            const uint64_t aik = arow[k].value();
            const Elem* xrow = xdata + k * b + j0;
            for (size_t jj = 0; jj < kGf61Strip; ++jj) {
              acc[jj] +=
                  static_cast<unsigned __int128>(aik) * xrow[jj].value();
            }
          }
        } else {
          for (; k < kend; ++k) {
            const uint64_t aik = arow[k].value();
            const Elem* xrow = xdata + k * b + j0;
            for (size_t jj = 0; jj < jw; ++jj) {
              acc[jj] +=
                  static_cast<unsigned __int128>(aik) * xrow[jj].value();
            }
          }
        }
        for (size_t jj = 0; jj < jw; ++jj) internal::FoldMersenne61(acc[jj]);
      }
      Elem* orow = odata + i * b + j0;
      for (size_t jj = 0; jj < jw; ++jj) {
        // After the folds acc < 2^62 fits uint64_t; the constructor
        // canonicalises into [0, P).
        orow[jj] = Elem(static_cast<uint64_t>(acc[jj]));
      }
    }
  }
}

#if SCEC_X86_KERNELS

// GCC 12's avx512fintrin.h trips -Wmaybe-uninitialized on the _mm512_undefined
// helpers inlined into these kernels; the warning is spurious.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

inline constexpr uint64_t kLimbMask = (uint64_t{1} << 31) - 1;

// Partial-product accumulators for one 8-column group (see file comment).
struct Gf61Acc {
  __m512i p0, pm, p2;
};

__attribute__((target("avx512f,avx512dq,avx512vl"), always_inline)) inline
Gf61Acc Gf61AccZero() {
  return {_mm512_setzero_si512(), _mm512_setzero_si512(),
          _mm512_setzero_si512()};
}

// One MAC step against 8 pre-split x lanes. a0v/a1v hold the broadcast
// 31-bit limbs of the a-element; all operands are < 2^32 so vpmuludq (which
// reads the low 32 bits of each lane) gives exact products.
__attribute__((target("avx512f,avx512dq,avx512vl"), always_inline)) inline
void Gf61MacStep(Gf61Acc& acc, __m512i a0v, __m512i a1v, const uint64_t* x0p,
                 const uint64_t* x1p) {
  const __m512i x0 = _mm512_loadu_si512(static_cast<const void*>(x0p));
  const __m512i x1 = _mm512_loadu_si512(static_cast<const void*>(x1p));
  acc.p0 = _mm512_add_epi64(acc.p0, _mm512_mul_epu32(a0v, x0));
  acc.pm = _mm512_add_epi64(acc.pm,
                            _mm512_add_epi64(_mm512_mul_epu32(a0v, x1),
                                             _mm512_mul_epu32(a1v, x0)));
  acc.p2 = _mm512_add_epi64(acc.p2, _mm512_mul_epu32(a1v, x1));
}

__attribute__((target("avx512f,avx512dq,avx512vl"), always_inline)) inline
__m512i Gf61Fold(__m512i v) {
  const __m512i mask61 = _mm512_set1_epi64(kMersenne61);
  return _mm512_add_epi64(_mm512_and_si512(v, mask61),
                          _mm512_srli_epi64(v, 61));
}

// Store one group's accumulators: apply the limb weights and reduce per
// lane in 128-bit scalar arithmetic (once per row, negligible next to the
// k loop).
__attribute__((target("avx512f,avx512dq,avx512vl")))
void Gf61AccStore(const Gf61Acc& acc, Elem* orow) {
  alignas(64) uint64_t l0[8], lm[8], l2[8];
  _mm512_store_si512(l0, acc.p0);
  _mm512_store_si512(lm, acc.pm);
  _mm512_store_si512(l2, acc.p2);
  for (size_t jj = 0; jj < 8; ++jj) {
    unsigned __int128 total = static_cast<unsigned __int128>(l0[jj]) +
                              (static_cast<unsigned __int128>(lm[jj]) << 31) +
                              (static_cast<unsigned __int128>(l2[jj]) << 62);
    internal::FoldMersenne61(total);  // < 2^62: fits uint64_t
    orow[jj] = Elem(static_cast<uint64_t>(total));
  }
}

// Vectorized panel kernel. x0/x1 are the 31-bit limb planes of X (row
// stride b); r0/r1 are caller-provided scratch of l uint64 each, refilled
// with the current A row's limbs (the split loop auto-vectorizes and is
// amortised over all of the row's column blocks, so the hot loop's
// broadcasts are plain memory-sourced vpbroadcastq with no scalar ALU
// work). Assumes col_end - col_begin is a multiple of 8 (the caller peels
// the scalar tail).
__attribute__((target("avx512f,avx512dq,avx512vl")))
void PanelRowsGf61Avx512(const Elem* adata, const uint64_t* x0,
                         const uint64_t* x1, uint64_t* r0, uint64_t* r1,
                         Elem* odata, size_t l, size_t b, size_t row_begin,
                         size_t row_end, size_t col_begin, size_t col_end) {
  // Fold cadences proven in the file comment.
  constexpr size_t kInner = 3;
  constexpr size_t kOuter = 12;
  for (size_t i = row_begin; i < row_end; ++i) {
    const Elem* arow = adata + i * l;
    for (size_t k = 0; k < l; ++k) {
      const uint64_t v = arow[k].value();
      r0[k] = v & kLimbMask;
      r1[k] = v >> 31;
    }
    Elem* orow = odata + i * b;
    size_t j0 = col_begin;
    // 16-column blocks: two groups share each broadcast a-limb pair.
    for (; j0 + 16 <= col_end; j0 += 16) {
      Gf61Acc g0 = Gf61AccZero();
      Gf61Acc g1 = Gf61AccZero();
      size_t k = 0;
      // Hand-staged constant-trip inner blocks so the compiler fully
      // unrolls the MAC steps between folds.
      while (k + kOuter <= l) {
        for (size_t rep = 0; rep < kOuter / kInner; ++rep) {
          for (size_t s = 0; s < kInner; ++s, ++k) {
            const __m512i a0v = _mm512_set1_epi64(
                static_cast<long long>(r0[k]));
            const __m512i a1v = _mm512_set1_epi64(
                static_cast<long long>(r1[k]));
            const uint64_t* xr0 = x0 + k * b + j0;
            const uint64_t* xr1 = x1 + k * b + j0;
            Gf61MacStep(g0, a0v, a1v, xr0, xr1);
            Gf61MacStep(g1, a0v, a1v, xr0 + 8, xr1 + 8);
          }
          g0.p0 = Gf61Fold(g0.p0);
          g0.pm = Gf61Fold(g0.pm);
          g1.p0 = Gf61Fold(g1.p0);
          g1.pm = Gf61Fold(g1.pm);
        }
        g0.p2 = Gf61Fold(g0.p2);
        g1.p2 = Gf61Fold(g1.p2);
      }
      while (k < l) {
        const size_t kin = std::min(l, k + kInner);
        for (; k < kin; ++k) {
          const __m512i a0v = _mm512_set1_epi64(
              static_cast<long long>(r0[k]));
          const __m512i a1v = _mm512_set1_epi64(
              static_cast<long long>(r1[k]));
          const uint64_t* xr0 = x0 + k * b + j0;
          const uint64_t* xr1 = x1 + k * b + j0;
          Gf61MacStep(g0, a0v, a1v, xr0, xr1);
          Gf61MacStep(g1, a0v, a1v, xr0 + 8, xr1 + 8);
        }
        g0.p0 = Gf61Fold(g0.p0);
        g0.pm = Gf61Fold(g0.pm);
        g1.p0 = Gf61Fold(g1.p0);
        g1.pm = Gf61Fold(g1.pm);
      }
      g0.p2 = Gf61Fold(g0.p2);
      g1.p2 = Gf61Fold(g1.p2);
      Gf61AccStore(g0, orow + j0);
      Gf61AccStore(g1, orow + j0 + 8);
    }
    for (; j0 + 8 <= col_end; j0 += 8) {
      Gf61Acc g = Gf61AccZero();
      size_t k = 0;
      while (k + kOuter <= l) {
        for (size_t rep = 0; rep < kOuter / kInner; ++rep) {
          for (size_t s = 0; s < kInner; ++s, ++k) {
            const __m512i a0v = _mm512_set1_epi64(
                static_cast<long long>(r0[k]));
            const __m512i a1v = _mm512_set1_epi64(
                static_cast<long long>(r1[k]));
            Gf61MacStep(g, a0v, a1v, x0 + k * b + j0, x1 + k * b + j0);
          }
          g.p0 = Gf61Fold(g.p0);
          g.pm = Gf61Fold(g.pm);
        }
        g.p2 = Gf61Fold(g.p2);
      }
      while (k < l) {
        const size_t kin = std::min(l, k + kInner);
        for (; k < kin; ++k) {
          const __m512i a0v = _mm512_set1_epi64(
              static_cast<long long>(r0[k]));
          const __m512i a1v = _mm512_set1_epi64(
              static_cast<long long>(r1[k]));
          Gf61MacStep(g, a0v, a1v, x0 + k * b + j0, x1 + k * b + j0);
        }
        g.p0 = Gf61Fold(g.p0);
        g.pm = Gf61Fold(g.pm);
      }
      g.p2 = Gf61Fold(g.p2);
      Gf61AccStore(g, orow + j0);
    }
  }
}

// ---------------------------------------------------------------------------
// IFMA tier (vpmadd52): 52-bit limbs, derivation in the file comment.

inline constexpr uint64_t kLimb52Mask = (uint64_t{1} << 52) - 1;
inline constexpr size_t kIfmaFoldInterval = 2048;

// Seven independent accumulators, one vpmadd52 each per term, so the FMA
// latency is hidden (each chain is touched once per k).
struct Gf61IfmaAcc {
  __m512i lo, hi, m1lo, m1hi, m2lo, m2hi, t;
};

__attribute__((target("avx512f,avx512dq,avx512vl,avx512ifma"),
               always_inline)) inline
Gf61IfmaAcc Gf61IfmaZero() {
  const __m512i z = _mm512_setzero_si512();
  return {z, z, z, z, z, z, z};
}

__attribute__((target("avx512f,avx512dq,avx512vl,avx512ifma"),
               always_inline)) inline
void Gf61IfmaStep(Gf61IfmaAcc& acc, __m512i a0v, __m512i a1v,
                  const uint64_t* x0p, const uint64_t* x1p) {
  const __m512i x0 = _mm512_loadu_si512(static_cast<const void*>(x0p));
  const __m512i x1 = _mm512_loadu_si512(static_cast<const void*>(x1p));
  acc.lo = _mm512_madd52lo_epu64(acc.lo, a0v, x0);
  acc.hi = _mm512_madd52hi_epu64(acc.hi, a0v, x0);
  acc.m1lo = _mm512_madd52lo_epu64(acc.m1lo, a0v, x1);
  acc.m1hi = _mm512_madd52hi_epu64(acc.m1hi, a0v, x1);
  acc.m2lo = _mm512_madd52lo_epu64(acc.m2lo, a1v, x0);
  acc.m2hi = _mm512_madd52hi_epu64(acc.m2hi, a1v, x0);
  // a1·x1 < 2^18 is exact in the low-52 half.
  acc.t = _mm512_madd52lo_epu64(acc.t, a1v, x1);
}

// Folds the four accumulators that gain < 2^52 per term (the 2^104-weight
// ones gain < 2^18 + 2^10 per term and cannot overflow for realistic l).
__attribute__((target("avx512f,avx512dq,avx512vl,avx512ifma"),
               always_inline)) inline
void Gf61IfmaFold(Gf61IfmaAcc& acc) {
  acc.lo = Gf61Fold(acc.lo);
  acc.hi = Gf61Fold(acc.hi);
  acc.m1lo = Gf61Fold(acc.m1lo);
  acc.m2lo = Gf61Fold(acc.m2lo);
}

// Applies the limb weights (2^52 and 2^104 ≡ 2^43 mod P) and reduces per
// lane in 128-bit scalar arithmetic, once per row.
__attribute__((target("avx512f,avx512dq,avx512vl,avx512ifma")))
void Gf61IfmaStore(const Gf61IfmaAcc& acc, Elem* orow) {
  alignas(64) uint64_t llo[8], lhi[8], lm1lo[8], lm1hi[8], lm2lo[8],
      lm2hi[8], lt[8];
  _mm512_store_si512(llo, acc.lo);
  _mm512_store_si512(lhi, acc.hi);
  _mm512_store_si512(lm1lo, acc.m1lo);
  _mm512_store_si512(lm1hi, acc.m1hi);
  _mm512_store_si512(lm2lo, acc.m2lo);
  _mm512_store_si512(lm2hi, acc.m2hi);
  _mm512_store_si512(lt, acc.t);
  for (size_t jj = 0; jj < 8; ++jj) {
    const unsigned __int128 s52 = static_cast<unsigned __int128>(lhi[jj]) +
                                  lm1lo[jj] + lm2lo[jj];
    const unsigned __int128 s104 = static_cast<unsigned __int128>(lm1hi[jj]) +
                                   lm2hi[jj] + lt[jj];
    unsigned __int128 total = llo[jj] + (s52 << 52) + (s104 << 43);
    internal::FoldMersenne61(total);  // < 2^62: fits uint64_t
    orow[jj] = Elem(static_cast<uint64_t>(total));
  }
}

// IFMA panel kernel; same structure and preconditions as
// PanelRowsGf61Avx512 but with 52-bit limb planes/scratch.
__attribute__((target("avx512f,avx512dq,avx512vl,avx512ifma")))
void PanelRowsGf61Ifma(const Elem* adata, const uint64_t* x0,
                       const uint64_t* x1, uint64_t* r0, uint64_t* r1,
                       Elem* odata, size_t l, size_t b, size_t row_begin,
                       size_t row_end, size_t col_begin, size_t col_end) {
  for (size_t i = row_begin; i < row_end; ++i) {
    const Elem* arow = adata + i * l;
    for (size_t k = 0; k < l; ++k) {
      const uint64_t v = arow[k].value();
      r0[k] = v & kLimb52Mask;
      r1[k] = v >> 52;
    }
    Elem* orow = odata + i * b;
    size_t j0 = col_begin;
    for (; j0 + 16 <= col_end; j0 += 16) {
      Gf61IfmaAcc g0 = Gf61IfmaZero();
      Gf61IfmaAcc g1 = Gf61IfmaZero();
      size_t k = 0;
      while (k < l) {
        const size_t kend = std::min(l, k + kIfmaFoldInterval);
        for (; k < kend; ++k) {
          const __m512i a0v = _mm512_set1_epi64(
              static_cast<long long>(r0[k]));
          const __m512i a1v = _mm512_set1_epi64(
              static_cast<long long>(r1[k]));
          const uint64_t* xr0 = x0 + k * b + j0;
          const uint64_t* xr1 = x1 + k * b + j0;
          Gf61IfmaStep(g0, a0v, a1v, xr0, xr1);
          Gf61IfmaStep(g1, a0v, a1v, xr0 + 8, xr1 + 8);
        }
        if (k < l) {
          Gf61IfmaFold(g0);
          Gf61IfmaFold(g1);
        }
      }
      Gf61IfmaStore(g0, orow + j0);
      Gf61IfmaStore(g1, orow + j0 + 8);
    }
    for (; j0 + 8 <= col_end; j0 += 8) {
      Gf61IfmaAcc g = Gf61IfmaZero();
      size_t k = 0;
      while (k < l) {
        const size_t kend = std::min(l, k + kIfmaFoldInterval);
        for (; k < kend; ++k) {
          const __m512i a0v = _mm512_set1_epi64(
              static_cast<long long>(r0[k]));
          const __m512i a1v = _mm512_set1_epi64(
              static_cast<long long>(r1[k]));
          Gf61IfmaStep(g, a0v, a1v, x0 + k * b + j0, x1 + k * b + j0);
        }
        if (k < l) Gf61IfmaFold(g);
      }
      Gf61IfmaStore(g, orow + j0);
    }
  }
}

#pragma GCC diagnostic pop

// Splits `count` canonical Gf61 values into limb planes at `shift` bits.
void SplitLimbs(const Elem* src, size_t count, uint64_t* lo, uint64_t* hi,
                unsigned shift) {
  const uint64_t mask = (uint64_t{1} << shift) - 1;
  for (size_t idx = 0; idx < count; ++idx) {
    const uint64_t v = src[idx].value();
    lo[idx] = v & mask;
    hi[idx] = v >> shift;
  }
}

bool Gf61Avx512Available() {
  static const bool available = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512dq") &&
                                __builtin_cpu_supports("avx512vl");
  return available;
}

bool Gf61IfmaAvailable() {
  static const bool available =
      Gf61Avx512Available() && __builtin_cpu_supports("avx512ifma");
  return available;
}

// Which vector tier is faster depends on the CPU's FMA-port layout:
// vpmadd52 issues only to the FMA units, so on single-FMA-unit parts the
// 7-madd IFMA step serialises on one port while the vpmuludq kernel's
// mul/add mix spreads across both vector ALU ports; on dual-FMA parts
// IFMA is far ahead (7 fused ops vs 8 ops + folds). Port counts are not
// CPUID-enumerable, so measure once: time both kernels on a small fixed
// problem (best of kReps to shed scheduler noise) and cache the winner.
// Both kernels return identical canonical values, so the choice never
// affects results.
struct CalibrationTimes {
  double mul32_ns = 0.0;
  double ifma_ns = 0.0;
};

CalibrationTimes MeasureGf61Calibration() {
  constexpr size_t kRows = 32, kL = 256, kB = 16, kReps = 5;
  std::vector<Elem> a(kRows * kL), out(kRows * kB);
  std::vector<uint64_t> scratch(2 * kL);
  std::vector<uint64_t> x31lo(kL * kB), x31hi(kL * kB);
  std::vector<uint64_t> x52lo(kL * kB), x52hi(kL * kB);
  for (size_t idx = 0; idx < a.size(); ++idx) {
    a[idx] = Elem(idx * 0x9E3779B97F4A7C15ull);
  }
  for (size_t idx = 0; idx < kL * kB; ++idx) {
    const uint64_t v = Elem(idx * 0xBF58476D1CE4E5B9ull).value();
    x31lo[idx] = v & kLimbMask;
    x31hi[idx] = v >> 31;
    x52lo[idx] = v & kLimb52Mask;
    x52hi[idx] = v >> 52;
  }
  auto time_best = [&](auto&& kernel) {
    auto best = std::chrono::steady_clock::duration::max();
    for (size_t rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      kernel();
      best = std::min(best, std::chrono::steady_clock::now() - start);
    }
    return best;
  };
  const auto mul32 = time_best([&] {
    PanelRowsGf61Avx512(a.data(), x31lo.data(), x31hi.data(), scratch.data(),
                        scratch.data() + kL, out.data(), kL, kB, 0, kRows, 0,
                        kB);
  });
  const auto ifma = time_best([&] {
    PanelRowsGf61Ifma(a.data(), x52lo.data(), x52hi.data(), scratch.data(),
                      scratch.data() + kL, out.data(), kL, kB, 0, kRows, 0,
                      kB);
  });
  CalibrationTimes times;
  times.mul32_ns =
      std::chrono::duration<double, std::nano>(mul32).count();
  times.ifma_ns = std::chrono::duration<double, std::nano>(ifma).count();
  return times;
}

const CalibrationTimes& Gf61CalibrationTimes() {
  static const CalibrationTimes times = MeasureGf61Calibration();
  return times;
}

bool Gf61UseIfma() {
  static const bool use_ifma =
      Gf61IfmaAvailable() &&
      Gf61CalibrationTimes().ifma_ns < Gf61CalibrationTimes().mul32_ns;
  return use_ifma;
}

#endif  // SCEC_X86_KERNELS

// ---------------------------------------------------------------------------
// Double mat-vec tiers (contract in batch_kernels.h).

// The naive loop over the `n` consecutive rows of `a` (row stride `cols`)
// from column k_begin on: row r starts from init[r], or from 0.0 when init
// is null, adds a[r][k] * x[k] for k ascending and is stored to y[r]. The
// scalar tier is this loop from column 0; the vector tiers finish their
// blocks' tail columns and their rows past the last full block with it.
void MatVecF64NaiveRows(const double* a, size_t n, size_t cols,
                        const double* x, const double* init, size_t k_begin,
                        double* y) {
  for (size_t r = 0; r < n; ++r) {
    const double* arow = a + r * cols;
    double acc = init == nullptr ? 0.0 : init[r];
    for (size_t k = k_begin; k < cols; ++k) acc += arow[k] * x[k];
    y[r] = acc;
  }
}

void MatVecF64Scalar(const double* a, size_t rows, size_t cols,
                     const double* x, double* y) {
  MatVecF64NaiveRows(a, rows, cols, x, nullptr, 0, y);
}

#if SCEC_X86_KERNELS

// Same spurious GCC 12 intrinsic-header warnings as the Gf61 kernels above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// Transposes the 8×8 tile held one row per register (c[r] lane j = row r,
// column j) so that c[j] lane r = row r, column j.
__attribute__((target("avx512f"), always_inline)) inline
void Transpose8x8(__m512d (&c)[8]) {
  // Pairs of rows interleaved: t0 = 00 10 02 12 04 14 06 16, t1 = 01 11 …
  const __m512d t0 = _mm512_unpacklo_pd(c[0], c[1]);
  const __m512d t1 = _mm512_unpackhi_pd(c[0], c[1]);
  const __m512d t2 = _mm512_unpacklo_pd(c[2], c[3]);
  const __m512d t3 = _mm512_unpackhi_pd(c[2], c[3]);
  const __m512d t4 = _mm512_unpacklo_pd(c[4], c[5]);
  const __m512d t5 = _mm512_unpackhi_pd(c[4], c[5]);
  const __m512d t6 = _mm512_unpacklo_pd(c[6], c[7]);
  const __m512d t7 = _mm512_unpackhi_pd(c[6], c[7]);
  // 128-bit lanes even/odd: u0 = 00 10 04 14 20 30 24 34, u2 = 02 12 06 16 …
  const __m512d u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
  const __m512d u1 = _mm512_shuffle_f64x2(t1, t3, 0x88);
  const __m512d u2 = _mm512_shuffle_f64x2(t0, t2, 0xDD);
  const __m512d u3 = _mm512_shuffle_f64x2(t1, t3, 0xDD);
  const __m512d u4 = _mm512_shuffle_f64x2(t4, t6, 0x88);
  const __m512d u5 = _mm512_shuffle_f64x2(t5, t7, 0x88);
  const __m512d u6 = _mm512_shuffle_f64x2(t4, t6, 0xDD);
  const __m512d u7 = _mm512_shuffle_f64x2(t5, t7, 0xDD);
  // Once more: c0 = 00 10 20 30 40 50 60 70, c4 = 04 14 … 74.
  c[0] = _mm512_shuffle_f64x2(u0, u4, 0x88);
  c[1] = _mm512_shuffle_f64x2(u1, u5, 0x88);
  c[2] = _mm512_shuffle_f64x2(u2, u6, 0x88);
  c[3] = _mm512_shuffle_f64x2(u3, u7, 0x88);
  c[4] = _mm512_shuffle_f64x2(u0, u4, 0xDD);
  c[5] = _mm512_shuffle_f64x2(u1, u5, 0xDD);
  c[6] = _mm512_shuffle_f64x2(u2, u6, 0xDD);
  c[7] = _mm512_shuffle_f64x2(u3, u7, 0xDD);
}

__attribute__((target("avx512f")))
void MatVecF64Avx512(const double* a, size_t rows, size_t cols,
                     const double* x, double* y) {
  const size_t tiled_cols = cols - cols % 8;
  size_t i0 = 0;
  for (; i0 + 8 <= rows; i0 += 8) {
    const double* block = a + i0 * cols;
    __m512d acc = _mm512_setzero_pd();
    for (size_t k0 = 0; k0 < tiled_cols; k0 += 8) {
      __m512d c[8];
#pragma GCC unroll 8
      for (size_t r = 0; r < 8; ++r) {
        c[r] = _mm512_loadu_pd(block + r * cols + k0);
      }
      Transpose8x8(c);
      // Separate multiply and add: each lane rounds the product, then the
      // sum, exactly as the naive loop does.
#pragma GCC unroll 8
      for (size_t k = 0; k < 8; ++k) {
        acc = _mm512_add_pd(acc,
                            _mm512_mul_pd(c[k], _mm512_set1_pd(x[k0 + k])));
      }
    }
    alignas(64) double lane_acc[8];
    _mm512_store_pd(lane_acc, acc);
    MatVecF64NaiveRows(block, 8, cols, x, lane_acc, tiled_cols, y + i0);
  }
  MatVecF64NaiveRows(a + i0 * cols, rows - i0, cols, x, nullptr, 0, y + i0);
}

// Transposes the 4×4 tile held one row per register.
__attribute__((target("avx2"), always_inline)) inline
void Transpose4x4(__m256d (&c)[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(c[0], c[1]);  // 00 10 02 12
  const __m256d t1 = _mm256_unpackhi_pd(c[0], c[1]);  // 01 11 03 13
  const __m256d t2 = _mm256_unpacklo_pd(c[2], c[3]);  // 20 30 22 32
  const __m256d t3 = _mm256_unpackhi_pd(c[2], c[3]);  // 21 31 23 33
  c[0] = _mm256_permute2f128_pd(t0, t2, 0x20);        // 00 10 20 30
  c[1] = _mm256_permute2f128_pd(t1, t3, 0x20);        // 01 11 21 31
  c[2] = _mm256_permute2f128_pd(t0, t2, 0x31);        // 02 12 22 32
  c[3] = _mm256_permute2f128_pd(t1, t3, 0x31);        // 03 13 23 33
}

__attribute__((target("avx2")))
void MatVecF64Avx2(const double* a, size_t rows, size_t cols,
                   const double* x, double* y) {
  const size_t tiled_cols = cols - cols % 4;
  size_t i0 = 0;
  for (; i0 + 4 <= rows; i0 += 4) {
    const double* block = a + i0 * cols;
    __m256d acc = _mm256_setzero_pd();
    for (size_t k0 = 0; k0 < tiled_cols; k0 += 4) {
      __m256d c[4];
#pragma GCC unroll 4
      for (size_t r = 0; r < 4; ++r) {
        c[r] = _mm256_loadu_pd(block + r * cols + k0);
      }
      Transpose4x4(c);
#pragma GCC unroll 4
      for (size_t k = 0; k < 4; ++k) {
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(c[k], _mm256_set1_pd(x[k0 + k])));
      }
    }
    alignas(32) double lane_acc[4];
    _mm256_store_pd(lane_acc, acc);
    MatVecF64NaiveRows(block, 4, cols, x, lane_acc, tiled_cols, y + i0);
  }
  MatVecF64NaiveRows(a + i0 * cols, rows - i0, cols, x, nullptr, 0, y + i0);
}

#pragma GCC diagnostic pop

#endif  // SCEC_X86_KERNELS

}  // namespace

std::span<const F64MatVecTier> F64MatVecTiers() {
  static const F64MatVecTier tiers[] = {
#if SCEC_X86_KERNELS
      {"avx512", MatVecF64Avx512, __builtin_cpu_supports("avx512f") != 0},
      {"avx2", MatVecF64Avx2, __builtin_cpu_supports("avx2") != 0},
#endif
      {"scalar", MatVecF64Scalar, true},
  };
  return tiers;
}

const F64MatVecTier& SelectedF64MatVecTier() {
  static const F64MatVecTier& selected = []() -> const F64MatVecTier& {
    const std::span<const F64MatVecTier> tiers = F64MatVecTiers();
    const F64MatVecTier* pick = &tiers.back();
    for (const F64MatVecTier& tier : tiers) {
      if (tier.supported) {
        pick = &tier;
        break;
      }
    }
    obs::MetricsRegistry::Global()
        .GetGauge("scec_f64_matvec_tier", {{"tier", pick->name}})
        .Set(1.0);
    SCEC_LOG(kInfo) << "f64 matvec kernel tier: " << pick->name;
    return *pick;
  }();
  return selected;
}

void MatVecF64(const double* a, size_t rows, size_t cols, const double* x,
               double* y) {
  SelectedF64MatVecTier().fn(a, rows, cols, x, y);
}

void PanelRowsGf61(const Matrix<Elem>& a, const Matrix<Elem>& x,
                   std::span<Elem> out, size_t row_begin, size_t row_end) {
  // First panel call publishes the calibration outcome (metrics + one kInfo
  // line); afterwards this is a single static-init guard check.
  Gf61KernelTier();
  const size_t l = a.cols();
  const size_t b = x.cols();
  const Elem* adata = a.Data().data();
  const Elem* xdata = x.Data().data();
  Elem* odata = out.data();
#if SCEC_X86_KERNELS
  if (b >= 8 && Gf61Avx512Available()) {
    // Split X into limb planes once per call — it is reused by every row,
    // so the O(l·b) split amortises to nothing. A's rows are limb-split
    // one at a time into a small reused scratch (stays in L1, keeps A's
    // memory traffic at one pass). (MatMulPanelSpan fans rows out in
    // chunks, so parallel callers amortise the X split over their whole
    // chunk, not a single row.)
    const bool ifma = Gf61UseIfma();
    const unsigned shift = ifma ? 52 : 31;
    std::vector<uint64_t> x0(l * b), x1(l * b);
    std::vector<uint64_t> arow_scratch(2 * l);
    SplitLimbs(xdata, l * b, x0.data(), x1.data(), shift);
    const size_t vec_cols = b - b % 8;
    if (ifma) {
      PanelRowsGf61Ifma(adata, x0.data(), x1.data(), arow_scratch.data(),
                        arow_scratch.data() + l, odata, l,
                        b, row_begin, row_end, 0, vec_cols);
    } else {
      PanelRowsGf61Avx512(adata, x0.data(), x1.data(), arow_scratch.data(),
                          arow_scratch.data() + l, odata, l,
                          b, row_begin, row_end, 0, vec_cols);
    }
    if (vec_cols < b) {
      PanelRowsGf61Scalar(adata, xdata, odata, l, b, row_begin, row_end,
                          vec_cols, b);
    }
    return;
  }
#endif
  PanelRowsGf61Scalar(adata, xdata, odata, l, b, row_begin, row_end, 0, b);
}

}  // namespace scec::kernel_internal

namespace scec {

const Gf61KernelReport& Gf61KernelTier() {
  static const Gf61KernelReport report = [] {
    Gf61KernelReport r;
#if SCEC_X86_KERNELS
    if (kernel_internal::Gf61Avx512Available()) {
      if (kernel_internal::Gf61IfmaAvailable()) {
        const auto& times = kernel_internal::Gf61CalibrationTimes();
        r.calibrated = true;
        r.mul32_best_ns = times.mul32_ns;
        r.ifma_best_ns = times.ifma_ns;
        r.tier = kernel_internal::Gf61UseIfma() ? "avx512-ifma"
                                                : "avx512-mul32";
      } else {
        r.tier = "avx512-mul32";
      }
    }
#endif
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetGauge("scec_gf61_kernel_tier", {{"tier", r.tier}}).Set(1.0);
    if (r.calibrated) {
      registry
          .GetGauge("scec_gf61_calibration_best_ns", {{"tier", "mul32"}})
          .Set(r.mul32_best_ns);
      registry.GetGauge("scec_gf61_calibration_best_ns", {{"tier", "ifma"}})
          .Set(r.ifma_best_ns);
    }
    SCEC_LOG(kInfo) << "gf61 panel kernel tier: " << r.tier
                    << (r.calibrated
                            ? " (calibration best-of ns: mul32=" +
                                  std::to_string(r.mul32_best_ns) +
                                  ", ifma=" + std::to_string(r.ifma_best_ns) +
                                  ")"
                            : "");
    return r;
  }();
  return report;
}

}  // namespace scec
