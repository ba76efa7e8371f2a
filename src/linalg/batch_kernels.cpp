// SPDX-License-Identifier: MIT
//
// Runtime-dispatched kernels. The double mat-vec tiers and the double panel
// sit at the end of this file (contract and bit-identity argument in
// batch_kernels.h); the rest are the GF(2^61−1) matrix–panel kernels. Three
// tiers (kernel_internal::Gf61PanelTiers()) behind one runtime dispatch,
// all producing the exact canonical value of the per-MAC scalar path
// (modular arithmetic is exact, so accumulation order cannot change the
// result):
//
//   * scalar: unsigned __int128 accumulators with delayed Mersenne
//     reduction (folded every kGf61FoldInterval terms; overflow proof in
//     field/accumulator.h);
//   * avx512-mul32 (x86-64, runtime-detected): 31-bit limbs, so vpmuludq
//     (32×32→64) provides every partial product directly;
//   * avx512-ifma (runtime-detected): vpmadd52lo/hi with 52-bit limbs.
//
// Both vector tiers run one register-blocked micro-kernel, PanelTile. A
// tile is R rows × 8·G columns: R = kTileRows = 4 rows and G = 2 groups of
// 8 lanes. Per k it loads the tile's 16 X values once, splits them into
// limbs in registers and reuses those vectors for all R rows; the R rows'
// A limbs come from a per-tile scratch of 2·R·l words (layout at LimbsAt),
// read as broadcasts. Each (row, group) keeps three
// accumulators, so a 4×16 tile holds 24 ZMM accumulators, 4 X limb vectors
// and 2 broadcasts. Row tails (rows % R) run the same template at
// R = rows % R; column tails run G = 1 for one 8-column group, then the
// scalar strip for the last b % 8 columns.
//
// The fold v -> (v & P) + (v >> 61) preserves v mod P = 2^61 − 1 and maps
// any uint64 to < 2^61 + 8. Every accumulator is later multiplied by a
// constant weight, which preserves congruences, so folding along the way is
// sound. The tile's result per lane is the weighted sum of its three
// accumulators (each < 2^64), reduced once in 128-bit scalar arithmetic.
//
// mul32 arithmetic. Write a = a0 + 2^31·a1 and x = x0 + 2^31·x1 with
// a0, x0 < 2^31 and a1, x1 < 2^30 (a, x < 2^61). Then
//
//   a·x = a0·x0 + 2^31·(a0·x1 + a1·x0) + 2^62·(a1·x1)
//
// and three uint64 lane accumulators collect the partials over k:
//
//   p0 += a0·x0               term < 2^62
//   pm += a0·x1 + a1·x0       term < 2^62
//   p2 += a1·x1               term < 2^60
//
// p0 and pm fold every 3 terms and p2 every 12 (every fourth fold):
//
//   2^61 + 8 + 3·2^62 < 2^64,   2^61 + 8 + 12·2^60 < 2^64.
//
// After the last full fold at most 11 terms follow, so p2 stays in bound
// too, and the result p0 + 2^31·pm + 2^62·p2 < 2^64 + 2^95 + 2^126 < 2^128.
//
// IFMA arithmetic. Write a = a0 + 2^52·a1 and x = x0 + 2^52·x1 with
// a0, x0 < 2^52 and a1, x1 < 2^9. vpmadd52luq/vpmadd52huq add the low/high
// 52 bits of the 104-bit product of the operands' low 52 bits to a 64-bit
// lane, so with lo/hi those halves
//
//   a·x = lo(a0·x0) + 2^52·(hi(a0·x0) + lo(a0·x1) + lo(a1·x0))
//                   + 2^104·(hi(a0·x1) + hi(a1·x0) + a1·x1)
//
// since a0·x1, a1·x0 < 2^61 have high halves < 2^9 and a1·x1 < 2^18 is
// exact in the low half. As 2^61 ≡ 1, 2^104 ≡ 2^43 (mod P), and the seven
// vpmadd52 of one term land in three accumulators, one per limb weight:
//
//   w0  += lo(a0·x0)                             term < 2^52
//   w52 += hi(a0·x0) + lo(a0·x1) + lo(a1·x0)     term < 3·2^52
//   w43 += hi(a0·x1) + hi(a1·x0) + a1·x1         term < 2^19
//
// All three fold every kIfmaFoldInterval = 1024 terms. w52 sets the
// interval:
//
//   2^61 + 8 + 1024·3·2^52 = 7·2^61 + 8 < 2^64
//
// (up to 1194 terms would fit); w0 and w43 gain less per term. The result
// w0 + 2^52·w52 + 2^43·w43 < 2^64 + 2^116 + 2^107 < 2^128. vpmadd52 reads
// only the low 52 bits of each lane, so a loaded X vector serves as its own
// low limb; only the high limb takes a shift.

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

void PanelRowsGf61ScalarTier(const Matrix<Elem>& a, const Matrix<Elem>& x,
                             std::span<Elem> out, size_t row_begin,
                             size_t row_end) {
  PanelRowsGf61Scalar(a.Data().data(), x.Data().data(), out.data(), a.cols(),
                      x.cols(), row_begin, row_end, 0, x.cols());
}

#if SCEC_X86_KERNELS

// GCC 12's avx512fintrin.h trips -Wmaybe-uninitialized on the _mm512_undefined
// helpers inlined into these kernels; the warning is spurious.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// The tile templates below serve both vector tiers, so they are compiled for
// the union of the tiers' features. That does not let the mul32 instances
// use IFMA: GCC emits vpmadd52 only from its intrinsics, which only
// Gf61Ifma calls, and the dispatch runs the IFMA instances only where
// Gf61IfmaAvailable().
#define SCEC_GF61_AVX512 "avx512f,avx512dq,avx512vl"
#define SCEC_GF61_TILE SCEC_GF61_AVX512 ",avx512ifma"

static_assert(sizeof(Elem) == sizeof(uint64_t),
              "the vector tiers load Gf61 elements as uint64 lanes");

inline constexpr size_t kIfmaFoldInterval = 1024;

__attribute__((target(SCEC_GF61_AVX512), always_inline)) inline
__m512i Gf61Fold(__m512i v) {
  const __m512i mask61 = _mm512_set1_epi64(kMersenne61);
  return _mm512_add_epi64(_mm512_and_si512(v, mask61),
                          _mm512_srli_epi64(v, 61));
}

// out[j] = v0[j] + 2^kShift1·v1[j] + 2^kShift2·v2[j] (mod P), per lane in
// 128-bit arithmetic, once per tile (negligible next to the k loop).
template <unsigned kShift1, unsigned kShift2>
__attribute__((target(SCEC_GF61_AVX512)))
void StoreWeighted(const __m512i& v0, const __m512i& v1, const __m512i& v2,
                   Elem* out) {
  alignas(64) uint64_t l0[8], l1[8], l2[8];
  _mm512_store_si512(l0, v0);
  _mm512_store_si512(l1, v1);
  _mm512_store_si512(l2, v2);
  for (size_t jj = 0; jj < 8; ++jj) {
    unsigned __int128 total =
        static_cast<unsigned __int128>(l0[jj]) +
        (static_cast<unsigned __int128>(l1[jj]) << kShift1) +
        (static_cast<unsigned __int128>(l2[jj]) << kShift2);
    internal::FoldMersenne61(total);  // < 2^62: fits uint64_t
    out[jj] = Elem(static_cast<uint64_t>(total));
  }
}

// 31-bit limbs through vpmuludq, which multiplies the low 32 bits of each
// lane (arithmetic and fold cadences in the file comment).
struct Gf61Mul32 {
  static constexpr unsigned kShift = 31;
  static constexpr size_t kFoldInterval = 3;      // p0, pm
  static constexpr size_t kFoldsPerFullFold = 4;  // p2: every 12 terms

  struct Acc {
    __m512i p0, pm, p2;
  };

  __attribute__((target(SCEC_GF61_AVX512), always_inline)) static Acc Zero() {
    const __m512i z = _mm512_setzero_si512();
    return {z, z, z};
  }

  __attribute__((target(SCEC_GF61_AVX512), always_inline)) static void Split(
      __m512i v, __m512i& lo, __m512i& hi) {
    lo = _mm512_and_si512(v, _mm512_set1_epi64((uint64_t{1} << kShift) - 1));
    hi = _mm512_srli_epi64(v, kShift);
  }

  __attribute__((target(SCEC_GF61_AVX512), always_inline)) static void Step(
      Acc& acc, __m512i a0, __m512i a1, __m512i x0, __m512i x1) {
    acc.p0 = _mm512_add_epi64(acc.p0, _mm512_mul_epu32(a0, x0));
    acc.pm = _mm512_add_epi64(acc.pm,
                              _mm512_add_epi64(_mm512_mul_epu32(a0, x1),
                                               _mm512_mul_epu32(a1, x0)));
    acc.p2 = _mm512_add_epi64(acc.p2, _mm512_mul_epu32(a1, x1));
  }

  __attribute__((target(SCEC_GF61_AVX512), always_inline)) static void Fold(
      Acc& acc) {
    acc.p0 = Gf61Fold(acc.p0);
    acc.pm = Gf61Fold(acc.pm);
  }

  __attribute__((target(SCEC_GF61_AVX512), always_inline)) static void
  FullFold(Acc& acc) {
    Fold(acc);
    acc.p2 = Gf61Fold(acc.p2);
  }

  __attribute__((target(SCEC_GF61_AVX512), always_inline)) static void Store(
      const Acc& acc, Elem* out) {
    StoreWeighted<31, 62>(acc.p0, acc.pm, acc.p2, out);
  }
};

// 52-bit limbs through vpmadd52, seven per term folded into one
// accumulator per limb weight (arithmetic and fold cadence in the file
// comment).
struct Gf61Ifma {
  static constexpr unsigned kShift = 52;
  static constexpr size_t kFoldInterval = kIfmaFoldInterval;
  static constexpr size_t kFoldsPerFullFold = 1;

  struct Acc {
    __m512i w0, w52, w43;
  };

  __attribute__((target(SCEC_GF61_TILE), always_inline)) static Acc Zero() {
    const __m512i z = _mm512_setzero_si512();
    return {z, z, z};
  }

  // The loaded value is its own low limb: vpmadd52 ignores bits 52 and up.
  __attribute__((target(SCEC_GF61_TILE), always_inline)) static void Split(
      __m512i v, __m512i& lo, __m512i& hi) {
    lo = v;
    hi = _mm512_srli_epi64(v, kShift);
  }

  __attribute__((target(SCEC_GF61_TILE), always_inline)) static void Step(
      Acc& acc, __m512i a0, __m512i a1, __m512i x0, __m512i x1) {
    acc.w0 = _mm512_madd52lo_epu64(acc.w0, a0, x0);
    acc.w52 = _mm512_madd52hi_epu64(acc.w52, a0, x0);
    acc.w52 = _mm512_madd52lo_epu64(acc.w52, a0, x1);
    acc.w52 = _mm512_madd52lo_epu64(acc.w52, a1, x0);
    acc.w43 = _mm512_madd52hi_epu64(acc.w43, a0, x1);
    acc.w43 = _mm512_madd52hi_epu64(acc.w43, a1, x0);
    acc.w43 = _mm512_madd52lo_epu64(acc.w43, a1, x1);  // a1·x1 < 2^18
  }

  __attribute__((target(SCEC_GF61_TILE), always_inline)) static void Fold(
      Acc& acc) {
    acc.w0 = Gf61Fold(acc.w0);
    acc.w52 = Gf61Fold(acc.w52);
    acc.w43 = Gf61Fold(acc.w43);
  }

  __attribute__((target(SCEC_GF61_TILE), always_inline)) static void
  FullFold(Acc& acc) {
    Fold(acc);
  }

  __attribute__((target(SCEC_GF61_TILE), always_inline)) static void Store(
      const Acc& acc, Elem* out) {
    StoreWeighted<52, 43>(acc.w0, acc.w52, acc.w43, out);  // 2^104 ≡ 2^43
  }
};

// The tile scratch holds R rows' limbs in blocks of 8 k: block k / 8 is
// [row][lo, hi][k % 8], so a split stores whole vectors and TileStep reads
// row r's limbs at ak[16·r] and ak[16·r + 8], ak = LimbsAt<R>(alimbs, k).
inline constexpr size_t kLimbBlock = 8;

inline size_t LimbScratchWords(size_t l) {
  return 2 * kTileRows * ((l + kLimbBlock - 1) / kLimbBlock * kLimbBlock);
}

template <size_t R, typename Word>
inline Word* LimbsAt(Word* alimbs, size_t k) {
  return alimbs + (k / kLimbBlock) * (2 * kLimbBlock * R) + k % kLimbBlock;
}

// Splits R consecutive rows of A (row stride l) into the tile scratch.
template <class Arith, size_t R>
__attribute__((target(SCEC_GF61_AVX512)))
void SplitRowTile(const Elem* arows, size_t l, uint64_t* alimbs) {
  constexpr uint64_t kMask = (uint64_t{1} << Arith::kShift) - 1;
  const __m512i mask = _mm512_set1_epi64(kMask);
  size_t k = 0;
  for (; k + kLimbBlock <= l; k += kLimbBlock) {
    uint64_t* block = alimbs + k * 2 * R;
    for (size_t r = 0; r < R; ++r) {
      const __m512i v = _mm512_loadu_si512(
          static_cast<const void*>(arows + r * l + k));
      _mm512_storeu_si512(block + 16 * r, _mm512_and_si512(v, mask));
      _mm512_storeu_si512(block + 16 * r + 8,
                          _mm512_srli_epi64(v, Arith::kShift));
    }
  }
  for (; k < l; ++k) {
    uint64_t* ak = LimbsAt<R>(alimbs, k);
    for (size_t r = 0; r < R; ++r) {
      const uint64_t v = arows[r * l + k].value();
      ak[16 * r] = v & kMask;
      ak[16 * r + 8] = v >> Arith::kShift;
    }
  }
}

// One k step of an R × 8·G tile: the X row's G vectors are loaded and
// limb-split once, then each of the R rows broadcasts its two A limbs
// (ak = LimbsAt<R>(alimbs, k)) against all of them.
template <class Arith, size_t R, size_t G>
__attribute__((target(SCEC_GF61_TILE), always_inline)) inline
void TileStep(typename Arith::Acc (&acc)[R][G], const uint64_t* ak,
              const Elem* xk) {
  __m512i x0[G], x1[G];
#pragma GCC unroll 2
  for (size_t g = 0; g < G; ++g) {
    Arith::Split(_mm512_loadu_si512(static_cast<const void*>(xk + 8 * g)),
                 x0[g], x1[g]);
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
    const __m512i a0 = _mm512_set1_epi64(static_cast<long long>(ak[16 * r]));
    const __m512i a1 =
        _mm512_set1_epi64(static_cast<long long>(ak[16 * r + 8]));
#pragma GCC unroll 2
    for (size_t g = 0; g < G; ++g) {
      Arith::Step(acc[r][g], a0, a1, x0[g], x1[g]);
    }
  }
}

// out[r·b + j] = Σ_k A[r][k]·X[k][j] for the tile's R rows and 8·G columns.
// alimbs is the rows' limb scratch; xdata and out point at the tile's first
// column (row stride b).
template <class Arith, size_t R, size_t G>
__attribute__((target(SCEC_GF61_TILE)))
void PanelTile(const uint64_t* alimbs, const Elem* xdata, size_t l, size_t b,
               Elem* out) {
  typename Arith::Acc acc[R][G];
#pragma GCC unroll 4
  for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (size_t g = 0; g < G; ++g) acc[r][g] = Arith::Zero();
  }
  size_t k = 0;
  size_t folds = 0;
  while (k + Arith::kFoldInterval <= l) {
    for (size_t s = 0; s < Arith::kFoldInterval; ++s, ++k) {
      TileStep<Arith, R, G>(acc, LimbsAt<R>(alimbs, k), xdata + k * b);
    }
    const bool full = ++folds == Arith::kFoldsPerFullFold;
    if (full) folds = 0;
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
      for (size_t g = 0; g < G; ++g) {
        if (full) {
          Arith::FullFold(acc[r][g]);
        } else {
          Arith::Fold(acc[r][g]);
        }
      }
    }
  }
  for (; k < l; ++k) {
    TileStep<Arith, R, G>(acc, LimbsAt<R>(alimbs, k), xdata + k * b);
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t g = 0; g < G; ++g) {
      Arith::Store(acc[r][g], out + r * b + 8 * g);
    }
  }
}

// R rows across the first vec_cols columns: 16-column tiles, then one
// 8-column tile.
template <class Arith, size_t R>
void PanelRowTile(const Elem* arows, const Elem* xdata, size_t l, size_t b,
                  size_t vec_cols, uint64_t* alimbs, Elem* orows) {
  SplitRowTile<Arith, R>(arows, l, alimbs);
  size_t j0 = 0;
  for (; j0 + 16 <= vec_cols; j0 += 16) {
    PanelTile<Arith, R, 2>(alimbs, xdata + j0, l, b, orows + j0);
  }
  if (j0 < vec_cols) {
    PanelTile<Arith, R, 1>(alimbs, xdata + j0, l, b, orows + j0);
  }
}

// A vector tier: rows [row_begin, row_end) in tiles of kTileRows rows, the
// last tile taking the rows % kTileRows rest, and the scalar strip for the
// b % 8 columns past the last 8-column group.
template <class Arith>
void PanelRowsGf61Vector(const Matrix<Elem>& a, const Matrix<Elem>& x,
                         std::span<Elem> out, size_t row_begin,
                         size_t row_end) {
  const size_t l = a.cols();
  const size_t b = x.cols();
  const Elem* adata = a.Data().data();
  const Elem* xdata = x.Data().data();
  Elem* odata = out.data();
  const size_t vec_cols = b - b % 8;
  if (vec_cols > 0) {
    std::vector<uint64_t> alimbs(LimbScratchWords(l));
    size_t i = row_begin;
    for (; i + kTileRows <= row_end; i += kTileRows) {
      PanelRowTile<Arith, kTileRows>(adata + i * l, xdata, l, b, vec_cols,
                                     alimbs.data(), odata + i * b);
    }
    static_assert(kTileRows == 4, "row tails below cover rows % 4");
    const auto tail = [&](auto rows) {
      PanelRowTile<Arith, decltype(rows)::value>(adata + i * l, xdata, l, b,
                                                 vec_cols, alimbs.data(),
                                                 odata + i * b);
    };
    switch (row_end - i) {
      case 3: tail(std::integral_constant<size_t, 3>{}); break;
      case 2: tail(std::integral_constant<size_t, 2>{}); break;
      case 1: tail(std::integral_constant<size_t, 1>{}); break;
      default: break;
    }
  }
  if (vec_cols < b) {
    PanelRowsGf61Scalar(adata, xdata, odata, l, b, row_begin, row_end,
                        vec_cols, b);
  }
}

#pragma GCC diagnostic pop

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
// IFMA step serialises on one port while the vpmuludq kernel's mul/add mix
// spreads across both vector ALU ports; on dual-FMA parts IFMA is far ahead
// (7 fused ops vs 8 ops + folds). Port counts are not CPUID-enumerable, so
// measure once: time both tiers on a small fixed problem (best of kReps to
// shed scheduler noise) and cache the winner. Both tiers return identical
// canonical values, so the choice never affects results.
struct CalibrationTimes {
  double mul32_ns = 0.0;
  double ifma_ns = 0.0;
};

CalibrationTimes MeasureGf61Calibration() {
  constexpr size_t kRows = 32, kL = 256, kB = 16, kReps = 5;
  Matrix<Elem> a(kRows, kL), x(kL, kB), out(kRows, kB);
  for (size_t idx = 0; idx < kRows * kL; ++idx) {
    a.Data()[idx] = Elem(idx * 0x9E3779B97F4A7C15ull);
  }
  for (size_t idx = 0; idx < kL * kB; ++idx) {
    x.Data()[idx] = Elem(idx * 0xBF58476D1CE4E5B9ull);
  }
  auto time_best = [&](PanelRowsGf61Fn kernel) {
    auto best = std::chrono::steady_clock::duration::max();
    for (size_t rep = 0; rep < kReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      kernel(a, x, out.Data(), 0, kRows);
      best = std::min(best, std::chrono::steady_clock::now() - start);
    }
    return std::chrono::duration<double, std::nano>(best).count();
  };
  CalibrationTimes times;
  times.mul32_ns = time_best(PanelRowsGf61Vector<Gf61Mul32>);
  times.ifma_ns = time_best(PanelRowsGf61Vector<Gf61Ifma>);
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

void PanelRowsF64(const Matrix<double>& a, const Matrix<double>& x,
                  std::span<double> out, size_t row_begin, size_t row_end) {
  const size_t l = a.cols();
  const size_t b = x.cols();
  const size_t rows = row_end - row_begin;
  std::vector<double> xcol(l), ycol(rows);
  for (size_t j = 0; j < b; ++j) {
    for (size_t k = 0; k < l; ++k) xcol[k] = x(k, j);
    MatVecF64(a.Data().data() + row_begin * l, rows, l, xcol.data(),
              ycol.data());
    for (size_t i = 0; i < rows; ++i) out[(row_begin + i) * b + j] = ycol[i];
  }
}

std::span<const Gf61PanelTier> Gf61PanelTiers() {
  static const Gf61PanelTier tiers[] = {
#if SCEC_X86_KERNELS
      {"avx512-ifma", PanelRowsGf61Vector<Gf61Ifma>, Gf61IfmaAvailable()},
      {"avx512-mul32", PanelRowsGf61Vector<Gf61Mul32>, Gf61Avx512Available()},
#endif
      {"scalar", PanelRowsGf61ScalarTier, true},
  };
  return tiers;
}

void PanelRowsGf61(const Matrix<Elem>& a, const Matrix<Elem>& x,
                   std::span<Elem> out, size_t row_begin, size_t row_end) {
  // First panel call publishes the calibration outcome (metrics + one kInfo
  // line); afterwards this is a single static-init guard check.
  Gf61KernelTier();
#if SCEC_X86_KERNELS
  if (x.cols() >= 8 && Gf61Avx512Available()) {
    if (Gf61UseIfma()) {
      PanelRowsGf61Vector<Gf61Ifma>(a, x, out, row_begin, row_end);
    } else {
      PanelRowsGf61Vector<Gf61Mul32>(a, x, out, row_begin, row_end);
    }
    return;
  }
#endif
  PanelRowsGf61ScalarTier(a, x, out, row_begin, row_end);
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
