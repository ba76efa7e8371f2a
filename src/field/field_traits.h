// SPDX-License-Identifier: MIT
//
// Uniform compile-time interface over the scalar types the linear algebra
// layer accepts: exact finite fields (GF(p), GF(2^8)) and IEEE doubles.
//
// The elimination routines dispatch on `is_exact`:
//   * exact fields — any nonzero pivot is usable; equality is exact.
//   * doubles      — partial pivoting and a magnitude tolerance are required.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/rng.h"
#include "field/gf256.h"
#include "field/gf_prime.h"

namespace scec {

template <typename T>
struct FieldTraits;

// 64-bit draws FillRandom takes from the generator at a time (2 KiB of
// stack).
inline constexpr size_t kRandomFillChunk = 256;

// out[i] = from_draw(d_i), where d_0, d_1, ... are the next 64-bit draws
// that are <= limit, taken in bulk; a draw above the limit is skipped, as
// NextBelow's rejection loop skips it.
template <typename Rng, typename Scalar, typename FromDraw>
void FillFromDraws(Rng& rng, std::span<Scalar> out, uint64_t limit,
                   FromDraw from_draw) {
  uint64_t draws[kRandomFillChunk];
  size_t i = 0;
  while (i < out.size()) {
    // As many draws as elements still needed: a skipped draw only means
    // one more draw next time round.
    const size_t n = std::min(out.size() - i, kRandomFillChunk);
    rng.FillUint64(std::span<uint64_t>(draws, n));
    for (size_t k = 0; k < n; ++k) {
      if (draws[k] <= limit) out[i++] = from_draw(draws[k]);
    }
  }
}

template <uint64_t P>
struct FieldTraits<GfElem<P>> {
  using Scalar = GfElem<P>;
  static constexpr bool is_exact = true;

  static constexpr Scalar Zero() { return Scalar::Zero(); }
  static constexpr Scalar One() { return Scalar::One(); }
  static bool IsZero(Scalar v) { return v.IsZero(); }
  // Pivot quality: for exact fields, any nonzero element is a perfect pivot.
  static double PivotMagnitude(Scalar v) { return v.IsZero() ? 0.0 : 1.0; }
  static Scalar Inverse(Scalar v) { return v.Inverse(); }
  // Uniformly random element, given a generator with NextBelow(bound).
  template <typename Rng>
  static Scalar Random(Rng& rng) {
    return Scalar(rng.NextBelow(P));
  }
  // out[i] = Random(rng) for each i in order, with the draws taken in bulk.
  template <typename Rng>
  static void FillRandom(Rng& rng, std::span<Scalar> out) {
    FillFromDraws(rng, out, UnbiasedDrawLimit(P),
                  [](uint64_t draw) { return Scalar(draw); });
  }
  // Uniformly random *nonzero* element.
  template <typename Rng>
  static Scalar RandomNonZero(Rng& rng) {
    return Scalar(1 + rng.NextBelow(P - 1));
  }
};

template <>
struct FieldTraits<Gf256> {
  using Scalar = Gf256;
  static constexpr bool is_exact = true;

  static constexpr Scalar Zero() { return Scalar::Zero(); }
  static constexpr Scalar One() { return Scalar::One(); }
  static bool IsZero(Scalar v) { return v.IsZero(); }
  static double PivotMagnitude(Scalar v) { return v.IsZero() ? 0.0 : 1.0; }
  static Scalar Inverse(Scalar v) { return v.Inverse(); }
  template <typename Rng>
  static Scalar Random(Rng& rng) {
    return Scalar(static_cast<uint8_t>(rng.NextBelow(256)));
  }
  // out[i] = Random(rng) for each i in order: NextBelow(256) never rejects,
  // so each element is the low byte of one 64-bit draw.
  template <typename Rng>
  static void FillRandom(Rng& rng, std::span<Scalar> out) {
    FillFromDraws(rng, out, UnbiasedDrawLimit(256), [](uint64_t draw) {
      return Scalar(static_cast<uint8_t>(draw & 0xFFu));
    });
  }
  template <typename Rng>
  static Scalar RandomNonZero(Rng& rng) {
    return Scalar(static_cast<uint8_t>(1 + rng.NextBelow(255)));
  }
};

template <>
struct FieldTraits<double> {
  using Scalar = double;
  static constexpr bool is_exact = false;
  // Relative tolerance used by rank / elimination routines.
  static constexpr double kEpsilon = 1e-9;

  static constexpr Scalar Zero() { return 0.0; }
  static constexpr Scalar One() { return 1.0; }
  static bool IsZero(Scalar v) { return std::fabs(v) <= kEpsilon; }
  static double PivotMagnitude(Scalar v) { return std::fabs(v); }
  static Scalar Inverse(Scalar v) { return 1.0 / v; }
  template <typename Rng>
  static Scalar Random(Rng& rng) {
    // Uniform in [-1, 1): a generic dense scalar for numeric tests.
    return FromDraw(rng.NextUint64());
  }
  // out[i] = Random(rng) for each i in order, with the draws taken in bulk.
  template <typename Rng>
  static void FillRandom(Rng& rng, std::span<Scalar> out) {
    FillFromDraws(rng, out, UINT64_MAX, FromDraw);
  }
  // The top 53 bits of a 64-bit draw, scaled to [-1, 1).
  static Scalar FromDraw(uint64_t draw) {
    return 2.0 * (static_cast<double>(draw >> 11) * 0x1.0p-53) - 1.0;
  }
  template <typename Rng>
  static Scalar RandomNonZero(Rng& rng) {
    double v;
    do {
      v = Random(rng);
    } while (IsZero(v));
    return v;
  }
};

// Concept-ish helper.
template <typename T>
inline constexpr bool kIsExactField = FieldTraits<T>::is_exact;

}  // namespace scec
