// SPDX-License-Identifier: MIT
//
// Prime-field arithmetic GF(p) for word-sized primes.
//
// The information-theoretic security (ITS) guarantee of the SCEC coding
// scheme (Def. 2 in the paper) is a statement about linear algebra over a
// field with *exactly uniform* pad elements. We therefore provide exact
// field arithmetic:
//
//   * GfElem<P> — value type for a compile-time prime P. For P < 2^32 the
//     product fits in 64 bits; for larger primes (notably the Mersenne prime
//     2^61 - 1) multiplication uses unsigned __int128 with fast Mersenne
//     reduction.
//
// Common instantiations are aliased at the bottom. All operations are
// constant-time-ish (no data-dependent branches except division-by-zero
// checks), total, and closed — invariants the linear algebra layer relies on.

#pragma once

#include <cstdint>
#include <ostream>
#include <type_traits>

#include "common/check.h"

namespace scec {

// The Mersenne prime 2^61 - 1: the default field for security verification.
inline constexpr uint64_t kMersenne61 = (uint64_t{1} << 61) - 1;

namespace internal {

// Modular multiplication dispatching on the size of P.
template <uint64_t P>
constexpr uint64_t MulMod(uint64_t a, uint64_t b) {
  if constexpr (P == kMersenne61) {
    // Mersenne reduction: (hi, lo) = a*b; a*b mod (2^61-1) =
    // (lo mod 2^61) + (hi bits shifted down), folded twice.
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
    const uint64_t lo = static_cast<uint64_t>(prod) & kMersenne61;
    const uint64_t hi = static_cast<uint64_t>(prod >> 61);
    uint64_t sum = lo + hi;
    if (sum >= kMersenne61) sum -= kMersenne61;
    return sum;
  } else if constexpr (P <= 0xFFFFFFFFULL) {
    return (a * b) % P;
  } else {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(a) * b) % P);
  }
}

// Reduces any 64-bit value mod P; for the Mersenne prime a fold,
// x = (x mod 2^61) + (x div 2^61) (mod 2^61 - 1), and one subtraction.
template <uint64_t P>
constexpr uint64_t ReduceMod(uint64_t v) {
  if constexpr (P == kMersenne61) {
    const uint64_t folded = (v & kMersenne61) + (v >> 61);  // < 2^61 + 8
    return folded >= kMersenne61 ? folded - kMersenne61 : folded;
  } else {
    return v % P;
  }
}

}  // namespace internal

// An element of GF(P). P must be prime (not checked at compile time beyond
// trivial cases; the test suite verifies field axioms for every instantiated
// modulus).
template <uint64_t P>
class GfElem {
  static_assert(P >= 2, "modulus must be at least 2");

 public:
  using value_type = uint64_t;
  static constexpr uint64_t kModulus = P;

  constexpr GfElem() = default;
  // Reduces arbitrary residues into the canonical range [0, P).
  constexpr explicit GfElem(uint64_t value)
      : value_(internal::ReduceMod<P>(value)) {}

  static constexpr GfElem Zero() { return GfElem(); }
  static constexpr GfElem One() { return GfElem(1); }

  // Lift a signed integer (e.g. -1 for subtraction matrices).
  static constexpr GfElem FromSigned(int64_t value) {
    const int64_t reduced = value % static_cast<int64_t>(P);
    return GfElem(static_cast<uint64_t>(
        reduced < 0 ? reduced + static_cast<int64_t>(P) : reduced));
  }

  constexpr uint64_t value() const { return value_; }
  constexpr bool IsZero() const { return value_ == 0; }

  friend constexpr GfElem operator+(GfElem a, GfElem b) {
    uint64_t sum = a.value_ + b.value_;  // P < 2^63 so no overflow
    if (sum >= P) sum -= P;
    return FromCanonical(sum);
  }

  friend constexpr GfElem operator-(GfElem a, GfElem b) {
    return FromCanonical(a.value_ >= b.value_ ? a.value_ - b.value_
                                              : a.value_ + P - b.value_);
  }

  constexpr GfElem operator-() const {
    return FromCanonical(value_ == 0 ? 0 : P - value_);
  }

  friend constexpr GfElem operator*(GfElem a, GfElem b) {
    return FromCanonical(internal::MulMod<P>(a.value_, b.value_));
  }

  // Division by zero is a contract violation (checked).
  friend GfElem operator/(GfElem a, GfElem b) { return a * b.Inverse(); }

  GfElem& operator+=(GfElem o) { return *this = *this + o; }
  GfElem& operator-=(GfElem o) { return *this = *this - o; }
  GfElem& operator*=(GfElem o) { return *this = *this * o; }
  GfElem& operator/=(GfElem o) { return *this = *this / o; }

  friend constexpr bool operator==(GfElem a, GfElem b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(GfElem a, GfElem b) { return !(a == b); }

  // Exponentiation by squaring; exponent is an ordinary integer.
  constexpr GfElem Pow(uint64_t exponent) const {
    GfElem base = *this;
    GfElem acc = One();
    uint64_t e = exponent;
    while (e != 0) {
      if (e & 1) acc *= base;
      base *= base;
      e >>= 1;
    }
    return acc;
  }

  // Multiplicative inverse via Fermat (P prime). Precondition: nonzero.
  GfElem Inverse() const {
    SCEC_CHECK(!IsZero()) << "inverse of zero in GF(" << P << ")";
    return Pow(P - 2);
  }

  friend std::ostream& operator<<(std::ostream& os, GfElem e) {
    return os << e.value_;
  }

 private:
  static constexpr GfElem FromCanonical(uint64_t v) {
    GfElem e;
    e.value_ = v;
    return e;
  }

  uint64_t value_ = 0;
};

// Canonical instantiations.
using Gf61 = GfElem<kMersenne61>;          // security verification default
using GfSmall = GfElem<257>;               // exhaustive secrecy enumeration
using Gf5 = GfElem<5>;                     // tiny field for brute-force tests
using Gf2 = GfElem<2>;                     // binary field corner cases

}  // namespace scec
