// SPDX-License-Identifier: MIT
//
// Delayed-reduction multiply-accumulate for dot products and mat-vec/mat-mul
// inner loops.
//
// The naive Gf61 MAC reduces after every product: a 64×64→128 multiply, a
// two-step Mersenne fold, a conditional subtraction, then a modular add with
// another conditional subtraction — a long dependency chain per term.
// DotAccumulator<Gf61> instead accumulates raw 128-bit products and folds
// once every kFoldInterval terms, cutting the chain to one 128-bit add per
// term. Because GF(p) arithmetic is exact, the result is *identical* to the
// per-MAC path (tests/test_batch_kernels.cpp proves this on random and
// adversarial all-(P−1) inputs).
//
// Overflow proof for kFoldInterval = 63 over P = 2^61 − 1:
//   invariant: acc < 2^62 at the start of every block (0 initially; restored
//   by Fold below). Each product is at most (P−1)^2 < 2^122, so after 63
//   MACs acc < 2^62 + 63·2^122 < 2^128 — no wrap-around of the unsigned
//   __int128 accumulator. Fold maps acc to
//     (acc mod 2^61) + ⌊acc / 2^61⌋   (< 2^61 + 2^67 ≤ 2^68), then again
//     (… mod 2^61) + ⌊… / 2^61⌋       (< 2^61 + 2^7  < 2^62),
//   and each fold preserves the value mod P because 2^61 ≡ 1 (mod P).
//
// The generic fallback reduces per MAC (fields) or, for double, is the naive
// loop's chain: product rounded, then sum rounded, k ascending (the library
// builds with -ffp-contract=off, so the two are never fused into an FMA).
// MatVecInto<double> does not use it: its row-block kernel
// (batch_kernels.cpp) runs that same sequence in one SIMD lane per row.

#pragma once

#include <cstdint>

#include "field/field_traits.h"
#include "field/gf_prime.h"

namespace scec {

namespace internal {

inline constexpr size_t kGf61FoldInterval = 63;

// Two Mersenne folds: any acc < 2^128 comes out < 2^62 with value preserved
// mod 2^61 − 1.
inline void FoldMersenne61(unsigned __int128& acc) {
  acc = (acc & kMersenne61) + (acc >> 61);
  acc = (acc & kMersenne61) + (acc >> 61);
}

}  // namespace internal

// Generic fallback: per-MAC arithmetic in the scalar type itself. For exact
// fields this is the naive reduction path; for double it is the canonical
// k-ascending accumulation that Dot uses and that every MatVecInto<double>
// tier reproduces bit for bit.
template <typename T>
class DotAccumulator {
 public:
  void MulAdd(T a, T b) { acc_ += a * b; }
  void Add(T v) { acc_ += v; }
  T Value() const { return acc_; }

 private:
  T acc_ = FieldTraits<T>::Zero();
};

// Delayed-reduction specialisation for the Mersenne prime 2^61 − 1.
template <>
class DotAccumulator<GfElem<kMersenne61>> {
 public:
  using Elem = GfElem<kMersenne61>;

  void MulAdd(Elem a, Elem b) {
    acc_ += static_cast<unsigned __int128>(a.value()) * b.value();
    if (++pending_ == internal::kGf61FoldInterval) {
      internal::FoldMersenne61(acc_);
      pending_ = 0;
    }
  }

  void Add(Elem v) {
    // A canonical element is < 2^61 ≤ (P−1)^2, so it consumes one MAC slot.
    acc_ += v.value();
    if (++pending_ == internal::kGf61FoldInterval) {
      internal::FoldMersenne61(acc_);
      pending_ = 0;
    }
  }

  Elem Value() const {
    unsigned __int128 acc = acc_;
    internal::FoldMersenne61(acc);  // < 2^62: fits uint64_t
    // The GfElem constructor canonicalises the residue into [0, P).
    return Elem(static_cast<uint64_t>(acc));
  }

 private:
  unsigned __int128 acc_ = 0;
  size_t pending_ = 0;
};

}  // namespace scec
