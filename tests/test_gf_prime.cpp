// SPDX-License-Identifier: MIT
//
// Field axioms and arithmetic identities for GF(p), exercised across every
// modulus the library instantiates — including the Mersenne prime 2^61−1
// whose multiplication uses the fast folding reduction.

#include "field/gf_prime.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "field/field_traits.h"

namespace scec {
namespace {

template <typename Field>
class GfPrimeTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<Gf2, Gf5, GfSmall, Gf61>;
TYPED_TEST_SUITE(GfPrimeTest, FieldTypes);

template <typename Field>
Field RandomElem(Xoshiro256StarStar& rng) {
  return Field(rng.NextUint64(0, Field::kModulus - 1));
}

TYPED_TEST(GfPrimeTest, AdditiveGroupAxioms) {
  Xoshiro256StarStar rng(1);
  for (int i = 0; i < 200; ++i) {
    const TypeParam a = RandomElem<TypeParam>(rng);
    const TypeParam b = RandomElem<TypeParam>(rng);
    const TypeParam c = RandomElem<TypeParam>(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + TypeParam::Zero(), a);
    EXPECT_EQ(a + (-a), TypeParam::Zero());
    EXPECT_EQ(a - b, a + (-b));
  }
}

TYPED_TEST(GfPrimeTest, MultiplicativeGroupAxioms) {
  Xoshiro256StarStar rng(2);
  for (int i = 0; i < 200; ++i) {
    const TypeParam a = RandomElem<TypeParam>(rng);
    const TypeParam b = RandomElem<TypeParam>(rng);
    const TypeParam c = RandomElem<TypeParam>(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * TypeParam::One(), a);
    EXPECT_EQ(a * TypeParam::Zero(), TypeParam::Zero());
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), TypeParam::One());
      EXPECT_EQ(b / a * a, b);
    }
  }
}

TYPED_TEST(GfPrimeTest, Distributivity) {
  Xoshiro256StarStar rng(3);
  for (int i = 0; i < 200; ++i) {
    const TypeParam a = RandomElem<TypeParam>(rng);
    const TypeParam b = RandomElem<TypeParam>(rng);
    const TypeParam c = RandomElem<TypeParam>(rng);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TYPED_TEST(GfPrimeTest, FermatLittleTheorem) {
  Xoshiro256StarStar rng(4);
  for (int i = 0; i < 50; ++i) {
    const TypeParam a = RandomElem<TypeParam>(rng);
    if (a.IsZero()) continue;
    EXPECT_EQ(a.Pow(TypeParam::kModulus - 1), TypeParam::One());
  }
}

TYPED_TEST(GfPrimeTest, PowMatchesRepeatedMultiplication) {
  Xoshiro256StarStar rng(5);
  const TypeParam a = RandomElem<TypeParam>(rng);
  TypeParam acc = TypeParam::One();
  for (uint64_t e = 0; e < 30; ++e) {
    EXPECT_EQ(a.Pow(e), acc);
    acc *= a;
  }
}

TYPED_TEST(GfPrimeTest, FromSignedWrapsNegatives) {
  EXPECT_EQ(TypeParam::FromSigned(-1) + TypeParam::One(), TypeParam::Zero());
  EXPECT_EQ(TypeParam::FromSigned(0), TypeParam::Zero());
  EXPECT_EQ(TypeParam::FromSigned(1), TypeParam::One());
  const int64_t p = static_cast<int64_t>(TypeParam::kModulus);
  EXPECT_EQ(TypeParam::FromSigned(-p), TypeParam::Zero());
  EXPECT_EQ(TypeParam::FromSigned(p + 1), TypeParam::One());
}

TYPED_TEST(GfPrimeTest, CanonicalReduction) {
  const TypeParam wrapped(TypeParam::kModulus);
  EXPECT_EQ(wrapped, TypeParam::Zero());
  const TypeParam wrapped2(TypeParam::kModulus + 3);
  EXPECT_EQ(wrapped2, TypeParam(3));
}

// Mersenne-specific: cross-check the folded multiplication against the
// generic 128-bit modulo on random pairs.
TEST(Gf61, MulMatchesNaiveBigintModulo) {
  Xoshiro256StarStar rng(6);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t a = rng.NextUint64(0, kMersenne61 - 1);
    const uint64_t b = rng.NextUint64(0, kMersenne61 - 1);
    const unsigned __int128 wide =
        static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
    const uint64_t expected = static_cast<uint64_t>(wide % kMersenne61);
    EXPECT_EQ((Gf61(a) * Gf61(b)).value(), expected);
  }
}

TEST(Gf61, EdgeValuesNearModulus) {
  const Gf61 pm1(kMersenne61 - 1);  // == -1
  EXPECT_EQ(pm1 * pm1, Gf61::One());
  EXPECT_EQ(pm1 + Gf61::One(), Gf61::Zero());
  EXPECT_EQ(pm1.Inverse(), pm1);
}

TEST(Gf2, BinaryFieldBehaviour) {
  EXPECT_EQ(Gf2(1) + Gf2(1), Gf2(0));
  EXPECT_EQ(Gf2(1) * Gf2(1), Gf2(1));
  EXPECT_EQ(Gf2(1).Inverse(), Gf2(1));
  EXPECT_EQ(-Gf2(1), Gf2(1));  // characteristic 2: x == -x
}

TEST(Gf5, ExhaustiveInverseTable) {
  // 1·1=1, 2·3=6=1, 4·4=16=1.
  EXPECT_EQ(Gf5(1).Inverse(), Gf5(1));
  EXPECT_EQ(Gf5(2).Inverse(), Gf5(3));
  EXPECT_EQ(Gf5(3).Inverse(), Gf5(2));
  EXPECT_EQ(Gf5(4).Inverse(), Gf5(4));
}

TEST(GfDeathTest, InverseOfZeroAborts) {
  EXPECT_DEATH(Gf61::Zero().Inverse(), "inverse of zero");
}

// Replays a scripted list of 64-bit draws (the rejection branch is reached
// with probability 8/2^64 per real draw, so it is scripted here).
struct ScriptedRng {
  std::vector<uint64_t> draws;
  size_t next = 0;
  uint64_t NextUint64() { return draws.at(next++); }
  void FillUint64(std::span<uint64_t> out) {
    for (uint64_t& v : out) v = NextUint64();
  }
  uint64_t NextBelow(uint64_t bound) {
    const uint64_t limit = UINT64_MAX - (UINT64_MAX % bound + 1) % bound;
    uint64_t draw;
    do {
      draw = NextUint64();
    } while (draw > limit);
    return draw % bound;
  }
};

TEST(Gf61Random, SameDrawsAndValuesAsNextBelow) {
  ChaCha20Rng a(0x61), b(0x61);
  Xoshiro256StarStar c(0x61), d(0x61);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(FieldTraits<Gf61>::Random(a).value(), b.NextBelow(kMersenne61));
    ASSERT_EQ(FieldTraits<Gf61>::Random(c).value(), d.NextBelow(kMersenne61));
  }
  EXPECT_EQ(a.NextUint64(), b.NextUint64());  // same stream position
  EXPECT_EQ(UnbiasedDrawLimit(kMersenne61), UINT64_MAX - 8);
}

TEST(Gf61Random, RejectedDrawsAreSkippedOneAtATimeAndInBulk) {
  const uint64_t limit = UnbiasedDrawLimit(kMersenne61);
  // Edge values around every fold boundary, and draws above the limit.
  const std::vector<uint64_t> script = {
      0,         kMersenne61 - 1, kMersenne61, kMersenne61 + 1,
      UINT64_MAX, limit,          limit + 1,   2 * kMersenne61,
      limit - 1, UINT64_MAX - 1,  7 * kMersenne61 + 3, 5};
  ScriptedRng one{script}, bulk{script}, below{script};
  std::vector<Gf61> filled(8);
  FieldTraits<Gf61>::FillRandom(bulk, std::span<Gf61>(filled));
  for (size_t i = 0; i < filled.size(); ++i) {
    const uint64_t expect = below.NextBelow(kMersenne61);
    EXPECT_EQ(FieldTraits<Gf61>::Random(one).value(), expect) << i;
    EXPECT_EQ(filled[i].value(), expect) << i;
  }
  EXPECT_EQ(one.next, below.next);
  EXPECT_EQ(bulk.next, below.next);
}

}  // namespace
}  // namespace scec
