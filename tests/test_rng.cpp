// SPDX-License-Identifier: MIT

#include "common/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace scec {
namespace {

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64, KnownVector) {
  // Reference values for seed 1234567 from the public-domain reference
  // implementation.
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.Next(), 6457827717110365317ULL);
  EXPECT_EQ(sm.Next(), 3203168211198807973ULL);
}

TEST(Xoshiro, DeterministicAndSeedSensitive) {
  Xoshiro256StarStar a(1), b(1), c(2);
  bool diverged = false;
  for (int i = 0; i < 64; ++i) {
    const uint64_t from_a = a.Next();
    const uint64_t from_b = b.Next();
    const uint64_t from_c = c.Next();
    EXPECT_EQ(from_a, from_b);
    if (from_a != from_c) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, DoubleRangeRespectsBounds) {
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble(2.5, 3.5);
    EXPECT_GE(d, 2.5);
    EXPECT_LT(d, 3.5);
  }
}

TEST(Xoshiro, NextUint64InclusiveRange) {
  Xoshiro256StarStar rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.NextUint64(10, 15);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 15u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u) << "all values in the range should occur";
}

TEST(Xoshiro, NextUint64DegenerateRange) {
  Xoshiro256StarStar rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextUint64(42, 42), 42u);
}

TEST(Xoshiro, UniformityChiSquareSmoke) {
  // 16 buckets, 160k draws: chi-square with 15 dof; 99.9% quantile ~ 37.7.
  Xoshiro256StarStar rng(99);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.NextUint64(0, kBuckets - 1)]++;
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 37.7);
}

TEST(Xoshiro, GaussianMomentsSmoke) {
  Xoshiro256StarStar rng(5);
  constexpr int kDraws = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Xoshiro, ExponentialMeanSmoke) {
  Xoshiro256StarStar rng(6);
  constexpr int kDraws = 200000;
  const double rate = 4.0;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextExponential(rate);
  EXPECT_NEAR(sum / kDraws, 1.0 / rate, 0.01);
}

TEST(Xoshiro, JumpProducesDisjointStream) {
  Xoshiro256StarStar a(42);
  Xoshiro256StarStar b(42);
  b.Jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(ChaCha20, DeterministicForSeed) {
  ChaCha20Rng a(2024), b(2024);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(ChaCha20, SeedSensitivity) {
  ChaCha20Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  // RFC 8439 §2.3.2 test vector: key = 00 01 02 ... 1f, nonce =
  // 00:00:00:09:00:00:00:4a:00:00:00:00, counter = 1. The RFC's expected
  // first state word after the block function (serialised little-endian) is
  // 0xe4e7f110. Our generator starts at counter 0, so skip one block (16
  // words) first.
  std::array<uint32_t, 8> key;
  for (uint32_t i = 0; i < 8; ++i) {
    key[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
             ((4 * i + 3) << 24);
  }
  std::array<uint32_t, 3> nonce = {0x09000000, 0x4a000000, 0x00000000};
  ChaCha20Rng rng(key, nonce);
  for (int i = 0; i < 16; ++i) rng.NextUint32();  // counter-0 block
  EXPECT_EQ(rng.NextUint32(), 0xe4e7f110u);
  EXPECT_EQ(rng.NextUint32(), 0x15593bd1u);
}

TEST(ChaCha20, NextBelowIsInRangeAndCoversAll) {
  ChaCha20Rng rng(31337);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.NextBelow(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(ChaCha20, NextBelowOneIsAlwaysZero) {
  ChaCha20Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(ChaCha20, DoubleInUnitInterval) {
  ChaCha20Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// RFC 8439's test key 00 01 02 ... 1f as little-endian words.
std::array<uint32_t, 8> RfcKey() {
  std::array<uint32_t, 8> key;
  for (uint32_t i = 0; i < 8; ++i) {
    key[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
             ((4 * i + 3) << 24);
  }
  return key;
}

// The keystream as the scalar block function defines it, one block at a
// time: the reference every tier and every draw shape is checked against.
class ReferenceStream {
 public:
  ReferenceStream(const std::array<uint32_t, 8>& key,
                  const std::array<uint32_t, 3>& nonce, uint32_t counter)
      : counter_(counter) {
    const uint32_t constants[4] = {0x61707865u, 0x3320646Eu, 0x79622D32u,
                                   0x6B206574u};
    for (size_t i = 0; i < 4; ++i) input_[i] = constants[i];
    for (size_t i = 0; i < 8; ++i) input_[4 + i] = key[i];
    for (size_t i = 0; i < 3; ++i) input_[13 + i] = nonce[i];
  }
  uint32_t NextUint32() {
    if (pos_ == 16) {
      input_[12] = counter_++;
      chacha_internal::ChaCha20Tiers().back().fn(input_.data(), block_.data());
      pos_ = 0;
    }
    return block_[pos_++];
  }
  uint64_t NextUint64() {
    const uint64_t lo = NextUint32();
    return lo | (uint64_t{NextUint32()} << 32);
  }
  uint64_t NextBelow(uint64_t bound) {
    if (bound == 1) return 0;  // no draw, as in ChaCha20Rng
    const uint64_t limit = UINT64_MAX - (UINT64_MAX % bound + 1) % bound;
    uint64_t draw;
    do {
      draw = NextUint64();
    } while (draw > limit);
    return draw % bound;
  }

 private:
  std::array<uint32_t, 16> input_{};
  std::array<uint32_t, 16> block_{};
  size_t pos_ = 16;
  uint32_t counter_;
};

class ChaCha20TierTest : public ::testing::TestWithParam<std::string> {
 protected:
  const chacha_internal::ChaCha20Tier* Tier() {
    for (const auto& tier : chacha_internal::ChaCha20Tiers()) {
      if (GetParam() == tier.name && tier.supported) return &tier;
    }
    return nullptr;
  }
};

#define SKIP_UNLESS_SUPPORTED(tier)                                     \
  if ((tier) == nullptr) {                                              \
    GTEST_SKIP() << "ChaCha20 tier '" << GetParam()                     \
                 << "' is not available on this host";                 \
  }

TEST_P(ChaCha20TierTest, MatchesScalarBlockFunctionAcrossRefills) {
  const chacha_internal::ChaCha20Tier* tier = Tier();
  SKIP_UNLESS_SUPPORTED(tier);
  const std::array<uint32_t, 8> key = RfcKey();
  const std::array<uint32_t, 3> nonce = {0x01020304u, 0xA5A5A5A5u, 7u};
  for (uint32_t counter : {0u, 1u, 5u, 1000u}) {
    ChaCha20Rng rng(key, nonce, counter, *tier);
    ReferenceStream ref(key, nonce, counter);
    // Interleave every draw shape with odd lengths, so draws straddle the
    // refill boundaries of every tier width and word parity.
    Xoshiro256StarStar shape(counter + 1);
    for (int step = 0; step < 600; ++step) {
      switch (shape.NextBelow(5)) {
        case 0:
          ASSERT_EQ(rng.NextUint32(), ref.NextUint32()) << "step " << step;
          break;
        case 1:
          ASSERT_EQ(rng.NextUint64(), ref.NextUint64()) << "step " << step;
          break;
        case 2: {
          const uint64_t bound = 1 + shape.NextBelow(1000);
          ASSERT_EQ(rng.NextBelow(bound), ref.NextBelow(bound))
              << "step " << step;
          break;
        }
        case 3: {
          std::vector<uint64_t> bulk(shape.NextBelow(700));
          rng.FillUint64(bulk);
          for (size_t i = 0; i < bulk.size(); ++i) {
            ASSERT_EQ(bulk[i], ref.NextUint64()) << "step " << step;
          }
          break;
        }
        default: {
          std::vector<char> bytes(shape.NextBelow(3000), 0);
          rng.XorKeystream(bytes);
          for (size_t i = 0; i < bytes.size(); i += 4) {
            const uint32_t word = ref.NextUint32();
            for (size_t b = 0; b < 4 && i + b < bytes.size(); ++b) {
              ASSERT_EQ(static_cast<unsigned char>(bytes[i + b]),
                        (word >> (8 * b)) & 0xFFu)
                  << "step " << step;
            }
          }
          break;
        }
      }
    }
  }
}

TEST_P(ChaCha20TierTest, Rfc8439CipherVectorAtCounterOne) {
  const chacha_internal::ChaCha20Tier* tier = Tier();
  SKIP_UNLESS_SUPPORTED(tier);
  // RFC 8439 §2.4.2: key 00..1f, nonce 00:00:00:00:00:00:00:4a:00:00:00:00,
  // initial counter 1.
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const unsigned char ciphertext[114] = {
      0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
      0xdd, 0x0d, 0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2,
      0x0a, 0x27, 0xaf, 0xcc, 0xfd, 0x9f, 0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5,
      0x52, 0x47, 0x33, 0xab, 0x8f, 0x59, 0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57,
      0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab, 0x8f, 0x53, 0x0c, 0x35,
      0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d, 0x6a, 0x61,
      0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d,
      0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36,
      0x5a, 0xf9, 0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed,
      0xf2, 0x78, 0x5e, 0x42, 0x87, 0x4d};
  ASSERT_EQ(plaintext.size(), sizeof(ciphertext));
  const std::array<uint32_t, 3> nonce = {0x00000000u, 0x4a000000u, 0u};
  ChaCha20Rng rng(RfcKey(), nonce, 1, *tier);
  std::string bytes = plaintext;
  rng.XorKeystream(bytes);
  EXPECT_EQ(0, std::memcmp(bytes.data(), ciphertext, sizeof(ciphertext)));
  // The same keystream drawn as words: its first word serialises to
  // 22 4f 51 f3.
  ChaCha20Rng words(RfcKey(), nonce, 1, *tier);
  EXPECT_EQ(words.NextUint32(), 0xf3514f22u);
}

TEST_P(ChaCha20TierTest, LastBlocksBeforeTheCounterLimitAreDrawable) {
  const chacha_internal::ChaCha20Tier* tier = Tier();
  SKIP_UNLESS_SUPPORTED(tier);
  const std::array<uint32_t, 8> key = RfcKey();
  const std::array<uint32_t, 3> nonce = {1u, 2u, 3u};
  // Fewer blocks left than one refill of any tier, exactly one refill of
  // the widest, and more than one refill: every block up to 2^32 - 1 comes
  // out, however the refills fall.
  for (uint32_t left : {1u, 3u, 16u, 20u}) {
    ChaCha20Rng rng(key, nonce, static_cast<uint32_t>(-left), *tier);
    ReferenceStream ref(key, nonce, static_cast<uint32_t>(-left));
    for (uint32_t i = 0; i < 16 * left; ++i) {
      ASSERT_EQ(rng.NextUint32(), ref.NextUint32())
          << "left=" << left << " word " << i;
    }
    ChaCha20Rng bulk(key, nonce, static_cast<uint32_t>(-left), *tier);
    std::vector<uint64_t> draws(8 * left);
    bulk.FillUint64(draws);
    ReferenceStream bulk_ref(key, nonce, static_cast<uint32_t>(-left));
    for (uint64_t draw : draws) ASSERT_EQ(draw, bulk_ref.NextUint64());
  }
}

TEST_P(ChaCha20TierTest, DrawFromBlockTwoToThe32Fails) {
  const chacha_internal::ChaCha20Tier* tier = Tier();
  SKIP_UNLESS_SUPPORTED(tier);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::array<uint32_t, 8> key = RfcKey();
  const std::array<uint32_t, 3> nonce = {1u, 2u, 3u};
  for (uint32_t left : {1u, 3u, 20u}) {
    EXPECT_DEATH(
        {
          ChaCha20Rng rng(key, nonce, static_cast<uint32_t>(-left), *tier);
          for (uint32_t i = 0; i < 16 * left; ++i) rng.NextUint32();
          rng.NextUint32();
        },
        "block counter exhausted")
        << "left=" << left;
    EXPECT_DEATH(
        {
          ChaCha20Rng rng(key, nonce, static_cast<uint32_t>(-left), *tier);
          std::vector<uint64_t> draws(8 * left + 1);
          rng.FillUint64(draws);
        },
        "block counter exhausted")
        << "left=" << left;
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, ChaCha20TierTest,
                         ::testing::Values("avx512", "avx2", "scalar"),
                         [](const auto& info) { return info.param; });

TEST(ChaCha20Tier, DispatchPicksWidestSupportedTier) {
  const auto tiers = chacha_internal::ChaCha20Tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_STREQ(tiers.back().name, "scalar");
  EXPECT_TRUE(tiers.back().supported);
  for (const auto& tier : tiers) {
    if (tier.supported) {
      EXPECT_EQ(&tier, &chacha_internal::SelectedChaCha20Tier())
          << "widest supported tier: " << tier.name;
      break;
    }
  }
}

TEST(DrawBelow, FillsRequestedCount) {
  ChaCha20Rng rng(3);
  const std::vector<uint64_t> draws = DrawBelow(rng, 10, 100);
  EXPECT_EQ(draws.size(), 100u);
  for (uint64_t d : draws) EXPECT_LT(d, 10u);
}

}  // namespace
}  // namespace scec
