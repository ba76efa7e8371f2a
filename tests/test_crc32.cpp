// SPDX-License-Identifier: MIT
//
// CRC-32 against the standard check value and a bit-at-a-time reference:
// every length and alignment around the 8-byte and 64-byte strides, and
// chaining through the seed argument (how journal and wire frames extend a
// checksum across header and body). Each tier is also run directly, so a
// tier the dispatch does not pick on this host is still checked wherever
// the host can run it.

#include "recovery/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace scec::recovery {
namespace {

uint32_t BitwiseCrc32(const unsigned char* bytes, size_t len,
                      uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= bytes[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

TEST(Crc32, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buffer = RandomBytes(600 + 8, 0xC3C32);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 600; ++len) {
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(Crc32(start, len), BitwiseCrc32(start, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32, ChainsThroughSeed) {
  const std::vector<unsigned char> buffer = RandomBytes(300, 0x5EED);
  const uint32_t whole = Crc32(buffer.data(), buffer.size());
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = Crc32(buffer.data(), split);
    ASSERT_EQ(Crc32(buffer.data() + split, buffer.size() - split, head), whole)
        << "split=" << split;
    ASSERT_EQ(BitwiseCrc32(buffer.data() + split, buffer.size() - split, head),
              whole);
  }
}

class Crc32TierTest : public ::testing::TestWithParam<std::string> {
 protected:
  internal::Crc32Fn Tier() {
    for (const auto& tier : internal::Crc32Tiers()) {
      if (GetParam() == tier.name && tier.supported) return tier.fn;
    }
    return nullptr;
  }
};

#define SKIP_UNLESS_SUPPORTED(fn)                                       \
  if ((fn) == nullptr) {                                                \
    GTEST_SKIP() << "CRC-32 tier '" << GetParam()                       \
                 << "' is not available on this host";                 \
  }

TEST_P(Crc32TierTest, KnownAnswer) {
  const internal::Crc32Fn crc = Tier();
  SKIP_UNLESS_SUPPORTED(crc);
  const char* check = "123456789";
  EXPECT_EQ(crc(check, std::strlen(check), 0), 0xCBF43926u);
  EXPECT_EQ(crc(nullptr, 0, 0), 0u);
  // 64 and 128 bytes of "123456789..." take the folding path whole.
  std::string repeated;
  while (repeated.size() < 128) repeated += "123456789";
  for (size_t len : {64u, 128u}) {
    EXPECT_EQ(crc(repeated.data(), len, 0),
              BitwiseCrc32(reinterpret_cast<const unsigned char*>(
                               repeated.data()),
                           len))
        << "len=" << len;
  }
}

TEST_P(Crc32TierTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const internal::Crc32Fn crc = Tier();
  SKIP_UNLESS_SUPPORTED(crc);
  const std::vector<unsigned char> buffer = RandomBytes(1100 + 16, 0x7E1A);
  for (size_t offset = 0; offset < 16; ++offset) {
    const unsigned char* start = buffer.data() + offset;
    for (size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(crc(start, len, 0), BitwiseCrc32(start, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST_P(Crc32TierTest, MatchesBitwiseReferenceOnLargeBuffers) {
  const internal::Crc32Fn crc = Tier();
  SKIP_UNLESS_SUPPORTED(crc);
  // 64 KiB, and 1.68 MiB: one 205x1024 share of doubles plus its frame.
  for (size_t len : {size_t{64} << 10, size_t{205} * 1024 * 8 + 40}) {
    const std::vector<unsigned char> buffer = RandomBytes(len + 16, len);
    for (size_t offset : {0u, 1u, 7u, 15u}) {
      ASSERT_EQ(crc(buffer.data() + offset, len, 0),
                BitwiseCrc32(buffer.data() + offset, len))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST_P(Crc32TierTest, ChainsThroughSeed) {
  const internal::Crc32Fn crc = Tier();
  SKIP_UNLESS_SUPPORTED(crc);
  const std::vector<unsigned char> buffer = RandomBytes(700, 0x5EED);
  const uint32_t whole = BitwiseCrc32(buffer.data(), buffer.size());
  for (size_t split = 0; split <= buffer.size(); ++split) {
    const uint32_t head = crc(buffer.data(), split, 0);
    ASSERT_EQ(crc(buffer.data() + split, buffer.size() - split, head), whole)
        << "split=" << split;
  }
  // Arbitrary seeds, not only CRCs of real prefixes.
  Xoshiro256StarStar seeds(0x5EED5);
  for (int i = 0; i < 64; ++i) {
    const auto seed = static_cast<uint32_t>(seeds.Next());
    const size_t len = 64 + seeds.NextBelow(600);
    ASSERT_EQ(crc(buffer.data(), len, seed),
              BitwiseCrc32(buffer.data(), len, seed))
        << "seed=" << seed << " len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, Crc32TierTest,
                         ::testing::Values("pclmul", "slice8"),
                         [](const auto& info) { return info.param; });

TEST(Crc32Tier, DispatchPicksFastestSupportedTier) {
  const auto tiers = internal::Crc32Tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_STREQ(tiers.back().name, "slice8");
  EXPECT_TRUE(tiers.back().supported);
  for (const auto& tier : tiers) {
    if (tier.supported) {
      EXPECT_EQ(&tier, &internal::SelectedCrc32Tier())
          << "fastest supported tier: " << tier.name;
      break;
    }
  }
}

}  // namespace
}  // namespace scec::recovery
